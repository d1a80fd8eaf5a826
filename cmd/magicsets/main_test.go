package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAncestorQuery(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "anc.dl", `
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`)
	facts := writeFile(t, dir, "facts.dl", `
		par(john, mary).
		par(mary, sue).
		par(bob, alice).
	`)

	var out bytes.Buffer
	err := run([]string{
		"-program", prog, "-facts", facts,
		"-query", "anc(john, Y)",
		"-strategy", "magic",
		"-show-rewrite", "-show-safety", "-stats",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"2 answer(s)", "mary", "sue", "magic_anc", "magic safe: true", "derived facts"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "alice") {
		t.Error("the unrelated branch must not appear among the answers")
	}
}

func TestRunStrategies(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "anc.dl", `
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
		par(a, b). par(b, c). par(c, d).
	`)
	for _, strategy := range []string{"semi-naive", "magic", "supplementary-magic", "counting", "supplementary-counting"} {
		var out bytes.Buffer
		err := run([]string{"-program", prog, "-query", "anc(a, Y)", "-strategy", strategy}, &out)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if !strings.Contains(out.String(), "3 answer(s)") {
			t.Errorf("%s: expected 3 answers:\n%s", strategy, out.String())
		}
	}
	// Naive iteration and top-down evaluation are test oracles, not
	// strategies.
	for _, strategy := range []string{"top-down", "naive"} {
		var out bytes.Buffer
		err := run([]string{"-program", prog, "-query", "anc(a, Y)", "-strategy", strategy}, &out)
		if err == nil || !strings.Contains(err.Error(), "unknown strategy") {
			t.Errorf("-strategy %s: err = %v, want an unknown-strategy error", strategy, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.dl", "p(X) :- q(X).")
	cases := [][]string{
		{},                 // missing flags
		{"-program", prog}, // missing query
		{"-program", "/nonexistent", "-query", "p(X)"},
		{"-program", prog, "-query", "p(X)", "-strategy", "bogus"},
		{"-program", prog, "-query", "p(X", "-strategy", "magic"},
		{"-program", prog, "-facts", "/nonexistent", "-query", "p(a)"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("expected an error for args %v", args)
		}
	}
}

func TestRunParallelismFlag(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "anc.dl", `
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`)
	// A 300-edge chain: the early delta rounds of the closure hold more rows
	// than the partition threshold, so -parallelism above 1 splits them.
	var chain strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&chain, "par(n%d, n%d).\n", i, i+1)
	}
	facts := writeFile(t, dir, "chain.dl", chain.String())

	// A partitioned run reports its shard rounds under -stats and still
	// returns the exact sequential answers.
	var par bytes.Buffer
	err := run([]string{
		"-program", prog, "-facts", facts, "-query", "anc(n0, Y)",
		"-strategy", "semi-naive", "-parallelism", "4", "-stats",
	}, &par)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"300 answer(s)", "parallel eval:", "shard round(s)"} {
		if !strings.Contains(par.String(), want) {
			t.Errorf("parallel output missing %q:\n%s", want, par.String())
		}
	}

	// A sequential run answers identically and omits the parallel line.
	var seq bytes.Buffer
	err = run([]string{
		"-program", prog, "-facts", facts, "-query", "anc(n0, Y)",
		"-strategy", "semi-naive", "-parallelism", "1", "-stats",
	}, &seq)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(seq.String(), "300 answer(s)") {
		t.Errorf("sequential run expected 300 answers:\n%s", seq.String())
	}
	if strings.Contains(seq.String(), "parallel eval:") {
		t.Errorf("sequential run must not report parallel statistics:\n%s", seq.String())
	}
}

func TestRunVetFlag(t *testing.T) {
	dir := t.TempDir()
	// Nonlinear ancestor: the Section 10 divergence example plus a
	// deliberate singleton, so both program- and query-relative
	// diagnostics fire.
	prog := writeFile(t, dir, "nl.dl", `a(X, Y) :- p(X, Y).
a(X, Y) :- a(X, Z), a(Z, Y).
junk(X) :- p(X, W).
p(f, g).
`)

	// -vet prints the diagnostics, then the evaluation still runs.
	var out bytes.Buffer
	err := run([]string{"-program", prog, "-query", "a(f, Y)", "-strategy", "magic", "-vet"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"DL0005", "DL0012", "Theorem 10.3", "answer(s)"} {
		if !strings.Contains(text, want) {
			t.Errorf("-vet output missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, prog+":") {
		t.Errorf("-vet diagnostics do not carry the program path:\n%s", text)
	}

	// -vet-only exits non-zero when diagnostics exist and never evaluates.
	out.Reset()
	err = run([]string{"-program", prog, "-query", "a(f, Y)", "-vet-only"}, &out)
	if err == nil {
		t.Fatal("-vet-only with findings returned nil")
	}
	if strings.Contains(out.String(), "answer(s)") {
		t.Errorf("-vet-only evaluated the query:\n%s", out.String())
	}

	// A clean program under -vet-only succeeds and says so.
	clean := writeFile(t, dir, "lin.dl", `anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
par(a, b).
`)
	out.Reset()
	if err := run([]string{"-program", clean, "-query", "anc(a, Y)", "-vet-only"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no diagnostics") {
		t.Errorf("clean -vet-only output:\n%s", out.String())
	}
}
