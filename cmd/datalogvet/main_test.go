package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runVet invokes run the way main does and returns the captured output and
// exit code.
func runVet(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var buf strings.Builder
	code, err := run(args, &buf)
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String(), code
}

// TestGolden pins the exact human and JSON output (positions, codes,
// related notes) for every seeded-defect fixture.
func TestGolden(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		golden   string
		wantCode int
	}{
		{"defects", []string{"testdata/defects.dl"}, "testdata/defects.golden", 0},
		{"defects json", []string{"-json", "testdata/defects.dl"}, "testdata/defects.json.golden", 0},
		{"diverge", []string{"testdata/diverge.dl"}, "testdata/diverge.golden", 0},
		{"arity", []string{"testdata/arity.dl"}, "testdata/arity.golden", 1},
		{"negation", []string{"testdata/negation.dl"}, "testdata/negation.golden", 1},
		{"broken", []string{"testdata/broken.dl"}, "testdata/broken.golden", 1},
		{"clean json", []string{"-json", "testdata/clean.dl"}, "testdata/clean.json.golden", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			got, code := runVet(t, tc.args...)
			if got != string(want) {
				t.Errorf("output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			if code != tc.wantCode {
				t.Errorf("exit code = %d, want %d", code, tc.wantCode)
			}
		})
	}
}

func TestCleanFileIsSilent(t *testing.T) {
	out, code := runVet(t, "testdata/clean.dl")
	if out != "" || code != 0 {
		t.Errorf("clean file: output %q, code %d", out, code)
	}
}

// TestStrict: warnings flip the exit code under -strict, and errors fail
// even without it.
func TestStrict(t *testing.T) {
	if _, code := runVet(t, "testdata/defects.dl"); code != 0 {
		t.Errorf("warnings without -strict: code %d", code)
	}
	if _, code := runVet(t, "-strict", "testdata/defects.dl"); code != 1 {
		t.Errorf("warnings with -strict: code %d", code)
	}
}

// TestInfo: DL0004 (assumed base relation) is suppressed by default and
// surfaced by -info.
func TestInfo(t *testing.T) {
	out, _ := runVet(t, "testdata/defects.dl")
	if strings.Contains(out, "DL0004") {
		t.Error("info diagnostic shown without -info")
	}
	out, code := runVet(t, "-info", "testdata/defects.dl")
	if !strings.Contains(out, "DL0004") {
		t.Errorf("-info did not surface DL0004:\n%s", out)
	}
	if code != 0 {
		t.Errorf("info findings changed the exit code to %d", code)
	}
}

// TestQueryFlag: -query adds a vetted form; an undefined query predicate is
// an error.
func TestQueryFlag(t *testing.T) {
	out, code := runVet(t, "-query", "nosuch(X)", "testdata/clean.dl")
	if !strings.Contains(out, "DL0011") || code != 1 {
		t.Errorf("bad -query: code %d, output:\n%s", code, out)
	}
	// A valid extra form on the clean program stays clean.
	out, code = runVet(t, "-query", "anc(bob, W)", "testdata/clean.dl")
	if out != "" || code != 0 {
		t.Errorf("good -query: code %d, output:\n%s", code, out)
	}
}

// TestJSONShape decodes the JSON stream and checks the wire fields.
func TestJSONShape(t *testing.T) {
	out, code := runVet(t, "-json", "testdata/diverge.dl")
	if code != 0 {
		t.Fatalf("code = %d", code)
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(diags))
	}
	d := diags[0]
	if d.Code != "DL0012" || d.Severity != "warning" || d.Line != 4 || d.Col != 4 {
		t.Errorf("diagnostic = %+v", d)
	}
	if len(d.Related) != 1 || d.Related[0].Line != 2 {
		t.Errorf("related = %+v", d.Related)
	}
}

// TestExamples vets the shipped example programs: the safe ones are silent
// and the Section 10 divergence example carries its DL0012 warning.
func TestExamples(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "programs")
	clean := []string{"ancestor.dl", "ancestor_rules.dl", "samegeneration.dl"}
	for _, f := range clean {
		out, code := runVet(t, filepath.Join(dir, f))
		if out != "" || code != 0 {
			t.Errorf("%s: output %q, code %d", f, out, code)
		}
	}
	out, code := runVet(t, filepath.Join(dir, "countingdiverges.dl"))
	if !strings.Contains(out, "DL0012") || !strings.Contains(out, "Theorem 10.3") {
		t.Errorf("countingdiverges.dl missing DL0012:\n%s", out)
	}
	if code != 0 {
		t.Errorf("countingdiverges.dl: code %d (warnings are not fatal)", code)
	}
	// listreverse is not Datalog: the vetter points out exactly why direct
	// bottom-up evaluation cannot enumerate the unconstrained head variable.
	out, code = runVet(t, filepath.Join(dir, "listreverse.dl"))
	if !strings.Contains(out, "DL0006") || code != 0 {
		t.Errorf("listreverse.dl: code %d, output:\n%s", code, out)
	}
}

func TestUsageErrors(t *testing.T) {
	var buf strings.Builder
	if _, err := run(nil, &buf); err == nil {
		t.Error("no files accepted")
	}
	if _, err := run([]string{"-query", "a(X", "testdata/clean.dl"}, &buf); err == nil {
		t.Error("malformed -query accepted")
	}
	if _, err := run([]string{"testdata/nosuchfile.dl"}, &buf); err == nil {
		t.Error("missing file accepted")
	}
}
