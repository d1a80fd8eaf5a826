package datalog

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// nonlinearAncestor is the paper's cyclic counting example: the argument
// graph of a^bf has a reachable cycle, so Theorem 10.3 proves the counting
// strategies diverge for a(c, Y) on every database.
const nonlinearAncestor = `
a(X, Y) :- p(X, Y).
a(X, Y) :- a(X, Z), a(Z, Y).
`

func TestProgramDiagnosticsDivergence(t *testing.T) {
	prog, err := Compile(nonlinearAncestor)
	if err != nil {
		t.Fatal(err)
	}
	var found *Diagnostic
	for _, d := range prog.Diagnostics() {
		if d.Code == "DL0012" {
			found = &d
			break
		}
	}
	if found == nil {
		t.Fatalf("no DL0012 divergence warning in %v", prog.Diagnostics())
	}
	if found.Severity != SeverityWarning {
		t.Errorf("severity = %s", found.Severity)
	}
	if !strings.Contains(found.Message, "Theorem 10.3") || !strings.Contains(found.Message, "a^bf") {
		t.Errorf("message = %q", found.Message)
	}
	// The warning anchors at the recursive rule (line 3 of the source).
	if found.Position.Line != 3 {
		t.Errorf("position = %v, want line 3", found.Position)
	}
}

func TestDiagnosticsFor(t *testing.T) {
	prog, err := Compile(nonlinearAncestor)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := prog.DiagnosticsFor("a(c, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Code != "DL0012" {
		t.Fatalf("diags = %v", diags)
	}
	// The fully-free form has no bound argument to diverge on.
	diags, err = prog.DiagnosticsFor("a(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("free form diags = %v", diags)
	}
	if _, err := prog.DiagnosticsFor("a(c, "); err == nil {
		t.Error("malformed query accepted")
	}
}

func TestCompileStrict(t *testing.T) {
	if _, err := CompileStrict(nonlinearAncestor); err == nil {
		t.Error("strict compile accepted a program with a divergence warning")
	} else if !strings.Contains(err.Error(), "DL0012") {
		t.Errorf("error %q does not name the diagnostic code", err)
	}
	// Linear ancestor is warning-free (par is info-level assumed EDB).
	prog, err := CompileStrict("anc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).\n")
	if err != nil {
		t.Fatal(err)
	}
	if prog == nil {
		t.Fatal("nil program")
	}
}

func TestCompileRejectsNegation(t *testing.T) {
	_, err := Compile("unreach(X) :- node(X), !reach(X).\nreach(X) :- start(X).\n")
	if err == nil {
		t.Fatal("negation compiled")
	}
	if !strings.Contains(err.Error(), "DL0009") {
		t.Errorf("error = %q", err)
	}
}

func TestCompileArityErrorHasPosition(t *testing.T) {
	_, err := Compile("p(X) :- q(X).\np(X, Y) :- q(X), q(Y).\n")
	if err == nil {
		t.Fatal("arity conflict compiled")
	}
	if !strings.Contains(err.Error(), "2:1") || !strings.Contains(err.Error(), "DL0002") {
		t.Errorf("error = %q", err)
	}
}

// loadChain asserts a p-chain c0 -> c1 -> ... -> cn.
func loadChain(t *testing.T, fx fixture, n int) {
	t.Helper()
	txn := fx.db.Begin()
	for i := 0; i < n; i++ {
		if err := txn.Assert("p", fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDivergenceFallback: by default, requesting a counting strategy on a
// statically divergent form transparently evaluates the magic rewriting —
// same answers, terminating, Stats.DivergenceFallback set.
func TestDivergenceFallback(t *testing.T) {
	for _, strat := range []Strategy{Counting, SupplementaryCounting} {
		fx := newFixture(t, nonlinearAncestor)
		loadChain(t, fx, 8)
		res, err := fx.snap().Query("a(c0, Y)", Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !res.Stats.DivergenceFallback {
			t.Errorf("%s: DivergenceFallback not set", strat)
		}
		if res.Stats.Strategy != strat {
			t.Errorf("%s: Stats.Strategy = %s", strat, res.Stats.Strategy)
		}
		if len(res.Answers) != 8 {
			t.Errorf("%s: got %d answers, want 8", strat, len(res.Answers))
		}
		// The reference answer under magic sets agrees.
		ref, err := fx.snap().Query("a(c0, Y)", Options{Strategy: MagicSets})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Stats.DivergenceFallback {
			t.Errorf("%s: magic run reported a fallback", strat)
		}
		got, want := res.AnswerSet(), ref.AnswerSet()
		if len(got) != len(want) {
			t.Errorf("%s: fallback answers differ from magic answers", strat)
		}
		for k := range want {
			if !got[k] {
				t.Errorf("%s: missing answer %s", strat, k)
			}
		}
	}
}

// TestDivergenceFail: OnDivergence=fail refuses the form fast.
func TestDivergenceFail(t *testing.T) {
	fx := newFixture(t, nonlinearAncestor)
	loadChain(t, fx, 4)
	_, err := fx.snap().Query("a(c0, Y)", Options{Strategy: Counting, OnDivergence: DivergenceFail})
	if !errors.Is(err, ErrCountingDiverges) {
		t.Fatalf("err = %v, want ErrCountingDiverges", err)
	}
	if _, err := fx.snap().Prepare("a(c0, Y)", Options{Strategy: SupplementaryCounting, OnDivergence: DivergenceFail}); !errors.Is(err, ErrCountingDiverges) {
		t.Errorf("Prepare err = %v, want ErrCountingDiverges", err)
	}
	// A non-divergent form under the same policy runs normally.
	lin := newFixture(t, "a(X, Y) :- p(X, Y).\na(X, Y) :- p(X, Z), a(Z, Y).\n")
	loadChain(t, lin, 4)
	res, err := lin.snap().Query("a(c0, Y)", Options{Strategy: Counting, OnDivergence: DivergenceFail})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 4 || res.Stats.DivergenceFallback {
		t.Errorf("linear counting: %d answers, fallback=%v", len(res.Answers), res.Stats.DivergenceFallback)
	}
}

// TestDivergencePolicySplitsForms: the three policies prepare different
// artifacts for the same query text, so they must not share a cached form.
func TestDivergencePolicySplitsForms(t *testing.T) {
	fx := newFixture(t, nonlinearAncestor)
	loadChain(t, fx, 4)
	// Warm the fallback form first.
	res, err := fx.snap().Query("a(c0, Y)", Options{Strategy: Counting})
	if err != nil || !res.Stats.DivergenceFallback {
		t.Fatalf("warm-up: err=%v stats=%+v", err, res.Stats)
	}
	// The run policy must not reuse the fallback preparation.
	res, err = fx.snap().Query("a(c0, Y)", Options{Strategy: Counting, OnDivergence: DivergenceRun, MaxIterations: 25, MaxFacts: 20000})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("DivergenceRun after fallback: err=%v (res=%v)", err, res)
	}
}

// TestDivergenceOracle is the differential test for the predictor: programs
// the analysis flags as divergent must actually exceed MaxDerivations under
// the counting strategies, and randomized unflagged programs must terminate
// without tripping a generous limit.
func TestDivergenceOracle(t *testing.T) {
	flagged := []struct {
		name, rules, query string
	}{
		{"nonlinear ancestor", nonlinearAncestor, "a(c0, Y)"},
		{"left-linear ancestor", "a(X, Y) :- p(X, Y).\na(X, Y) :- a(X, Z), p(Z, Y).\n", "a(c0, Y)"},
	}
	for _, tc := range flagged {
		prog, err := Compile(tc.rules)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := prog.DiagnosticsFor(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		isFlagged := false
		for _, d := range diags {
			if d.Code == "DL0012" {
				isFlagged = true
			}
		}
		if !isFlagged {
			t.Fatalf("%s: not flagged: %v", tc.name, diags)
		}
		for _, strat := range []Strategy{Counting, SupplementaryCounting} {
			fx := newFixture(t, tc.rules)
			loadChain(t, fx, 6)
			_, err = fx.snap().Query(tc.query, Options{
				Strategy:       strat,
				OnDivergence:   DivergenceRun,
				MaxDerivations: 50000,
				MaxIterations:  2000,
			})
			if !errors.Is(err, ErrLimitExceeded) {
				t.Errorf("%s under %s: flagged divergent but finished with err=%v", tc.name, strat, err)
			}
		}
	}

	// Unflagged randomized programs: linear recursion over random acyclic
	// data terminates under counting well inside the same limits.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		rules := "a(X, Y) :- p(X, Y).\na(X, Y) :- p(X, Z), a(Z, Y).\n"
		prog, err := Compile(rules)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := prog.DiagnosticsFor("a(c0, Y)")
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			if d.Code == "DL0012" {
				t.Fatalf("trial %d: linear ancestor flagged divergent", trial)
			}
		}
		fx := newFixture(t, rules)
		// Random DAG edges i -> j (i < j) over a random node count.
		n := 5 + rng.Intn(12)
		txn := fx.db.Begin()
		for i := 0; i < n; i++ {
			if err := txn.Assert("p", fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1)); err != nil {
				t.Fatal(err)
			}
			j := i + 1 + rng.Intn(n-i+1)
			if j <= n && j != i+1 {
				if err := txn.Assert("p", fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, strat := range []Strategy{Counting, SupplementaryCounting} {
			res, err := fx.snap().Query("a(c0, Y)", Options{
				Strategy:       strat,
				OnDivergence:   DivergenceRun,
				MaxDerivations: 50000,
				MaxIterations:  2000,
			})
			if err != nil {
				t.Errorf("trial %d under %s: unflagged program failed: %v", trial, strat, err)
				continue
			}
			if len(res.Answers) == 0 {
				t.Errorf("trial %d under %s: no answers", trial, strat)
			}
		}
	}
}
