package eval

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/parser"
	"repro/internal/workload"
)

// sameFixpoint asserts that two evaluated stores agree exactly on every
// derived predicate of the program.
func sameFixpoint(t *testing.T, p *ast.Program, a, b *database.Store, labelA, labelB string) {
	t.Helper()
	for key := range p.DerivedPredicates() {
		ra, rb := a.Existing(key), b.Existing(key)
		na, nb := 0, 0
		if ra != nil {
			na = ra.Len()
		}
		if rb != nil {
			nb = rb.Len()
		}
		if na != nb {
			t.Fatalf("%s: %s has %d facts, %s has %d", key, labelA, na, labelB, nb)
		}
		if ra == nil {
			continue
		}
		for _, tup := range ra.Tuples() {
			if !rb.Contains(tup) {
				t.Fatalf("%s: %s derived %s%s, %s did not", key, labelA, key, tup, labelB)
			}
		}
	}
}

// TestSCCSchedulingMatchesWholeProgramIteration runs the SCC-scheduled
// semi-naive evaluator and the whole-program naive evaluator on the
// workloads the paper reasons about and requires identical fixpoints.
func TestSCCSchedulingMatchesWholeProgramIteration(t *testing.T) {
	bomStore := func() *database.Store {
		s := database.NewStore()
		edges := [][2]string{
			{"bicycle", "frame"}, {"bicycle", "wheel"}, {"wheel", "rim"},
			{"wheel", "spoke"}, {"wheel", "hub"}, {"hub", "bearing"},
			{"frame", "tube"}, {"car", "engine"}, {"engine", "piston"},
			{"engine", "valve"}, {"car", "chassis"}, {"chassis", "beam"},
		}
		for _, e := range edges {
			s.MustAddFact(ast.NewAtom("component", ast.S(e[0]), ast.S(e[1])))
		}
		for _, sup := range [][2]string{{"bearing", "acme"}, {"spoke", "wireworks"}, {"piston", "forge"}} {
			s.MustAddFact(ast.NewAtom("supplier", ast.S(sup[0]), ast.S(sup[1])))
		}
		return s
	}

	cases := []struct {
		name   string
		src    string
		edb    *database.Store
		strata int
	}{
		{
			name: "ancestor-chain",
			src: `
				anc(X, Y) :- par(X, Y).
				anc(X, Y) :- par(X, Z), anc(Z, Y).
			`,
			edb:    func() *database.Store { s, _ := workload.ParentChain("par", 24); return s }(),
			strata: 1,
		},
		{
			name: "ancestor-random-graph",
			src: `
				anc(X, Y) :- par(X, Y).
				anc(X, Y) :- par(X, Z), anc(Z, Y).
			`,
			edb:    func() *database.Store { s, _ := workload.RandomGraph("par", 30, 60, 7); return s }(),
			strata: 1,
		},
		{
			name: "same-generation",
			src: `
				sg(X, Y) :- flat(X, Y).
				sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).
			`,
			edb:    workload.SameGenerationLayers(8, 3, false).Store,
			strata: 1,
		},
		{
			name: "nested-same-generation",
			src: `
				p(X, Y) :- b1(X, Y).
				p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
				sg(X, Y) :- flat(X, Y).
				sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).
			`,
			edb:    workload.NestedSameGeneration(8, 3, false).Store,
			strata: 2,
		},
		{
			name: "bill-of-materials",
			src: `
				subpart(A, P) :- component(A, P).
				subpart(A, P) :- component(A, Q), subpart(Q, P).
				certified_source(A, S) :- subpart(A, P), supplier(P, S).
			`,
			edb:    bomStore(),
			strata: 2,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog := parser.MustParseProgram(tc.src)
			sn, snStats, err := semiNaive(prog, tc.edb, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref := naiveOracle(t, prog, tc.edb)
			sameFixpoint(t, prog, sn, ref.store, "semi-naive(SCC)", "naive")
			sameFixpoint(t, prog, ref.store, sn, "naive", "semi-naive(SCC)")
			if snStats.Strata != tc.strata {
				t.Errorf("strata = %d, want %d", snStats.Strata, tc.strata)
			}
			if snStats.Derivations > ref.derivations {
				t.Errorf("SCC semi-naive did more derivations (%d) than naive (%d)",
					snStats.Derivations, ref.derivations)
			}
		})
	}
}

// TestSCCSchedulingOnSeededMagicProgram replays the hand-written magic
// ancestor program: the magic predicate and the answer predicate form
// separate components, and the seeded store must produce the same fixpoint
// under both evaluators.
func TestSCCSchedulingOnSeededMagicProgram(t *testing.T) {
	src := `
		magic_anc(Z) :- magic_anc(X), par(X, Z).
		anc(X, Y) :- magic_anc(X), par(X, Y).
		anc(X, Y) :- magic_anc(X), par(X, Z), anc(Z, Y).
	`
	prog := parser.MustParseProgram(src)
	edb, _ := workload.ParentChain("par", 12)
	edb.MustAddFact(ast.NewAtom("magic_anc", ast.S("n4")))

	sn, stats, err := semiNaive(prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameFixpoint(t, prog, sn, naiveOracle(t, prog, edb).store, "semi-naive(SCC)", "naive")
	if stats.Strata != 2 {
		t.Errorf("strata = %d, want 2 (magic_anc before anc)", stats.Strata)
	}
	if stats.IndexProbes == 0 {
		t.Error("expected bound-column index probes to be recorded")
	}
}

// TestSkippedRuleEvalsOnMultiDeltaComponent checks the delta scheduler
// records skipped occurrences when one of two mutually recursive predicates
// stops producing facts before the other.
func TestSkippedRuleEvalsOnMultiDeltaComponent(t *testing.T) {
	src := `
		even(X) :- zero(X).
		even(X) :- succ(Y, X), odd(Y).
		odd(X) :- succ(Y, X), even(Y).
	`
	prog := parser.MustParseProgram(src)
	edb := database.NewStore()
	edb.MustAddFact(ast.NewAtom("zero", ast.I(0)))
	for i := 0; i < 10; i++ {
		edb.MustAddFact(ast.NewAtom("succ", ast.I(int64(i)), ast.I(int64(i+1))))
	}
	store, stats, err := semiNaive(prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := store.FactCount("even"); got != 6 {
		t.Errorf("even facts = %d, want 6 (0,2,...,10)", got)
	}
	if got := store.FactCount("odd"); got != 5 {
		t.Errorf("odd facts = %d, want 5 (1,3,...,9)", got)
	}
	if stats.DeltaRuleEvals == 0 {
		t.Error("expected delta rule evaluations to be recorded")
	}
	// In the last rounds one of the two deltas drains first, so at least one
	// occurrence must have been skipped.
	if stats.SkippedRuleEvals == 0 {
		t.Error("expected at least one skipped rule evaluation")
	}
}

// TestMaxIterationsIsPerComponent checks that a wide stratified program
// (many components, each converging immediately) does not trip a small
// iteration limit: the bound applies to fixpoint rounds within a component,
// not to the number of strata.
func TestMaxIterationsIsPerComponent(t *testing.T) {
	var rules string
	for i := 0; i < 30; i++ {
		rules += fmt.Sprintf("d%d(X) :- base(X).\n", i)
	}
	prog := parser.MustParseProgram(rules)
	edb := database.NewStore()
	edb.MustAddFact(ast.NewAtom("base", ast.S("a")))
	store, stats, err := semiNaive(prog, edb, Options{MaxIterations: 10})
	if err != nil {
		t.Fatalf("30 non-recursive strata tripped MaxIterations=10: %v", err)
	}
	if stats.Strata != 30 {
		t.Errorf("strata = %d, want 30", stats.Strata)
	}
	if store.TotalFacts() != 31 {
		t.Errorf("facts = %d, want 31", store.TotalFacts())
	}
	// A genuinely diverging component must still trip the same limit.
	diverge := ast.NewProgram(ast.NewRule(
		ast.NewAtom("nat", ast.C("s", ast.V("N"))),
		ast.NewAtom("nat", ast.V("N")),
	))
	nedb := database.NewStore()
	nedb.MustAddFact(ast.NewAtom("nat", ast.I(0)))
	if _, _, err := semiNaive(diverge, nedb, Options{MaxIterations: 10}); err == nil {
		t.Error("diverging component did not trip MaxIterations")
	}
}

// TestIndexStatsIncludeDeltaProbes checks the probe counters fold in the
// lookups made against the per-round delta stores, not just the main store.
func TestIndexStatsIncludeDeltaProbes(t *testing.T) {
	prog := parser.MustParseProgram(`
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`)
	edb, _ := workload.ParentChain("par", 16)
	_, stats, err := semiNaive(prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The recursive rule probes the anc delta once per round with Z bound:
	// with the chain of length 16 there are >14 delta rounds, so delta-side
	// probes alone exceed what the main store sees on the first pass.
	if stats.IndexProbes < 14 {
		t.Errorf("IndexProbes = %d, want at least the delta-side probes", stats.IndexProbes)
	}
	if stats.IndexHits == 0 {
		t.Error("IndexHits = 0, want > 0")
	}
}

// TestStrataReportedThroughMeasure keeps eval.Stats and fmt wiring honest on
// a program with many strata.
func TestStrataReportedThroughMeasure(t *testing.T) {
	var rules string
	for i := 1; i <= 5; i++ {
		rules += fmt.Sprintf("l%d(X) :- l%d(X).\n", i, i-1)
	}
	prog := parser.MustParseProgram(rules)
	edb := database.NewStore()
	edb.MustAddFact(ast.NewAtom("l0", ast.S("a")))
	_, stats, err := semiNaive(prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Strata != 5 {
		t.Errorf("strata = %d, want 5", stats.Strata)
	}
	if stats.Iterations != 5 {
		t.Errorf("iterations = %d, want 5 (one pass per non-recursive stratum)", stats.Iterations)
	}
}

// TestIndexStatsArePerEvaluation runs the same evaluation from two goroutines
// over one shared base store. The index counters are counted by the evaluation
// that issues the lookup, not read off the shared relations, so every
// concurrent run must report exactly what a solo run reports — no evaluation
// is billed another's probes.
func TestIndexStatsArePerEvaluation(t *testing.T) {
	prog := parser.MustParseProgram(`
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`)
	edb, _ := workload.ParentChain("par", 24)
	pp, err := Prepare(prog, edb.Table())
	if err != nil {
		t.Fatal(err)
	}
	_, solo, err := pp.EvaluateCtx(context.Background(), edb, nil, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if solo.IndexProbes == 0 || solo.IndexHits == 0 {
		t.Fatalf("solo run: %d probes, %d hits; want both positive", solo.IndexProbes, solo.IndexHits)
	}
	if solo.JoinProbes != solo.IndexHits+solo.ScanRows {
		t.Errorf("JoinProbes %d != IndexHits %d + ScanRows %d", solo.JoinProbes, solo.IndexHits, solo.ScanRows)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, stats, err := pp.EvaluateCtx(context.Background(), edb, nil, Options{Parallelism: 1})
				if err != nil {
					t.Error(err)
					return
				}
				if stats.IndexProbes != solo.IndexProbes || stats.IndexHits != solo.IndexHits {
					t.Errorf("concurrent run %d: %d probes, %d hits; solo run %d, %d",
						i, stats.IndexProbes, stats.IndexHits, solo.IndexProbes, solo.IndexHits)
					return
				}
			}
		}()
	}
	wg.Wait()
}
