package eval

// Tests for the parallel semi-naive evaluator: the parallel scheduler and
// the hash-partitioned delta rounds must compute exactly the sequential
// fixpoint (Store.String is a sorted rendering, so string equality is
// order-independent set equality), small evaluations must report
// sequential-identical statistics, and cancellation, limits and StopEarly
// must keep their sequential semantics.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/parser"
	"repro/internal/workload"
)

// evalAt evaluates the program semi-naively at the given parallelism.
func evalAt(t *testing.T, prog *ast.Program, edb *database.Store, opts Options, parallelism int) (*database.Store, *Stats) {
	t.Helper()
	opts.Parallelism = parallelism
	pp, err := Prepare(prog, edb.Table())
	if err != nil {
		t.Fatal(err)
	}
	store, stats, err := pp.EvaluateCtx(context.Background(), edb, nil, opts)
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	return store, stats
}

// TestParallelStatsMatchSequential pins the exact-statistics contract for
// evaluations whose rounds stay below the partition threshold: the parallel
// scheduler distributes whole components across workers, each component does
// precisely the sequential work, so every summed counter matches the
// Parallelism=1 run exactly.
func TestParallelStatsMatchSequential(t *testing.T) {
	prog := parser.MustParseProgram(`
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
		ancpair(X, Y) :- anc(X, Y), anc(Y, X).
	`)
	edb, _ := workload.ParentChain("par", 40)
	seqStore, seq := evalAt(t, prog, edb, Options{}, 1)
	parStore, par := evalAt(t, prog, edb, Options{}, 4)

	if got, want := parStore.String(), seqStore.String(); got != want {
		t.Fatalf("fixpoints differ\nparallel:\n%s\nsequential:\n%s", got, want)
	}
	if seq.ParallelComponents != 0 {
		t.Errorf("sequential run reports ParallelComponents = %d, want 0", seq.ParallelComponents)
	}
	if par.ParallelComponents != 2 {
		t.Errorf("parallel run reports ParallelComponents = %d, want 2", par.ParallelComponents)
	}
	if par.WorkerRounds != 0 {
		t.Errorf("below-threshold rounds reported WorkerRounds = %d, want 0", par.WorkerRounds)
	}
	if par.Iterations != seq.Iterations {
		t.Errorf("Iterations: parallel %d, sequential %d", par.Iterations, seq.Iterations)
	}
	if par.Derivations != seq.Derivations {
		t.Errorf("Derivations: parallel %d, sequential %d", par.Derivations, seq.Derivations)
	}
	if par.NewFacts != seq.NewFacts {
		t.Errorf("NewFacts: parallel %d, sequential %d", par.NewFacts, seq.NewFacts)
	}
	if par.DeltaRuleEvals != seq.DeltaRuleEvals || par.SkippedRuleEvals != seq.SkippedRuleEvals {
		t.Errorf("delta scheduling: parallel %d/%d, sequential %d/%d",
			par.DeltaRuleEvals, par.SkippedRuleEvals, seq.DeltaRuleEvals, seq.SkippedRuleEvals)
	}
	if par.Strata != seq.Strata {
		t.Errorf("Strata: parallel %d, sequential %d", par.Strata, seq.Strata)
	}
	if len(par.RuleFirings) != len(seq.RuleFirings) {
		t.Errorf("RuleFirings keys: parallel %v, sequential %v", par.RuleFirings, seq.RuleFirings)
	}
	for rule, n := range seq.RuleFirings {
		if par.RuleFirings[rule] != n {
			t.Errorf("RuleFirings[%d]: parallel %d, sequential %d", rule, par.RuleFirings[rule], n)
		}
	}
	for key, n := range seq.FactsByPredicate {
		if par.FactsByPredicate[key] != n {
			t.Errorf("FactsByPredicate[%s]: parallel %d, sequential %d", key, par.FactsByPredicate[key], n)
		}
	}
	if par.IndexProbes != seq.IndexProbes || par.IndexHits != seq.IndexHits {
		t.Errorf("index counters: parallel %d/%d, sequential %d/%d",
			par.IndexProbes, par.IndexHits, seq.IndexProbes, seq.IndexHits)
	}
	// The leading literal of each first pass is chosen from relation sizes at
	// run time; the choice, and so the join work, must not depend on which
	// worker ran the component.
	if par.JoinProbes != seq.JoinProbes || par.ScanRows != seq.ScanRows ||
		par.OpProbes != seq.OpProbes || par.OpScans != seq.OpScans || par.CompiledPlans != seq.CompiledPlans {
		t.Errorf("join work (JoinProbes/ScanRows/OpProbes/OpScans/CompiledPlans): parallel %d/%d/%d/%d/%d, sequential %d/%d/%d/%d/%d",
			par.JoinProbes, par.ScanRows, par.OpProbes, par.OpScans, par.CompiledPlans,
			seq.JoinProbes, seq.ScanRows, seq.OpProbes, seq.OpScans, seq.CompiledPlans)
	}
}

// TestParallelPartitionedRoundsSameFixpoint drives the transitive closure of
// a random graph large enough that delta rounds exceed the partition
// threshold: the hash-partitioned rounds must engage (WorkerRounds > 0) and
// the fixpoint and fact counts must equal the sequential run's.
func TestParallelPartitionedRoundsSameFixpoint(t *testing.T) {
	prog := parser.MustParseProgram(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- edge(X, Z), tc(Z, Y).
	`)
	edb, _ := workload.RandomGraph("edge", 300, 600, 7)
	seqStore, seq := evalAt(t, prog, edb, Options{}, 1)
	parStore, par := evalAt(t, prog, edb, Options{}, 8)

	if got, want := parStore.String(), seqStore.String(); got != want {
		t.Fatal("parallel fixpoint differs from sequential on the partitioned path")
	}
	if par.NewFacts != seq.NewFacts {
		t.Errorf("NewFacts: parallel %d, sequential %d", par.NewFacts, seq.NewFacts)
	}
	if par.WorkerRounds == 0 {
		t.Errorf("expected partitioned rounds on a %d-fact delta workload (WorkerRounds = 0)", seq.NewFacts)
	}
	if par.ParallelComponents != 1 {
		t.Errorf("ParallelComponents = %d, want 1", par.ParallelComponents)
	}
}

// TestParallelIndependentComponents runs many mutually independent recursive
// components through the scheduler at once.
func TestParallelIndependentComponents(t *testing.T) {
	const k = 8
	src := ""
	edb := database.NewStore()
	for i := 0; i < k; i++ {
		src += fmt.Sprintf("anc%d(X, Y) :- par%d(X, Y).\n", i, i)
		src += fmt.Sprintf("anc%d(X, Y) :- par%d(X, Z), anc%d(Z, Y).\n", i, i, i)
		for j := 0; j < 20; j++ {
			edb.MustAddFact(ast.NewAtom(fmt.Sprintf("par%d", i),
				ast.S(fmt.Sprintf("c%d_n%d", i, j)), ast.S(fmt.Sprintf("c%d_n%d", i, j+1))))
		}
	}
	prog := parser.MustParseProgram(src)
	seqStore, seq := evalAt(t, prog, edb, Options{}, 1)
	parStore, par := evalAt(t, prog, edb, Options{}, 4)
	if got, want := parStore.String(), seqStore.String(); got != want {
		t.Fatal("fixpoints differ across independent components")
	}
	if par.ParallelComponents != k {
		t.Errorf("ParallelComponents = %d, want %d", par.ParallelComponents, k)
	}
	if par.NewFacts != seq.NewFacts || par.Iterations != seq.Iterations {
		t.Errorf("work differs: parallel facts=%d iters=%d, sequential facts=%d iters=%d",
			par.NewFacts, par.Iterations, seq.NewFacts, seq.Iterations)
	}
}

// TestParallelRandomizedDifferential evaluates randomized stratified
// programs (the workload generators' shapes over random graphs) at P=1 and
// P=8 and requires identical stores every time.
func TestParallelRandomizedDifferential(t *testing.T) {
	sgSrc := `
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).
	`
	nestedSrc := `
		p(X, Y) :- b1(X, Y).
		p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).
	`
	tcSrc := `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), tc(Z, Y).
		reach(Y) :- start(X), tc(X, Y).
	`
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		trial := trial
		nodes := 20 + rng.Intn(80)
		edges := nodes + rng.Intn(3*nodes)
		seed := rng.Int()
		t.Run(fmt.Sprintf("tc-%d", trial), func(t *testing.T) {
			prog := parser.MustParseProgram(tcSrc)
			edb, start := workload.RandomGraph("edge", nodes, edges, seed)
			edb.MustAddFact(ast.NewAtom("start", start))
			seqStore, _ := evalAt(t, prog, edb, Options{}, 1)
			parStore, _ := evalAt(t, prog, edb, Options{}, 8)
			if parStore.String() != seqStore.String() {
				t.Errorf("trial %d (nodes=%d edges=%d seed=%d): fixpoints differ", trial, nodes, edges, seed)
			}
		})
	}
	for trial := 0; trial < 3; trial++ {
		leaves := 3 + rng.Intn(5)
		depth := 2 + rng.Intn(3)
		cyclic := rng.Intn(2) == 0
		t.Run(fmt.Sprintf("sg-%d", trial), func(t *testing.T) {
			sg := workload.SameGenerationLayers(leaves, depth, cyclic)
			prog := parser.MustParseProgram(sgSrc)
			seqStore, _ := evalAt(t, prog, sg.Store, Options{}, 1)
			parStore, _ := evalAt(t, prog, sg.Store, Options{}, 8)
			if parStore.String() != seqStore.String() {
				t.Errorf("trial %d (leaves=%d depth=%d cyclic=%v): fixpoints differ", trial, leaves, depth, cyclic)
			}
		})
		t.Run(fmt.Sprintf("nested-sg-%d", trial), func(t *testing.T) {
			sg := workload.NestedSameGeneration(leaves, depth, cyclic)
			prog := parser.MustParseProgram(nestedSrc)
			seqStore, _ := evalAt(t, prog, sg.Store, Options{}, 1)
			parStore, _ := evalAt(t, prog, sg.Store, Options{}, 8)
			if parStore.String() != seqStore.String() {
				t.Errorf("trial %d: fixpoints differ", trial)
			}
		})
	}
}

// TestParallelCancellationPrompt requires cancellation to interrupt a
// divergent evaluation promptly even with many workers and partitioned
// rounds in flight.
func TestParallelCancellationPrompt(t *testing.T) {
	pp, edb := divergentProgram(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	store, stats, err := pp.EvaluateCtx(ctx, edb, nil, Options{Parallelism: 8})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded wrap", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("parallel evaluation returned after %v, want < 500ms", elapsed)
	}
	if store == nil || stats == nil {
		t.Error("partial store and stats must be returned on cancellation")
	}
}

// TestParallelLimitsMatchSequential checks that MaxFacts and MaxDerivations
// trip (or don't) identically at P=1 and P=8.
func TestParallelLimitsMatchSequential(t *testing.T) {
	prog := parser.MustParseProgram(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- edge(X, Z), tc(Z, Y).
	`)
	edb, _ := workload.RandomGraph("edge", 120, 260, 3)
	pp, err := Prepare(prog, edb.Table())
	if err != nil {
		t.Fatal(err)
	}
	_, full, err := pp.EvaluateCtx(context.Background(), edb, nil, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		opts    Options
		wantHit bool
	}{
		{"facts-exceeded", Options{MaxFacts: full.NewFacts / 2}, true},
		{"facts-ok", Options{MaxFacts: full.NewFacts + 1}, false},
		{"derivations-exceeded", Options{MaxDerivations: full.Derivations / 4}, true},
		{"derivations-ok", Options{MaxDerivations: full.Derivations * 2}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []int{1, 8} {
				opts := tc.opts
				opts.Parallelism = p
				_, _, err := pp.EvaluateCtx(context.Background(), edb, nil, opts)
				if hit := errors.Is(err, ErrLimitExceeded); hit != tc.wantHit {
					t.Errorf("parallelism %d: limit hit = %v (err %v), want %v", p, hit, err, tc.wantHit)
				}
			}
		})
	}
}

// TestParallelStopEarly pins the StopEarly contract under parallelism: with
// StopEarlyPred set the parallel scheduler runs and truncates like the
// sequential evaluator; without it the evaluator falls back to sequential
// execution (observable through ParallelComponents == 0) rather than risk
// probing a relation mid-write.
func TestParallelStopEarly(t *testing.T) {
	prog := parser.MustParseProgram(ancestorSrc)
	edb := chainStore(64)
	pp, err := Prepare(prog, edb.Table())
	if err != nil {
		t.Fatal(err)
	}
	query := ast.NewAtom("anc", ast.S("n0"), ast.V("Y"))
	stop := func(s *database.Store) bool { return CountAnswers(s, "anc", query) >= 3 }

	t.Run("owner-gated", func(t *testing.T) {
		store, stats, err := pp.EvaluateCtx(context.Background(), edb, nil, Options{
			Parallelism:   8,
			StopEarly:     stop,
			StopEarlyPred: "anc",
		})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.StoppedEarly {
			t.Error("StoppedEarly not set")
		}
		if stats.ParallelComponents == 0 {
			t.Error("expected the parallel scheduler to run (ParallelComponents == 0)")
		}
		if got := CountAnswers(store, "anc", query); got < 3 {
			t.Errorf("stopped with %d answers, want >= 3", got)
		}
		seqStore, seqStats, err := pp.EvaluateCtx(context.Background(), edb, nil, Options{
			Parallelism:   1,
			StopEarly:     stop,
			StopEarlyPred: "anc",
		})
		if err != nil {
			t.Fatal(err)
		}
		if seqStats.StoppedEarly != stats.StoppedEarly {
			t.Errorf("StoppedEarly: parallel %v, sequential %v", stats.StoppedEarly, seqStats.StoppedEarly)
		}
		if store.String() != seqStore.String() {
			t.Error("truncated stores differ between parallel and sequential")
		}
	})

	t.Run("fallback-without-pred", func(t *testing.T) {
		_, stats, err := pp.EvaluateCtx(context.Background(), edb, nil, Options{
			Parallelism: 8,
			StopEarly:   stop,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.ParallelComponents != 0 {
			t.Errorf("ParallelComponents = %d, want 0 (sequential fallback)", stats.ParallelComponents)
		}
		if !stats.StoppedEarly {
			t.Error("StoppedEarly not set on the fallback path")
		}
	})
}

// TestParallelismIsClamped pins the cap on the worker count. The value comes
// straight from network requests, and every partitioned round costs one
// goroutine and three stores per worker, so at 1<<20 this evaluation would
// not finish: it must instead do exactly the work of a run at the cap.
func TestParallelismIsClamped(t *testing.T) {
	prog := parser.MustParseProgram(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- edge(X, Z), tc(Z, Y).
	`)
	edb, _ := workload.ParentChain("edge", 400)
	seqStore, _ := evalAt(t, prog, edb, Options{}, 1)
	_, capped := evalAt(t, prog, edb, Options{}, maxParallelism)
	hugeStore, huge := evalAt(t, prog, edb, Options{}, 1<<20)
	if hugeStore.FactCount("tc") != 80200 || hugeStore.String() != seqStore.String() {
		t.Errorf("Parallelism 1<<20 derived %d tc facts, Parallelism 1 derived %d", hugeStore.FactCount("tc"), seqStore.FactCount("tc"))
	}
	if capped.WorkerRounds == 0 || huge.WorkerRounds > capped.WorkerRounds {
		t.Errorf("WorkerRounds = %d at Parallelism 1<<20, %d at the cap of %d", huge.WorkerRounds, capped.WorkerRounds, maxParallelism)
	}
}

// TestParallelismOneStartsNoGoroutine pins that at Parallelism 1 — and in the
// StopEarly-without-StopEarlyPred fallback — the calling goroutine runs every
// component itself: rounds far above the partition threshold are not
// partitioned, no pool is reported, and no goroutine exists during the run
// that did not exist before it.
func TestParallelismOneStartsNoGoroutine(t *testing.T) {
	prog := parser.MustParseProgram(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- edge(X, Z), tc(Z, Y).
	`)
	edb, _ := workload.ParentChain("edge", 400)
	before := runtime.NumGoroutine()
	most := before
	probe := func(*database.Store) bool {
		most = max(most, runtime.NumGoroutine())
		return false
	}
	for _, opts := range []Options{
		{Parallelism: 1, StopEarly: probe, StopEarlyPred: "tc"},
		{Parallelism: 8, StopEarly: probe},
	} {
		_, stats := evalAt(t, prog, edb, opts, opts.Parallelism)
		if stats.NewFacts != 80200 || stats.ParallelComponents != 0 || stats.WorkerRounds != 0 {
			t.Errorf("Parallelism %d: NewFacts %d, ParallelComponents %d, WorkerRounds %d; want 80200, 0, 0",
				opts.Parallelism, stats.NewFacts, stats.ParallelComponents, stats.WorkerRounds)
		}
	}
	if most != before {
		t.Errorf("%d goroutines between rounds, %d before the evaluation", most, before)
	}
}
