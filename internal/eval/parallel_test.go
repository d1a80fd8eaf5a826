package eval

// Tests for the hash-partitioned delta rounds of the semi-naive evaluator:
// they must compute exactly the sequential fixpoint (Store.String is a
// sorted rendering, so string equality is order-independent set equality),
// evaluations whose rounds stay below the partition threshold must report
// the Stats of a Parallelism 1 run, no goroutine may outlive a round, and
// cancellation, limits and StopEarly must keep their sequential semantics.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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

// sameStats requires the Stats of a run at some Parallelism to equal the
// Parallelism 1 run's, field for field.
func sameStats(t *testing.T, par, seq *Stats) {
	t.Helper()
	if !reflect.DeepEqual(par, seq) {
		t.Errorf("stats differ from the Parallelism 1 run\nparallel:   %+v\nsequential: %+v", *par, *seq)
	}
}

// TestParallelStatsMatchSequential pins the exact-statistics contract for
// evaluations whose rounds stay below the partition threshold: no round is
// partitioned, so the calling goroutine does precisely the sequential work
// and every counter matches the Parallelism=1 run exactly.
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
	if par.WorkerRounds != 0 {
		t.Errorf("below-threshold rounds reported WorkerRounds = %d, want 0", par.WorkerRounds)
	}
	sameStats(t, par, seq)
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
}

// TestParallelIndependentComponents runs many mutually independent recursive
// components, all below the partition threshold: they run one after another
// at every Parallelism, with the work of the Parallelism 1 run.
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
	if par.Strata != k {
		t.Errorf("Strata = %d, want %d", par.Strata, k)
	}
	sameStats(t, par, seq)
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
// divergent evaluation promptly even with many shards and partitioned
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

// TestParallelStopEarly pins the StopEarly contract under parallelism: the
// callback runs between rounds on the calling goroutine at every
// Parallelism, so a truncated run stops where the Parallelism 1 run stops,
// with the same store — on the 64-chain, whose rounds run inline, and on a
// transitive closure whose rounds are partitioned before the stop.
func TestParallelStopEarly(t *testing.T) {
	tcProg := parser.MustParseProgram(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- edge(X, Z), tc(Z, Y).
	`)
	tcEDB, _ := workload.ParentChain("edge", 400)
	for _, tc := range []struct {
		prog       *ast.Program
		edb        *database.Store
		query      ast.Atom
		n          int
		partitions bool
	}{
		{parser.MustParseProgram(ancestorSrc), chainStore(64), ast.NewAtom("anc", ast.S("n0"), ast.V("Y")), 3, false},
		{tcProg, tcEDB, ast.NewAtom("tc", ast.V("X"), ast.V("Y")), 20000, true},
	} {
		query := tc.query
		stop := func(s *database.Store) bool { return CountAnswers(s, query.PredKey(), query) >= tc.n }
		seqStore, seq := evalAt(t, tc.prog, tc.edb, Options{StopEarly: stop}, 1)
		parStore, par := evalAt(t, tc.prog, tc.edb, Options{StopEarly: stop}, 8)
		if !seq.StoppedEarly || !par.StoppedEarly {
			t.Errorf("%s: StoppedEarly: parallel %v, sequential %v; want both", query, par.StoppedEarly, seq.StoppedEarly)
		}
		if got := CountAnswers(parStore, query.PredKey(), query); got < tc.n {
			t.Errorf("%s: stopped with %d answers, want >= %d", query, got, tc.n)
		}
		if parStore.String() != seqStore.String() {
			t.Errorf("%s: truncated stores differ between Parallelism 8 and 1", query)
		}
		if par.Iterations != seq.Iterations {
			t.Errorf("%s: stopped after %d rounds at Parallelism 8, %d at 1", query, par.Iterations, seq.Iterations)
		}
		if (par.WorkerRounds > 0) != tc.partitions {
			t.Errorf("%s: WorkerRounds = %d, partitioned rounds expected: %v", query, par.WorkerRounds, tc.partitions)
		}
	}
}

// TestParallelismIsClamped pins the cap on the shard count. The value comes
// straight from network requests, and every partitioned round costs one
// goroutine and three stores per shard, so at 1<<20 this evaluation would
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

// settledGoroutines returns runtime.NumGoroutine once it is at most want,
// or what it still is after a grace period. A shard goroutine signals the
// round barrier from a deferred call, so it may still be counted for an
// instant after the barrier has passed; one that really outlives its round
// is still counted when the grace period ends.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestNoGoroutineOutlivesARound pins that the calling goroutine runs every
// component and that the only goroutines an evaluation starts, the shards
// of a partitioned round, are joined at the round barrier: StopEarly, which
// runs between rounds, never sees a goroutine that did not exist before the
// evaluation. At Parallelism 8 the rounds of the 400-chain closure are
// partitioned, StopEarly callback and all, and at Parallelism 1 none is.
func TestNoGoroutineOutlivesARound(t *testing.T) {
	prog := parser.MustParseProgram(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- edge(X, Z), tc(Z, Y).
	`)
	edb, _ := workload.ParentChain("edge", 400)
	// A goroutine left over from an earlier test may exit during the run, so
	// only a count above the one before the evaluation is a failure.
	before := runtime.NumGoroutine()
	most := 0
	probe := func(*database.Store) bool {
		if most <= before {
			most = max(most, settledGoroutines(before))
		}
		return false
	}
	for _, p := range []int{1, 8} {
		_, stats := evalAt(t, prog, edb, Options{StopEarly: probe}, p)
		if stats.NewFacts != 80200 || (stats.WorkerRounds > 0) != (p > 1) {
			t.Errorf("Parallelism %d: NewFacts %d, WorkerRounds %d; want 80200 and partitioned rounds only above 1",
				p, stats.NewFacts, stats.WorkerRounds)
		}
	}
	if most > before {
		t.Errorf("%d goroutines between rounds, %d before the evaluation", most, before)
	}
}
