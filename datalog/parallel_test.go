package datalog

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// randomGraphFacts renders a deterministic pseudo-random edge set over
// nodes n0..n{nodes-1} using a small LCG, so the differential tests get a
// transitive closure large enough to push the parallel evaluator into its
// hash-partitioned delta rounds without any test-order dependence.
func randomGraphFacts(nodes, edges int, seed uint64) string {
	s := ""
	state := seed
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for i := 0; i < edges; i++ {
		from := next() % uint64(nodes)
		to := next() % uint64(nodes)
		s += fmt.Sprintf("par(n%d, n%d). ", from, to)
	}
	return s
}

// TestParallelStrategiesDifferential runs every strategy at Parallelism 1
// and Parallelism 8 and requires identical answer sets: parallelism is a
// run-time scheduling choice and must never change the fixpoint, whichever
// rewriting produced the evaluated program.
func TestParallelStrategiesDifferential(t *testing.T) {
	fx := chainFixture(t, 12)
	for _, strat := range Strategies() {
		seq, err := fx.snap().Query("anc(n4, Y)", Options{Strategy: strat, MaxIterations: 500, Parallelism: 1})
		if err != nil {
			t.Fatalf("%s sequential: %v", strat, err)
		}
		par, err := fx.snap().Query("anc(n4, Y)", Options{Strategy: strat, MaxIterations: 500, Parallelism: 8})
		if err != nil {
			t.Fatalf("%s parallel: %v", strat, err)
		}
		if !reflect.DeepEqual(seq.AnswerSet(), par.AnswerSet()) {
			t.Errorf("%s: answers differ between Parallelism 1 and 8:\n seq: %v\n par: %v",
				strat, seq.AnswerSet(), par.AnswerSet())
		}
		if seq.Stats.WorkerRounds != 0 {
			t.Errorf("%s: sequential run reports %d shard rounds", strat, seq.Stats.WorkerRounds)
		}
	}
}

// TestParallelFirstNStopsEarly pins that the FirstN cutoff behaves
// identically under parallel evaluation: the run stops early, yields
// exactly N answers, and reports StoppedEarly just like the sequential run.
func TestParallelFirstNStopsEarly(t *testing.T) {
	fx := chainFixture(t, 30)
	for _, strat := range []Strategy{MagicSets, SemiNaive} {
		for _, p := range []int{1, 8} {
			res, err := fx.snap().Query("anc(n0, Y)", Options{Strategy: strat, FirstN: 3, Parallelism: p})
			if err != nil {
				t.Fatalf("%s P=%d: %v", strat, p, err)
			}
			if len(res.Answers) < 3 {
				t.Errorf("%s P=%d: %d answers, want at least 3", strat, p, len(res.Answers))
			}
			if !res.Stats.StoppedEarly {
				t.Errorf("%s P=%d: StoppedEarly not set", strat, p)
			}
		}
	}
}

// TestParallelShardRoundsAtFacade drives a transitive closure big enough
// for the evaluator to leave the exact-sequential small-delta path, and
// checks the facade surfaces the shard-round counter while the answers stay
// identical to the sequential run.
func TestParallelShardRoundsAtFacade(t *testing.T) {
	fx := newFixture(t, ancestorProgram)
	if err := fx.db.AssertText(randomGraphFacts(150, 300, 11)); err != nil {
		t.Fatal(err)
	}
	seq, err := fx.snap().Query("anc(X, Y)", Options{Strategy: SemiNaive, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := fx.snap().Query("anc(X, Y)", Options{Strategy: SemiNaive, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.AnswerSet(), par.AnswerSet()) {
		t.Fatalf("answer sets differ: %d sequential vs %d parallel answers",
			len(seq.Answers), len(par.Answers))
	}
	if par.Stats.WorkerRounds == 0 {
		t.Error("parallel run reports no partitioned shard rounds; transitive closure too small?")
	}
	if seq.Stats.WorkerRounds != 0 {
		t.Errorf("sequential run reports %d shard rounds", seq.Stats.WorkerRounds)
	}
}

// TestParallelEvaluationUnderRace is the -race stress test of the facade:
// fixpoint evaluations (partitioned shard rounds inside) run
// concurrently over shared snapshots while transactions commit, with two
// programs bound to the one database. The snapshot goroutines verify the
// parallel evaluator never observes a concurrent commit; the prepared
// runner verifies every handle answers under the program its snapshot
// bound, whichever program the neighbouring goroutines run.
func TestParallelEvaluationUnderRace(t *testing.T) {
	prog1, err := Compile(ancRules)
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := Compile(`anc(X, Y) :- par(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := db.AssertText(chainFacts(0, 20)); err != nil {
		t.Fatal(err)
	}

	const (
		commits      = 40
		snapQueries  = 15
		freshQueries = 15
		preparedRuns = 15
	)
	popts := Options{Strategy: MagicSets, Parallelism: 4}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	report := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Committer: grows the chain one transaction at a time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			txn := db.Begin()
			if err := txn.Assert("par", fmt.Sprintf("n%d", 20+i), fmt.Sprintf("n%d", 21+i)); err != nil {
				report("txn assert: %v", err)
				return
			}
			if err := txn.Commit(); err != nil {
				report("txn commit: %v", err)
				return
			}
		}
	}()

	// Snapshot readers: two parallel strategies answer over the same pinned
	// version; both must match the pinned fact count exactly.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < snapQueries; i++ {
				snap := db.Snapshot().With(prog1)
				want := snap.FactCount("par")
				r1, err := snap.Query("anc(n0, Y)", popts)
				if err != nil {
					report("snap query 1: %v", err)
					return
				}
				r2, err := snap.Query("anc(n0, Y)", Options{Strategy: SemiNaive, Parallelism: 4})
				if err != nil {
					report("snap query 2: %v", err)
					return
				}
				if len(r1.Answers) != want || len(r2.Answers) != want {
					report("snapshot v%d observed a concurrent commit: %d, %d answers, want %d",
						snap.Version(), len(r1.Answers), len(r2.Answers), want)
					return
				}
			}
		}()
	}

	// One-shot readers on a fresh snapshot per query, alternating between
	// the two programs; only evaluation errors are failures.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < freshQueries; i++ {
			prog := []*Program{prog1, prog2}[i%2]
			if _, err := db.Snapshot().With(prog).Query("anc(n0, Y)", popts); err != nil {
				report("fresh-snapshot query: %v", err)
				return
			}
		}
	}()

	// Prepared runner: every run answers with the shape of the program its
	// snapshot bound, over exactly the facts it pinned.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < preparedRuns; i++ {
			prog := []*Program{prog2, prog1}[i%2]
			snap := db.Snapshot().With(prog)
			want := snap.FactCount("par")
			if prog == prog2 {
				want = 1 // the non-transitive program: par(n0, n1) only
			}
			pq, err := snap.Prepare("anc(n0, Y)", popts)
			if err != nil {
				report("prepare: %v", err)
				return
			}
			res, err := pq.Run()
			if err != nil {
				report("prepared run: %v", err)
				return
			}
			if len(res.Answers) != want {
				report("prepared run under program v%d at v%d: %d answers, want %d",
					prog.Version(), snap.Version(), len(res.Answers), want)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
