package datalog

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestPreparedDifferential proves PreparedQuery.Run returns the same answer
// sets and fact counts as a cold one-shot Snapshot.Query, for every strategy,
// sip policy and a range of bound constants. The one-shot reference runs on
// a freshly compiled program each time so its form cache is guaranteed cold.
// The top-down subtests hold prepared magic runs to the top-down oracle on
// the program adorned under the same sip.
func TestPreparedDifferential(t *testing.T) {
	const n = 40
	constants := []string{"n0", "n10", "n25", "n39", "nowhere"}
	variants := []Options{
		{Strategy: SemiNaive},
		{Strategy: MagicSets},
		{Strategy: MagicSets, Sip: SipPartial},
		{Strategy: MagicSets, Sip: SipGreedy},
		{Strategy: MagicSets, Simplify: true},
		{Strategy: MagicSets, KeepAllGuards: true},
		{Strategy: SupplementaryMagicSets},
		{Strategy: Counting},
		{Strategy: Counting, Semijoin: true},
		{Strategy: SupplementaryCounting},
		{Strategy: SupplementaryCounting, Semijoin: true},
	}
	fx := chainFixture(t, n)
	for _, opts := range variants {
		name := fmt.Sprintf("%s/%s", opts.Strategy, opts.Sip)
		t.Run(name, func(t *testing.T) {
			pq, err := fx.snap().Prepare("anc(n5, Y)", opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range constants {
				got, err := pq.Run(c)
				if err != nil {
					t.Fatalf("Run(%s): %v", c, err)
				}
				ref := chainFixture(t, n)
				want, err := ref.snap().Query(fmt.Sprintf("anc(%s, Y)", c), opts)
				if err != nil {
					t.Fatalf("one-shot Query(%s): %v", c, err)
				}
				if want.Stats.PlanCacheHit {
					t.Fatal("cold one-shot reference unexpectedly hit a plan cache")
				}
				gotSet, wantSet := got.AnswerSet(), want.AnswerSet()
				if len(gotSet) != len(wantSet) {
					t.Fatalf("Run(%s): %d answers, one-shot %d", c, len(gotSet), len(wantSet))
				}
				for a := range wantSet {
					if !gotSet[a] {
						t.Fatalf("Run(%s): missing answer %s", c, a)
					}
				}
				if got.Stats.DerivedFacts != want.Stats.DerivedFacts ||
					got.Stats.AuxFacts != want.Stats.AuxFacts {
					t.Fatalf("Run(%s): facts %d/%d, one-shot %d/%d", c,
						got.Stats.DerivedFacts, got.Stats.AuxFacts,
						want.Stats.DerivedFacts, want.Stats.AuxFacts)
				}
			}
		})
	}
	for _, sp := range []SipPolicy{"", SipPartial} {
		t.Run("top-down/"+string(sp), func(t *testing.T) {
			opts := Options{Strategy: MagicSets, Sip: sp}
			pq, err := fx.snap().Prepare("anc(n5, Y)", opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range constants {
				got, err := pq.Run(c)
				if err != nil {
					t.Fatalf("Run(%s): %v", c, err)
				}
				want, err := topDownAnswers(fx.snap(), fmt.Sprintf("anc(%s, Y)", c), opts)
				if err != nil {
					t.Fatalf("top-down(%s): %v", c, err)
				}
				if !reflect.DeepEqual(got.AnswerSet(), want) {
					t.Fatalf("Run(%s) = %v, top-down %v", c, got.AnswerSet(), want)
				}
			}
		})
	}
}

// TestPreparedCompileOnce asserts the acceptance criterion of the serving
// layer: preparing once and running the point query many times with varying
// constants performs the adorn/rewrite work exactly once and the pipeline
// compile work a bounded number of times. A full-store pass is led by its
// smallest relation, so a constant that changes which relation that is can
// compile one more variant of a rule; the set of variants is finite (one per
// leading literal and store side), and once it is warm — observed by sweeping
// the same constants again — CompiledPlans is 0 on every run while
// RewrittenRules still reports the (cached) rewritten program.
func TestPreparedCompileOnce(t *testing.T) {
	fx := chainFixture(t, 120)
	pq, err := fx.snap().Prepare("anc(n100, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	first, err := pq.Run()
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CompiledPlans == 0 {
		t.Fatal("first run compiled no plans")
	}
	if first.Stats.RewrittenRules == 0 {
		t.Fatal("first run reports no rewritten rules")
	}
	compiled := first.Stats.CompiledPlans
	for sweep := 0; sweep < 2; sweep++ {
		for i := 0; i < 100; i++ {
			res, err := pq.Run(fmt.Sprintf("n%d", i))
			if err != nil {
				t.Fatal(err)
			}
			compiled += res.Stats.CompiledPlans
			if sweep == 1 && res.Stats.CompiledPlans != 0 {
				t.Fatalf("run %d of the repeat sweep compiled %d plans; want 0 (compile must be amortized)", i, res.Stats.CompiledPlans)
			}
			if res.Stats.RewrittenRules != first.Stats.RewrittenRules {
				t.Fatalf("run %d reports %d rewritten rules, want %d", i, res.Stats.RewrittenRules, first.Stats.RewrittenRules)
			}
			if !res.Stats.PlanCacheHit {
				t.Fatalf("run %d not marked as a plan-cache hit", i)
			}
			if want := 120 - i; len(res.Answers) != want {
				t.Fatalf("run %d: %d answers, want %d", i, len(res.Answers), want)
			}
		}
	}
	// The rewritten ancestor rules have at most three body literals.
	if max := first.Stats.RewrittenRules * 2 * 3; compiled > max {
		t.Errorf("%d plans compiled over 201 runs; want at most %d (two per body literal)", compiled, max)
	}
}

// TestQueryFormCache checks Snapshot.Query transparently reuses preparations
// across calls (and snapshots) that differ only in their constants.
func TestQueryFormCache(t *testing.T) {
	fx := chainFixture(t, 30)
	cold, err := fx.snap().Query("anc(n10, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.PlanCacheHit || cold.Stats.CompiledPlans == 0 {
		t.Fatalf("cold query: hit=%v compiled=%d, want a miss that compiles", cold.Stats.PlanCacheHit, cold.Stats.CompiledPlans)
	}
	warm, err := fx.snap().Query("anc(n20, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.PlanCacheHit || warm.Stats.CompiledPlans != 0 {
		t.Fatalf("warm query: hit=%v compiled=%d, want a hit with 0 compiles", warm.Stats.PlanCacheHit, warm.Stats.CompiledPlans)
	}
	if len(warm.Answers) != 10 {
		t.Fatalf("warm query answers = %d, want 10", len(warm.Answers))
	}
	// A different binding pattern is a different form.
	other, err := fx.snap().Query("anc(X, n20)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	if other.Stats.PlanCacheHit {
		t.Fatal("different binding pattern must not hit the cache")
	}
}

// TestPreparedRunArguments exercises the argument checking of Run.
func TestPreparedRunArguments(t *testing.T) {
	fx := chainFixture(t, 5)
	pq, err := fx.snap().Prepare("anc(n0, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Run("n0", "n1"); err == nil {
		t.Error("expected an arity error for too many arguments")
	}
	if _, err := pq.Run(3.14); err == nil {
		t.Error("expected a type error for a float argument")
	}
	res, err := pq.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 5 {
		t.Errorf("zero-arg Run answers = %d, want 5", len(res.Answers))
	}
	// Integer constants are converted like Database.Assert.
	num := newFixture(t, `succ(X, Y) :- next(X, Y).`)
	if err := num.db.Assert("next", 1, 2); err != nil {
		t.Fatal(err)
	}
	npq, err := num.snap().Prepare("succ(1, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	nres, err := npq.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nres.Answers) != 1 || nres.Answers[0].Vals[0].String() != "2" {
		t.Errorf("succ(1, Y) = %v", nres.Answers)
	}
}

// TestPrepareSharedFormKeepsOwnConstants pins a bug the first cut had: two
// Prepare calls of the same form share the compiled artifacts but must each
// keep their own constants and runtime limits.
func TestPrepareSharedFormKeepsOwnConstants(t *testing.T) {
	fx := chainFixture(t, 10)
	pq1, err := fx.snap().Prepare("anc(n1, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq1.Run(); err != nil {
		t.Fatal(err)
	}
	pq2, err := fx.snap().Prepare("anc(n7, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 {
		t.Fatalf("anc(n7, Y) through a shared form = %d answers, want 3", len(res.Answers))
	}
	// Runtime limits belong to the handle, not the cached form.
	limited, err := fx.snap().Prepare("anc(n1, Y)", Options{Strategy: MagicSets, MaxDerivations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := limited.Run(); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("expected ErrLimitExceeded from the limited handle, got %v", err)
	}
	if _, err := pq1.Run(); err != nil {
		t.Fatalf("unlimited handle of the same form must stay unlimited, got %v", err)
	}
}

// TestPreparedFormSurvivesCommit: a handle reads the snapshot it was
// prepared on, forever; the compiled form is not tied to that version. The
// same form prepared on the next version's snapshot is a cache hit that
// compiles nothing and sees the new facts.
func TestPreparedFormSurvivesCommit(t *testing.T) {
	fx := chainFixture(t, 3)
	pq, err := fx.snap().Prepare("anc(n0, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 {
		t.Fatalf("answers before assert = %d, want 3", len(res.Answers))
	}
	if err := fx.db.Assert("par", "n3", "n4"); err != nil {
		t.Fatal(err)
	}
	if res, err = pq.Run(); err != nil || len(res.Answers) != 3 {
		t.Fatalf("handle of the pinned version after the commit: %d answers, err %v; want 3", len(res.Answers), err)
	}
	next, err := fx.snap().Prepare("anc(n0, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	res, err = next.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 4 {
		t.Fatalf("answers on the next version = %d, want 4", len(res.Answers))
	}
	if !res.Stats.PlanCacheHit || res.Stats.CompiledPlans != 0 {
		t.Fatalf("next version's run: hit=%v compiled=%d, want the cached form with 0 compiles",
			res.Stats.PlanCacheHit, res.Stats.CompiledPlans)
	}
}

// TestConcurrentQueriesAndAsserts hammers one database from many goroutines
// — prepared runs (a handle pinned before the writes, and the form prepared
// again on a fresh snapshot per round), one-shot queries across strategies,
// and interleaved asserts — and checks every result is consistent with some
// state the chain passed through, the pinned handle with exactly the state
// it pinned. Run under -race this is the concurrency safety test for the
// serving layer.
func TestConcurrentQueriesAndAsserts(t *testing.T) {
	const (
		initial = 30
		extra   = 20
		workers = 4
		rounds  = 25
	)
	fx := chainFixture(t, initial)
	pq, err := fx.snap().Prepare("anc(n0, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	strategies := []Options{
		{Strategy: MagicSets},
		{Strategy: SupplementaryMagicSets},
		{Strategy: SemiNaive},
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds+extra)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var res *Result
				var err error
				if w%2 == 0 {
					if res, err = pq.Run(); err == nil && len(res.Answers) != initial {
						err = fmt.Errorf("pinned handle: answers = %d, want exactly %d", len(res.Answers), initial)
					}
					var fresh *PreparedQuery
					if err == nil {
						fresh, err = fx.snap().Prepare("anc(n0, Y)", Options{Strategy: MagicSets})
					}
					if err == nil {
						res, err = fresh.Run()
					}
				} else {
					res, err = fx.snap().Query("anc(n0, Y)", strategies[(w+i)%len(strategies)])
				}
				if err != nil {
					errs <- err
					return
				}
				if n := len(res.Answers); n < initial || n > initial+extra {
					errs <- fmt.Errorf("answers = %d, want between %d and %d", n, initial, initial+extra)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < extra; i++ {
			if err := fx.db.Assert("par", fmt.Sprintf("n%d", initial+i), fmt.Sprintf("n%d", initial+i+1)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// After the dust settles every strategy and the top-down oracle agree
	// on the final chain.
	for _, opts := range strategies {
		res, err := fx.snap().Query("anc(n0, Y)", opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) != initial+extra {
			t.Fatalf("%s: final answers = %d, want %d", opts.Strategy, len(res.Answers), initial+extra)
		}
	}
	if td, err := topDownAnswers(fx.snap(), "anc(n0, Y)", Options{}); err != nil || len(td) != initial+extra {
		t.Fatalf("top-down oracle: final answers = %d (err %v), want %d", len(td), err, initial+extra)
	}
}
