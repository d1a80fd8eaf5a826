package datalog

import "testing"

// TestEvaluationStatsExposed checks the facade surfaces the scheduler and
// index statistics of the bottom-up evaluator: strata counts for both the
// unrewritten and the rewritten program, and index probe/hit counters.
func TestEvaluationStatsExposed(t *testing.T) {
	fx := newFixture(t, `
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`)
	if err := fx.db.AssertText(`par(a, b). par(b, c). par(c, d).`); err != nil {
		t.Fatal(err)
	}

	direct, err := fx.snap().Query("anc(a, Y)", Options{Strategy: SemiNaive})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Stats.Strata != 1 {
		t.Errorf("semi-naive strata = %d, want 1", direct.Stats.Strata)
	}
	if direct.Stats.IndexProbes == 0 {
		t.Error("semi-naive reported no index probes")
	}

	magic, err := fx.snap().Query("anc(a, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	// The magic program has at least the magic predicate and the adorned
	// answer predicate in separate components.
	if magic.Stats.Strata < 2 {
		t.Errorf("magic strata = %d, want at least 2", magic.Stats.Strata)
	}
	if magic.Stats.IndexProbes == 0 || magic.Stats.IndexHits == 0 {
		t.Errorf("magic index stats = %d probes / %d hits, want both positive",
			magic.Stats.IndexProbes, magic.Stats.IndexHits)
	}
	if len(magic.Answers) != 3 {
		t.Errorf("answers = %d, want 3", len(magic.Answers))
	}

	// Theorem 9.1: under the same sip, magic evaluation computes exactly the
	// subqueries (magic facts) and answers (adorned derived facts) of the
	// top-down oracle.
	td, err := topDown(fx.snap(), "anc(a, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if magic.Stats.AuxFacts != td.Stats.Queries || magic.Stats.DerivedFacts != td.Stats.Answers {
		t.Errorf("magic facts %d aux / %d derived, top-down %d subqueries / %d answers",
			magic.Stats.AuxFacts, magic.Stats.DerivedFacts, td.Stats.Queries, td.Stats.Answers)
	}
}
