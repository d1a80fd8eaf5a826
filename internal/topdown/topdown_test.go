package topdown

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/intern"
	"repro/internal/parser"
	"repro/internal/sip"
)

// semiNaive prepares prog for edb's symbol table and evaluates it to fixpoint.
func semiNaive(prog *ast.Program, edb *database.Store, opts eval.Options) (*database.Store, *eval.Stats, error) {
	pp, err := eval.Prepare(prog, edb.Table())
	if err != nil {
		return nil, nil, err
	}
	return pp.EvaluateCtx(context.Background(), edb, nil, opts)
}

const (
	ancestorSrc = `
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`
	nonlinearSameGenSrc = `
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).
	`
	listReverseSrc = `
		append(V, [], [V]) :- elem(V).
		append(V, [W | X], [W | Y]) :- append(V, X, Y).
		reverse([], []) :- emptylist(X).
		reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).
	`
)

func adorned(t *testing.T, src, query string) *adorn.Program {
	t.Helper()
	ad, err := adorn.Adorn(parser.MustParseProgram(src), parser.MustParseQuery(query), sip.FullLeftToRight())
	if err != nil {
		t.Fatal(err)
	}
	return ad
}

func parentChain(n int) *database.Store {
	s := database.NewStore()
	for i := 0; i < n; i++ {
		s.MustAddFact(ast.NewAtom("par", ast.S(fmt.Sprintf("n%d", i)), ast.S(fmt.Sprintf("n%d", i+1))))
	}
	return s
}

func TestAncestorChain(t *testing.T) {
	ad := adorned(t, ancestorSrc, "anc(n3, Y)")
	res, err := Evaluate(ad, parentChain(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 7 {
		t.Errorf("answers = %v, want 7 descendants of n3", res.Answers)
	}
	// Goals: one per node reachable from n3 (n3..n10 generate subqueries,
	// the one for n10 has no par edge but is still asked).
	if res.Stats.Queries != 8 {
		t.Errorf("queries = %d, want 8", res.Stats.Queries)
	}
	if res.Stats.Answers == 0 || res.Stats.Derivations == 0 || res.Stats.Passes == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
	if res.Stats.QueriesByPredicate["anc^bf"] != 8 {
		t.Errorf("queries by predicate = %v", res.Stats.QueriesByPredicate)
	}
}

func TestAgreesWithBottomUpOnCyclicData(t *testing.T) {
	// A cycle: the memo tables must converge and agree with semi-naive
	// evaluation of the unrewritten program.
	edb := database.NewStore()
	for i := 0; i < 5; i++ {
		edb.MustAddFact(ast.NewAtom("par", ast.S(fmt.Sprintf("c%d", i)), ast.S(fmt.Sprintf("c%d", (i+1)%5))))
	}
	ad := adorned(t, ancestorSrc, "anc(c2, Y)")
	res, err := Evaluate(ad, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := semiNaive(parser.MustParseProgram(ancestorSrc), edb, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := eval.AnswerSet(full, "anc", ast.NewAtom("anc", ast.S("c2"), ast.V("Y")))
	got := res.AnswerSet()
	if len(got) != len(want) {
		t.Fatalf("answers %d, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing answer %s", k)
		}
	}
}

func TestSameGenerationGoalsAndFacts(t *testing.T) {
	edb := database.NewStore()
	for i := 1; i <= 4; i++ {
		edb.MustAddFact(ast.NewAtom("up", ast.S(fmt.Sprintf("a%d", i)), ast.S(fmt.Sprintf("p%d", i))))
		edb.MustAddFact(ast.NewAtom("down", ast.S(fmt.Sprintf("p%d", i)), ast.S(fmt.Sprintf("a%d", i))))
		if i < 4 {
			edb.MustAddFact(ast.NewAtom("flat", ast.S(fmt.Sprintf("p%d", i)), ast.S(fmt.Sprintf("p%d", i+1))))
			edb.MustAddFact(ast.NewAtom("flat", ast.S(fmt.Sprintf("a%d", i)), ast.S(fmt.Sprintf("a%d", i+1))))
		}
	}
	ad := adorned(t, nonlinearSameGenSrc, "sg(a1, Y)")
	res, err := Evaluate(ad, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := semiNaive(parser.MustParseProgram(nonlinearSameGenSrc), edb, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := eval.AnswerSet(full, "sg", ast.NewAtom("sg", ast.S("a1"), ast.V("Y")))
	got := res.AnswerSet()
	if len(got) != len(want) {
		t.Fatalf("answers %d, want %d", len(got), len(want))
	}
	// The top-down strategy must not compute the whole sg relation.
	if n := res.Facts().FactCount("sg^bf"); n >= full.FactCount("sg") || n != res.Stats.Answers {
		t.Errorf("top-down computed %d sg facts (Stats.Answers %d), naive computed %d; expected a restriction",
			n, res.Stats.Answers, full.FactCount("sg"))
	}
	// Every goal's predicate is the adorned sg predicate.
	for _, g := range res.Goals {
		if g.Pred != "sg^bf" {
			t.Errorf("unexpected goal %s", g)
		}
	}
}

func TestListReverseTopDown(t *testing.T) {
	edb := database.NewStore()
	for _, e := range []string{"a", "b", "c"} {
		edb.MustAddFact(ast.NewAtom("elem", ast.S(e)))
	}
	edb.MustAddFact(ast.NewAtom("emptylist", ast.S("nil")))
	ad := adorned(t, listReverseSrc, "reverse([a, b, c], Y)")
	res, err := Evaluate(ad, edb, Options{MaxPasses: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0][0].String() != "[c, b, a]" {
		t.Errorf("answers = %v, want [[c, b, a]]", res.Answers)
	}
	// Goals: reverse on each suffix (4) plus append on each recursive step.
	if res.Stats.QueriesByPredicate["reverse^bf"] != 4 {
		t.Errorf("reverse goals = %d, want 4", res.Stats.QueriesByPredicate["reverse^bf"])
	}
	if res.Stats.QueriesByPredicate["append^bbf"] == 0 {
		t.Error("expected append^bbf goals")
	}
}

func TestGoalKeyAndString(t *testing.T) {
	g := Goal{Pred: "anc^bf", Bound: []ast.Term{ast.S("john")}}
	if g.String() != "anc^bf(john)" {
		t.Errorf("String = %s", g.String())
	}
	keys := intern.NewTable()
	other := Goal{Pred: "anc^bf", Bound: []ast.Term{ast.S("johnny")}}
	if g.Key(keys) == other.Key(keys) {
		t.Error("distinct goals must have distinct keys")
	}
}

// TestGoalKeysScopedToEvaluation checks that memoizing a query's constants
// interns into the evaluation's own symbol table: the database's table must
// not grow, so a long-lived server running the top-down strategy does not
// leak one table entry per distinct constant ever queried.
func TestGoalKeysScopedToEvaluation(t *testing.T) {
	ad := adorned(t, ancestorSrc, "anc(n0, Y)")
	edb := parentChain(30)
	before := edb.Table().Len()
	res, err := Evaluate(ad, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("expected answers")
	}
	if _, err := Evaluate(adorned(t, ancestorSrc, "anc(stranger, Y)"), edb, Options{}); err != nil {
		t.Fatal(err)
	}
	if after := edb.Table().Len(); after != before {
		t.Errorf("database intern table grew from %d to %d entries during top-down evaluations", before, after)
	}
	// The result can still probe its own goal set.
	g := Goal{Pred: ad.QueryPred, Bound: ad.Query.BoundConstants()}
	if _, ok := res.Goals[res.GoalKey(g)]; !ok {
		t.Error("query goal not found under its own evaluation key")
	}
}

// TestMaxDerivationsAndMemoLimits exercises the limits added for the facade
// mapping: MaxDerivations bounds rule-body instantiations, MaxMemo the
// combined goal + answer memo size.
func TestMaxDerivationsAndMemoLimits(t *testing.T) {
	ad := adorned(t, ancestorSrc, "anc(n0, Y)")
	_, err := Evaluate(ad, parentChain(50), Options{MaxDerivations: 10})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("expected ErrLimitExceeded with MaxDerivations, got %v", err)
	}
	_, err = Evaluate(ad, parentChain(50), Options{MaxMemo: 8})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("expected ErrLimitExceeded with MaxMemo, got %v", err)
	}
	if _, err := Evaluate(ad, parentChain(5), Options{MaxDerivations: 100000, MaxMemo: 100000}); err != nil {
		t.Errorf("generous limits must not trip, got %v", err)
	}
}

func TestLimits(t *testing.T) {
	ad := adorned(t, ancestorSrc, "anc(n0, Y)")
	_, err := Evaluate(ad, parentChain(50), Options{MaxGoals: 5})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("expected ErrLimitExceeded with MaxGoals, got %v", err)
	}
	_, err = Evaluate(ad, parentChain(50), Options{MaxAnswers: 10})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("expected ErrLimitExceeded with MaxAnswers, got %v", err)
	}
	// On cyclic data the memo tables need several passes to converge, so a
	// one-pass limit must trip (a linear chain converges during the eager
	// recursive descent of the very first pass).
	cyclic := database.NewStore()
	for i := 0; i < 6; i++ {
		cyclic.MustAddFact(ast.NewAtom("par", ast.S(fmt.Sprintf("c%d", i)), ast.S(fmt.Sprintf("c%d", (i+1)%6))))
	}
	adCyclic := adorned(t, ancestorSrc, "anc(c0, Y)")
	_, err = Evaluate(adCyclic, cyclic, Options{MaxPasses: 1})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("expected ErrLimitExceeded with MaxPasses, got %v", err)
	}
}

func TestEmptyProgramRejected(t *testing.T) {
	if _, err := Evaluate(nil, database.NewStore(), Options{}); err == nil {
		t.Error("nil adorned program must be rejected")
	}
	if _, err := Evaluate(&adorn.Program{}, database.NewStore(), Options{}); err == nil {
		t.Error("empty adorned program must be rejected")
	}
}

func TestQueryWithNoMatchingFacts(t *testing.T) {
	ad := adorned(t, ancestorSrc, "anc(zz, Y)")
	res, err := Evaluate(ad, parentChain(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Errorf("expected no answers, got %v", res.Answers)
	}
	if res.Stats.Queries != 1 {
		t.Errorf("expected only the original goal, got %d", res.Stats.Queries)
	}
}

func TestFirstNShortCircuits(t *testing.T) {
	ad := adorned(t, ancestorSrc, "anc(n0, Y)")
	edb := parentChain(40)
	full, err := Evaluate(ad, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(ad, edb, Options{FirstN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(res.Answers))
	}
	if !res.Stats.StoppedEarly {
		t.Error("StoppedEarly = false")
	}
	if full.Stats.StoppedEarly {
		t.Error("full run reports StoppedEarly")
	}
	if res.Stats.Derivations >= full.Stats.Derivations {
		t.Errorf("FirstN run performed %d derivations, full run %d; expected a short-circuit",
			res.Stats.Derivations, full.Stats.Derivations)
	}
	// The truncated answers are sound: each occurs in the full answer set.
	want := full.AnswerSet()
	for _, a := range res.Answers {
		if !want[a.Key()] {
			t.Errorf("truncated answer %s not in the full answer set", a)
		}
	}
	// FirstN larger than the answer set behaves like a full run.
	all, err := Evaluate(ad, edb, Options{FirstN: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Answers) != len(full.Answers) || all.Stats.StoppedEarly {
		t.Errorf("FirstN=1000: %d answers (stopped early %v), want %d",
			len(all.Answers), all.Stats.StoppedEarly, len(full.Answers))
	}
}

func TestEvaluateCtxCancellation(t *testing.T) {
	ad := adorned(t, ancestorSrc, "anc(n0, Y)")
	edb := parentChain(30)

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvaluateCtx(pre, ad, edb, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled wrap", err)
	}

	ctx, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	// A large cyclic graph keeps the evaluator busy across passes so the
	// deadline fires mid-evaluation rather than before it.
	big := database.NewStore()
	for i := 0; i < 400; i++ {
		for d := 1; d <= 3; d++ {
			big.MustAddFact(ast.NewAtom("par",
				ast.S(fmt.Sprintf("c%d", i)), ast.S(fmt.Sprintf("c%d", (i+d)%400))))
		}
	}
	start := time.Now()
	_, err := EvaluateCtx(ctx, adorned(t, ancestorSrc, "anc(c0, Y)"), big, Options{})
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want nil or context.DeadlineExceeded wrap", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("evaluation returned after %v, want prompt interruption", elapsed)
	}
}
