package datalog

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ast"
)

const ancestorProgram = `
	anc(X, Y) :- par(X, Y).
	anc(X, Y) :- par(X, Z), anc(Z, Y).
`

func chainFixture(t *testing.T, n int) fixture {
	t.Helper()
	fx := newFixture(t, ancestorProgram)
	for i := 0; i < n; i++ {
		if err := fx.db.Assert("par", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return fx
}

func TestQuickstartFlow(t *testing.T) {
	fx := newFixture(t, ancestorProgram)
	if err := fx.db.AssertText("par(john, mary). par(mary, sue). par(sue, kim)."); err != nil {
		t.Fatal(err)
	}
	res, err := fx.snap().Query("anc(john, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 {
		t.Fatalf("answers = %v, want mary, sue, kim", res.Answers)
	}
	set := res.AnswerSet()
	for _, want := range []string{"(mary)", "(sue)", "(kim)"} {
		if !set[want] {
			t.Errorf("missing answer %s in %v", want, set)
		}
	}
	if res.Stats.Strategy != MagicSets || res.Stats.RewrittenRules == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if !strings.Contains(res.RewrittenProgram, "magic_anc") {
		t.Errorf("rewritten program missing magic predicate:\n%s", res.RewrittenProgram)
	}
	if len(res.Seeds) != 1 || res.Seeds[0] != "magic_anc^bf(john)" {
		t.Errorf("seeds = %v", res.Seeds)
	}
	if res.Safety == nil || !res.Safety.MagicSafe || !res.Safety.IsDatalog {
		t.Errorf("safety report = %+v", res.Safety)
	}
}

func TestAllStrategiesAgree(t *testing.T) {
	fx := chainFixture(t, 12)
	var want map[string]bool
	for _, strat := range Strategies() {
		res, err := fx.snap().Query("anc(n4, Y)", Options{Strategy: strat, MaxIterations: 500})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		got := res.AnswerSet()
		if len(got) != 8 {
			t.Fatalf("%s: %d answers, want 8", strat, len(got))
		}
		if want == nil {
			want = got
			continue
		}
		for k := range want {
			if !got[k] {
				t.Errorf("%s: missing answer %s", strat, k)
			}
		}
	}
}

// TestMagicConstantBoundLiterals covers derived body literals bound only by
// constants, which no sip arc enters (r(n0, Y) below), and zero-arity query
// predicates, whose answer relation has no adornment suffix. Both magic
// rewritings used to answer nothing for them, and top-down looked up a
// query key ("hit^") that no rule defines.
func TestMagicConstantBoundLiterals(t *testing.T) {
	fx := newFixture(t, `
		r(X, Y) :- e(X, Y).
		q(Y) :- r(n0, Y).
		hit :- r(n0, n1).
		ok :- e(X, Y).
		e(n0, n1). e(n1, n2).
	`)
	want := map[string]map[string]bool{
		"q(Y)": {"(n1)": true},
		"hit":  {"()": true},
		"ok":   {"()": true},
	}
	for q, w := range want {
		for _, st := range []Strategy{SemiNaive, MagicSets, SupplementaryMagicSets, TopDown} {
			res, err := fx.snap().Query(q, Options{Strategy: st})
			if err != nil {
				t.Fatalf("%s [%s]: %v", q, st, err)
			}
			if got := res.AnswerSet(); !reflect.DeepEqual(got, w) {
				t.Errorf("%s [%s] = %v, want %v", q, st, got, w)
			}
		}
	}
}

func TestPartialSipAndSemijoinOptions(t *testing.T) {
	fx := chainFixture(t, 10)
	full, err := fx.snap().Query("anc(n0, Y)", Options{Strategy: MagicSets, Sip: SipFull})
	if err != nil {
		t.Fatal(err)
	}
	partial, err := fx.snap().Query("anc(n0, Y)", Options{Strategy: MagicSets, Sip: SipPartial})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Answers) != len(partial.Answers) {
		t.Errorf("full/partial sip answers differ: %d vs %d", len(full.Answers), len(partial.Answers))
	}
	semijoin, err := fx.snap().Query("anc(n0, Y)", Options{Strategy: Counting, Semijoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(semijoin.Answers) != len(full.Answers) {
		t.Errorf("semijoin counting answers differ: %d vs %d", len(semijoin.Answers), len(full.Answers))
	}
	guards, err := fx.snap().Query("anc(n0, Y)", Options{Strategy: MagicSets, KeepAllGuards: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(guards.Answers) != len(full.Answers) {
		t.Errorf("KeepAllGuards answers differ")
	}
}

func TestStatsReflectRestriction(t *testing.T) {
	fx := chainFixture(t, 30)
	naive, err := fx.snap().Query("anc(n25, Y)", Options{Strategy: SemiNaive})
	if err != nil {
		t.Fatal(err)
	}
	magicRes, err := fx.snap().Query("anc(n25, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	if magicRes.Stats.TotalFacts() >= naive.Stats.TotalFacts() {
		t.Errorf("magic facts %d should be below naive facts %d",
			magicRes.Stats.TotalFacts(), naive.Stats.TotalFacts())
	}
	if magicRes.Stats.AuxFacts == 0 || magicRes.Stats.JoinProbes == 0 {
		t.Errorf("magic stats incomplete: %+v", magicRes.Stats)
	}
}

func TestRewriteWithoutEvaluation(t *testing.T) {
	fx := chainFixture(t, 3)
	res, err := fx.prog.Rewrite("anc(n0, Y)", Options{Strategy: SupplementaryMagicSets})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Error("Rewrite must not evaluate")
	}
	if !strings.Contains(res.RewrittenProgram, "sup_2_2") {
		t.Errorf("expected supplementary predicates:\n%s", res.RewrittenProgram)
	}
	if _, err := fx.prog.Rewrite("anc(n0, Y)", Options{Strategy: Naive}); err == nil {
		t.Error("Rewrite with a non-rewriting strategy must error")
	}
}

func TestAnalyze(t *testing.T) {
	fx := newFixture(t, `
		a(X, Y) :- p(X, Y).
		a(X, Y) :- a(X, Z), a(Z, Y).
	`)
	rep, err := fx.prog.Analyze("a(x, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IsDatalog || !rep.MagicSafe || !rep.CountingDivergesOnAllData {
		t.Errorf("report = %+v", rep)
	}
}

func TestListReverseThroughFacade(t *testing.T) {
	fx := newFixture(t, `
		append(V, [], [V]) :- elem(V).
		append(V, [W | X], [W | Y]) :- append(V, X, Y).
		reverse([], []) :- emptylist(X).
		reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).
	`)
	if err := fx.db.AssertText("elem(a). elem(b). elem(c). emptylist(nil)."); err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{MagicSets, SupplementaryMagicSets, Counting, SupplementaryCounting, TopDown} {
		res, err := fx.snap().Query("reverse([a, b, c], Y)", Options{Strategy: strat, MaxIterations: 100})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(res.Answers) != 1 || res.Answers[0].Vals[0].String() != "[c, b, a]" {
			t.Errorf("%s: answers = %v", strat, res.Answers)
		}
	}
	// The unrewritten list program is unsafe for bottom-up evaluation; the
	// facade must surface the error rather than loop.
	if _, err := fx.snap().Query("reverse([a, b], Y)", Options{Strategy: SemiNaive, MaxIterations: 20, MaxFacts: 1000}); err == nil {
		t.Error("expected an error for direct bottom-up evaluation of the list program")
	}
}

func TestLimitsSurfaceAsErrLimitExceeded(t *testing.T) {
	fx := newFixture(t, ancestorProgram)
	// Cyclic data defeats counting; the limit must surface as
	// ErrLimitExceeded while the answers of magic remain available.
	for i := 0; i < 5; i++ {
		fx.db.Assert("par", fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", (i+1)%5))
	}
	_, err := fx.snap().Query("anc(c0, Y)", Options{Strategy: Counting, MaxIterations: 40})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("expected ErrLimitExceeded, got %v", err)
	}
	res, err := fx.snap().Query("anc(c0, Y)", Options{Strategy: MagicSets})
	if err != nil || len(res.Answers) != 5 {
		t.Errorf("magic on cyclic data: %v, %v", res.Answers, err)
	}
}

func TestCompileAndQueryErrors(t *testing.T) {
	if _, err := Compile("anc(X, Y) :- par(X, Y"); err == nil {
		t.Error("syntax error must be reported")
	}
	if _, err := Compile("?- p(X)."); err == nil {
		t.Error("queries in the program text must be rejected")
	}
	if _, err := Compile("p(X) :- q(X). p(X, Y) :- q(X), q(Y)."); err == nil {
		t.Error("arity conflicts must be rejected")
	}
	fx := chainFixture(t, 2)
	if err := fx.db.AssertText("anc(X, Y) :- par(X, Y)."); err == nil {
		t.Error("AssertText must reject rules")
	}
	if err := fx.db.Assert("par", 3.14); err == nil {
		t.Error("unsupported argument types must be rejected")
	}
	if _, err := fx.snap().Query("anc(X, Y", Options{}); err == nil {
		t.Error("query syntax error must be reported")
	}
	if _, err := fx.snap().Query("anc(n0, Y)", Options{Strategy: "bogus"}); err == nil {
		t.Error("unknown strategy must be rejected")
	}
	if _, err := fx.snap().Query("anc(n0, Y)", Options{Sip: "bogus"}); err == nil {
		t.Error("unknown sip policy must be rejected")
	}
	if _, err := fx.snap().Query("par(n0, Y)", Options{}); err == nil {
		t.Error("queries on base predicates must be rejected by the rewriting strategies")
	}
}

func TestProgramAndDatabaseAccessors(t *testing.T) {
	fx := chainFixture(t, 4)
	if fx.prog.Rules() != 2 {
		t.Errorf("Rules = %d", fx.prog.Rules())
	}
	if fx.db.FactCount("par") != 4 || fx.db.FactCount("missing") != 0 {
		t.Errorf("FactCount wrong")
	}
	if !strings.Contains(fx.prog.Text(), "anc(X, Y) :- par(X, Y).") {
		t.Errorf("ProgramText = %q", fx.prog.Text())
	}
	// Facts may also arrive embedded in the program text.
	fx2 := newFixture(t, "anc(X, Y) :- par(X, Y). par(a, b).")
	if fx2.db.FactCount("par") != 1 {
		t.Error("facts in the program text must populate the database")
	}
}

func TestParseStrategy(t *testing.T) {
	s, err := ParseStrategy("counting")
	if err != nil || s != Counting {
		t.Errorf("ParseStrategy(counting) = %v, %v", s, err)
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Error("unknown strategy must be rejected")
	}
	if len(Strategies()) != 7 {
		t.Errorf("Strategies() = %v", Strategies())
	}
}

func TestInt64Assert(t *testing.T) {
	fx := newFixture(t, "bigger(X, Y) :- num(X), num(Y), above(X, Y).")
	if err := fx.db.Assert("num", int64(4)); err != nil {
		t.Fatal(err)
	}
	if err := fx.db.Assert("num", 7); err != nil {
		t.Fatal(err)
	}
	if fx.db.FactCount("num") != 2 {
		t.Error("integer facts not stored")
	}
}

func TestAnswerString(t *testing.T) {
	a := Answer{Vals: Row{valueOfTerm(ast.S("mary")), valueOfTerm(ast.I(3))}}
	if a.String() != "(mary, 3)" {
		t.Errorf("Answer.String = %s", a.String())
	}
	var s Stats
	s.DerivedFacts, s.AuxFacts = 3, 2
	if s.TotalFacts() != 5 {
		t.Error("TotalFacts wrong")
	}
}

func TestGreedySipPolicy(t *testing.T) {
	// The textual body order of lives_in_big_city is hostile to a
	// left-to-right sip (the recursive literal comes first); the greedy sip
	// reorders it and still returns the right answers.
	fx := newFixture(t, `
		reach(X, Y) :- edge(X, Y).
		reach(X, Y) :- edge(X, Z), reach(Z, Y).
		report(X, Y) :- reach(Z, Y), start(X, Z).
	`)
	if err := fx.db.AssertText("edge(h1, h2). edge(h2, h3). start(root, h1)."); err != nil {
		t.Fatal(err)
	}
	greedy, err := fx.snap().Query("report(root, Y)", Options{Strategy: MagicSets, Sip: SipGreedy})
	if err != nil {
		t.Fatal(err)
	}
	ltr, err := fx.snap().Query("report(root, Y)", Options{Strategy: MagicSets, Sip: SipFull})
	if err != nil {
		t.Fatal(err)
	}
	if len(greedy.Answers) != 2 || len(ltr.Answers) != 2 {
		t.Fatalf("answers: greedy %v, ltr %v", greedy.Answers, ltr.Answers)
	}
	// The greedy sip restricts reach to the nodes reachable from h1; the
	// left-to-right sip computes the unrestricted reach relation.
	if greedy.Stats.DerivedFacts > ltr.Stats.DerivedFacts {
		t.Errorf("greedy sip should not compute more facts (%d) than left-to-right (%d)",
			greedy.Stats.DerivedFacts, ltr.Stats.DerivedFacts)
	}
}

func TestSimplifyOption(t *testing.T) {
	// The nonlinear ancestor rewriting contains the tautological rule
	// magic_a^bf(X) :- magic_a^bf(X); with Simplify it disappears and the
	// answers are unchanged.
	fx := newFixture(t, `
		a(X, Y) :- p(X, Y).
		a(X, Y) :- a(X, Z), a(Z, Y).
	`)
	if err := fx.db.AssertText("p(x1, x2). p(x2, x3). p(x3, x4)."); err != nil {
		t.Fatal(err)
	}
	plain, err := fx.prog.Rewrite("a(x1, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	simplified, err := fx.prog.Rewrite("a(x1, Y)", Options{Strategy: MagicSets, Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	if simplified.Stats.RewrittenRules >= plain.Stats.RewrittenRules {
		t.Errorf("simplification should drop a rule: %d vs %d",
			simplified.Stats.RewrittenRules, plain.Stats.RewrittenRules)
	}
	if strings.Contains(simplified.RewrittenProgram, "magic_a^bf(X) :- magic_a^bf(X).") {
		t.Error("tautological rule survived simplification")
	}
	a1, err := fx.snap().Query("a(x1, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := fx.snap().Query("a(x1, Y)", Options{Strategy: MagicSets, Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Answers) != 3 || len(a2.Answers) != 3 {
		t.Errorf("answers: %v vs %v", a1.Answers, a2.Answers)
	}
}
