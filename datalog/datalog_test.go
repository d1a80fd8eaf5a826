package datalog

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/intern"
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
	td, err := topDownAnswers(fx.snap(), "anc(n4, Y)", Options{})
	if err != nil || !reflect.DeepEqual(td, want) {
		t.Errorf("top-down oracle = %v (err %v), want %v", td, err, want)
	}
}

// TestMagicConstantBoundLiterals covers derived body literals bound only by
// constants, which no sip arc enters (r(n0, Y), root(n0) and t(n0, W)
// below), and zero-arity query predicates, whose answer relation has no
// adornment suffix. Both magic rewritings used to answer nothing for them,
// top-down looked up a query key ("hit^") that no rule defines, and both
// counting rewritings derived no cnt fact for such a literal. The counting
// rewritings need a bound query argument, so the zero- and free-argument
// queries run under the other three strategies. The top-down oracle answers
// every case under every sip.
func TestMagicConstantBoundLiterals(t *testing.T) {
	fx := newFixture(t, `
		r(X, Y) :- e(X, Y).
		q(Y) :- r(n0, Y).
		hit :- r(n0, n1).
		ok :- e(X, Y).
		near(X, Y) :- e(X, Y), root(n0).
		root(Z) :- e(Z, W).
		far(X, Y) :- e(X, Z), t(n0, W), t(Z, Y).
		t(X, Y) :- e(X, Y).
		t(X, Y) :- e(X, Z), t(Z, Y).
		e(n0, n1). e(n1, n2).
	`)
	cases := []struct {
		query      string
		want       map[string]bool
		strategies []Strategy
	}{
		{"q(Y)", map[string]bool{"(n1)": true}, nil},
		{"hit", map[string]bool{"()": true}, nil},
		{"ok", map[string]bool{"()": true}, nil},
		{"near(n0, Y)", map[string]bool{"(n1)": true}, Strategies()},
		{"far(n0, Y)", map[string]bool{"(n2)": true}, Strategies()},
	}
	for _, tc := range cases {
		for _, sp := range []SipPolicy{SipFull, SipPartial, SipGreedy} {
			if got, err := topDownAnswers(fx.snap(), tc.query, Options{Sip: sp}); err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s [top-down oracle, %s sip] = %v (err %v), want %v", tc.query, sp, got, err, tc.want)
			}
		}
		strategies := tc.strategies
		if strategies == nil {
			strategies = []Strategy{SemiNaive, MagicSets, SupplementaryMagicSets}
		}
		for _, st := range strategies {
			for _, sp := range []SipPolicy{SipFull, SipPartial, SipGreedy} {
				for _, semijoin := range []bool{false, true} {
					res, err := fx.snap().Query(tc.query, Options{Strategy: st, Sip: sp, Semijoin: semijoin})
					// The partial sip passes far's t(Z, Y) no binding from
					// e(X, Z), so the program calls t^bf from a rule with
					// the all-free head t^ff, which counting rejects.
					if tc.query == "far(n0, Y)" && sp == SipPartial && (st == Counting || st == SupplementaryCounting) {
						if err == nil || !strings.Contains(err.Error(), "counting rewritings do not apply") {
							t.Errorf("%s [%s, %s sip]: err = %v, want the counting rewritings to reject the program", tc.query, st, sp, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s [%s, %s sip, semijoin=%v]: %v", tc.query, st, sp, semijoin, err)
					}
					if got := res.AnswerSet(); !reflect.DeepEqual(got, tc.want) {
						t.Errorf("%s [%s, %s sip, semijoin=%v] = %v, want %v", tc.query, st, sp, semijoin, got, tc.want)
					}
				}
			}
		}
	}
}

// TestGeneratedNamesCaptureNothing: the predicates a rewriting generates
// (sup_2_2, supcnt_2_2, magic_anc, ...) are ordinary relation names too. A
// stored relation or a program predicate of the same name must neither
// feed the rewriting's auxiliary relations nor read them, and must not
// change how the rewriting's facts are counted.
func TestGeneratedNamesCaptureNothing(t *testing.T) {
	const chain = `par(n0, n1). par(n1, n2). par(n2, n3). par(n9, zz).`
	cases := []struct{ name, program, facts string }{
		{"stored sup_2_2", ancestorProgram, chain + ` sup_2_2(n0, n9).`},
		{"stored supcnt_2_2", ancestorProgram, chain + ` supcnt_2_2(0, 0, 0, n0, n9).`},
		{"sup_2_2 in a rule body", `
			anc(X, Y) :- par(X, Y).
			anc(X, Y) :- par(X, Z), ok(X, Z), anc(Z, Y).
			ok(X, Z) :- sup_2_2(X, Z).
		`, chain + ` sup_2_2(n0, n1).`},
		{"sup_2_2 of arity 1 in a rule body", `
			anc(X, Y) :- par(X, Y).
			anc(X, Y) :- par(X, Z), ok(Z), anc(Z, Y).
			ok(Z) :- sup_2_2(Z).
		`, chain + ` sup_2_2(n1).`},
		{"supcnt_2_2 in a rule body", `
			anc(X, Y) :- par(X, Y).
			anc(X, Y) :- par(X, Z), ok(X, Z), anc(Z, Y).
			ok(X, Z) :- supcnt_2_2(X, Z).
		`, chain + ` supcnt_2_2(n0, n1).`},
		{"a derived magic_anc^bf", `
			anc(X, Y) :- par(X, Y).
			anc(X, Y) :- par(X, Z), magic_anc(Z, W), anc(Z, Y).
			magic_anc(X, Y) :- par(X, Y).
		`, chain},
	}
	for _, tc := range cases {
		prog, err := Compile(tc.program)
		if err != nil {
			t.Fatal(err)
		}
		db := NewDatabase()
		if err := db.AssertText(tc.facts); err != nil {
			t.Fatal(err)
		}
		snap := db.Snapshot().With(prog)
		want, err := snap.Query("anc(n0, Y)", Options{Strategy: SemiNaive})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range Strategies() {
			for _, semijoin := range []bool{false, true} {
				res, err := snap.Query("anc(n0, Y)", Options{Strategy: st, Semijoin: semijoin})
				if err != nil {
					t.Errorf("%s [%s, semijoin=%v]: %v", tc.name, st, semijoin, err)
				} else if got := res.AnswerSet(); !reflect.DeepEqual(got, want.AnswerSet()) {
					t.Errorf("%s [%s, semijoin=%v] = %v, want %v", tc.name, st, semijoin, got, want.AnswerSet())
				}
			}
		}
		if td, err := topDownAnswers(snap, "anc(n0, Y)", Options{}); err != nil || !reflect.DeepEqual(td, want.AnswerSet()) {
			t.Errorf("%s [top-down oracle] = %v (err %v), want %v", tc.name, td, err, want.AnswerSet())
		}
	}

	// Renaming anc to magic_anc changes no fact count: the rewritten
	// magic_anc is derived, its magic predicate auxiliary.
	renamed := newFixture(t, strings.ReplaceAll(ancestorProgram, "anc(", "magic_anc("))
	original := newFixture(t, ancestorProgram)
	for _, fx := range []fixture{original, renamed} {
		if err := fx.db.AssertText(chain); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range []Strategy{MagicSets, SupplementaryMagicSets, Counting, SupplementaryCounting} {
		a, err := original.snap().Query("anc(n0, Y)", Options{Strategy: st})
		if err != nil {
			t.Fatal(err)
		}
		b, err := renamed.snap().Query("magic_anc(n0, Y)", Options{Strategy: st})
		if err != nil {
			t.Fatal(err)
		}
		if a.Stats.DerivedFacts != b.Stats.DerivedFacts || a.Stats.AuxFacts != b.Stats.AuxFacts {
			t.Errorf("%s: renamed program counts derived %d / aux %d, original %d / %d",
				st, b.Stats.DerivedFacts, b.Stats.AuxFacts, a.Stats.DerivedFacts, a.Stats.AuxFacts)
		}
	}
}

// TestCountingDeepChains runs both counting rewritings past depth 63 with
// and without the semijoin optimization. Their K and H indices are
// sequences of rule and body-position numbers; encoded as the integers
// K·m+i and H·t+j they passed int64 at depth 63 on ancestor (m = t = 2),
// and the semijoin rules, which recover a parent's indices from its
// child's, lost every deeper answer.
func TestCountingDeepChains(t *testing.T) {
	for _, n := range []int{64, 100, 200} {
		fx := chainFixture(t, n)
		magicRes, err := fx.snap().Query("anc(n0, Y)", Options{Strategy: MagicSets})
		if err != nil {
			t.Fatal(err)
		}
		want := magicRes.AnswerSet()
		if len(want) != n {
			t.Fatalf("chain %d: magic found %d answers", n, len(want))
		}
		for _, st := range []Strategy{Counting, SupplementaryCounting} {
			for _, semijoin := range []bool{false, true} {
				res, err := fx.snap().Query("anc(n0, Y)", Options{Strategy: st, Semijoin: semijoin})
				if err != nil {
					t.Fatalf("chain %d [%s, semijoin=%v]: %v", n, st, semijoin, err)
				}
				if got := res.AnswerSet(); !reflect.DeepEqual(got, want) {
					t.Errorf("chain %d [%s, semijoin=%v]: %d answers, want %d", n, st, semijoin, len(got), len(want))
				}
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
	if _, err := fx.prog.Rewrite("anc(n0, Y)", Options{Strategy: SemiNaive}); err == nil {
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
	for _, strat := range []Strategy{MagicSets, SupplementaryMagicSets, Counting, SupplementaryCounting} {
		res, err := fx.snap().Query("reverse([a, b, c], Y)", Options{Strategy: strat, MaxIterations: 100})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(res.Answers) != 1 || res.Answers[0].Vals[0].String() != "[c, b, a]" {
			t.Errorf("%s: answers = %v", strat, res.Answers)
		}
	}
	if td, err := topDownAnswers(fx.snap(), "reverse([a, b, c], Y)", Options{}); err != nil || !reflect.DeepEqual(td, map[string]bool{"([c, b, a])": true}) {
		t.Errorf("top-down oracle: answers = %v (err %v)", td, err)
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
	// Naive iteration and top-down evaluation are test oracles, not
	// strategies: their old names are unknown strategies.
	for _, name := range []string{"nope", "naive", "top-down"} {
		if _, err := ParseStrategy(name); err == nil {
			t.Errorf("unknown strategy %q must be rejected", name)
		}
	}
	if want := []Strategy{SemiNaive, MagicSets, SupplementaryMagicSets, Counting, SupplementaryCounting}; !reflect.DeepEqual(Strategies(), want) {
		t.Errorf("Strategies() = %v, want %v", Strategies(), want)
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
	tab := intern.NewTable()
	mary, three := tab.Intern(ast.S("mary")), tab.Intern(ast.I(3))
	rd := tab.Reader()
	a := Answer{Vals: Row{valueOfID(&rd, mary), valueOfID(&rd, three)}}
	if a.String() != "(mary, 3)" {
		t.Errorf("Answer.String = %s", a.String())
	}
	// The zero Value is the empty symbol.
	var zero Value
	if name, ok := zero.Symbol(); zero.Kind() != Symbol || !ok || name != "" || zero.String() != "" {
		t.Errorf("zero Value: kind %v, Symbol() = %q, %v, String() = %q", zero.Kind(), name, ok, zero.String())
	}
	if _, ok := zero.Int(); ok {
		t.Error("zero Value reports an integer")
	}
	if _, _, ok := zero.Compound(); ok {
		t.Error("zero Value reports a compound")
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
