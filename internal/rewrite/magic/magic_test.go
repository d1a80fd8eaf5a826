package magic

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/rewrite"
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

// The Appendix A.1 problems and the running nonlinear same-generation
// example. The paper's bodiless clauses (facts with variables) are given
// explicit base-predicate bodies (elem, emptylist) so that they are rules;
// the substitution is explained at paperPrograms in
// internal/analysis/paper_test.go.
const (
	ancestorSrc = `
		a(X, Y) :- p(X, Y).
		a(X, Y) :- p(X, Z), a(Z, Y).
	`
	nonlinearAncestorSrc = `
		a(X, Y) :- p(X, Y).
		a(X, Y) :- a(X, Z), a(Z, Y).
	`
	nestedSameGenSrc = `
		p(X, Y) :- b1(X, Y).
		p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).
	`
	listReverseSrc = `
		append(V, [], [V]) :- elem(V).
		append(V, [W | X], [W | Y]) :- append(V, X, Y).
		reverse([], []) :- emptylist(X).
		reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).
	`
	nonlinearSameGenSrc = `
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).
	`
)

func rewriteSrc(t *testing.T, src, query string, strat sip.Strategy, opts Options) *rewrite.Rewriting {
	t.Helper()
	prog := parser.MustParseProgram(src)
	q := parser.MustParseQuery(query)
	ad, err := adorn.Adorn(prog, q, strat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(opts).Rewrite(ad)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkRewriting(t *testing.T, got *rewrite.Rewriting, wantRules []string, wantSeeds []string) {
	t.Helper()
	if len(got.Program.Rules) != len(wantRules) {
		t.Fatalf("expected %d rules, got %d:\n%s", len(wantRules), len(got.Program.Rules), got)
	}
	for i, w := range wantRules {
		if g := got.Program.Rules[i].String(); g != w {
			t.Errorf("rule %d:\n got  %s\n want %s", i, g, w)
		}
	}
	if len(got.Seeds) != len(wantSeeds) {
		t.Fatalf("expected %d seeds, got %v", len(wantSeeds), got.Seeds)
	}
	for i, w := range wantSeeds {
		if g := got.Seeds[i].String(); g != w {
			t.Errorf("seed %d:\n got  %s\n want %s", i, g, w)
		}
	}
}

// TestAppendixA31Ancestor reproduces Appendix A.3.1 (GMS for the ancestor
// program).
func TestAppendixA31Ancestor(t *testing.T) {
	res := rewriteSrc(t, ancestorSrc, "a(john, Y)", sip.FullLeftToRight(), Options{})
	checkRewriting(t, res,
		[]string{
			"magic_a^bf(Z) :- magic_a^bf(X), p(X, Z).",
			"a^bf(X, Y) :- magic_a^bf(X), p(X, Y).",
			"a^bf(X, Y) :- magic_a^bf(X), p(X, Z), a^bf(Z, Y).",
		},
		[]string{"magic_a^bf(john)"},
	)
	if res.AnswerPred != "a^bf" || len(res.AnswerPattern.Args) != 2 {
		t.Errorf("answer metadata wrong: %+v", res)
	}
	if res.AuxPredicates["magic_a^bf"] != "a^bf" {
		t.Errorf("aux predicates = %v", res.AuxPredicates)
	}
}

// TestAppendixA32NonlinearAncestor reproduces Appendix A.3.2. The trivially
// circular rule magic_a^bf(X) :- magic_a^bf(X) is generated exactly as in
// the paper (which notes it "can be deleted").
func TestAppendixA32NonlinearAncestor(t *testing.T) {
	res := rewriteSrc(t, nonlinearAncestorSrc, "a(john, Y)", sip.FullLeftToRight(), Options{})
	checkRewriting(t, res,
		[]string{
			"magic_a^bf(X) :- magic_a^bf(X).",
			"magic_a^bf(Z) :- magic_a^bf(X), a^bf(X, Z).",
			"a^bf(X, Y) :- magic_a^bf(X), p(X, Y).",
			"a^bf(X, Y) :- magic_a^bf(X), a^bf(X, Z), a^bf(Z, Y).",
		},
		[]string{"magic_a^bf(john)"},
	)
}

// TestAppendixA33NestedSameGeneration reproduces Appendix A.3.3. Within each
// adorned rule the magic rules appear in body-literal order (the paper lists
// the same rules in a slightly different order).
func TestAppendixA33NestedSameGeneration(t *testing.T) {
	res := rewriteSrc(t, nestedSameGenSrc, "p(john, Y)", sip.FullLeftToRight(), Options{})
	checkRewriting(t, res,
		[]string{
			"magic_sg^bf(X) :- magic_p^bf(X).",
			"magic_p^bf(Z1) :- magic_p^bf(X), sg^bf(X, Z1).",
			"magic_sg^bf(Z1) :- magic_sg^bf(X), up(X, Z1).",
			"p^bf(X, Y) :- magic_p^bf(X), b1(X, Y).",
			"p^bf(X, Y) :- magic_p^bf(X), sg^bf(X, Z1), p^bf(Z1, Z2), b2(Z2, Y).",
			"sg^bf(X, Y) :- magic_sg^bf(X), flat(X, Y).",
			"sg^bf(X, Y) :- magic_sg^bf(X), up(X, Z1), sg^bf(Z1, Z2), down(Z2, Y).",
		},
		[]string{"magic_p^bf(john)"},
	)
}

// TestAppendixA34ListReverse reproduces Appendix A.3.4 (modulo the explicit
// elem/emptylist base literals replacing the paper's bodiless clauses).
func TestAppendixA34ListReverse(t *testing.T) {
	res := rewriteSrc(t, listReverseSrc, "reverse([a, b, c], Y)", sip.FullLeftToRight(), Options{})
	checkRewriting(t, res,
		[]string{
			"magic_reverse^bf(X) :- magic_reverse^bf([V | X]).",
			"magic_append^bbf(V, Z) :- magic_reverse^bf([V | X]), reverse^bf(X, Z).",
			"magic_append^bbf(V, X) :- magic_append^bbf(V, [W | X]).",
			"reverse^bf([], []) :- magic_reverse^bf([]), emptylist(X).",
			"reverse^bf([V | X], Y) :- magic_reverse^bf([V | X]), reverse^bf(X, Z), append^bbf(V, Z, Y).",
			"append^bbf(V, [], [V]) :- magic_append^bbf(V, []), elem(V).",
			"append^bbf(V, [W | X], [W | Y]) :- magic_append^bbf(V, [W | X]), append^bbf(V, X, Y).",
		},
		[]string{"magic_reverse^bf([a, b, c])"},
	)
}

// TestExample4FullSip reproduces Example 4 (GMS for the nonlinear
// same-generation program under the full sip (IV)).
func TestExample4FullSip(t *testing.T) {
	res := rewriteSrc(t, nonlinearSameGenSrc, "sg(john, Y)", sip.FullLeftToRight(), Options{})
	checkRewriting(t, res,
		[]string{
			"magic_sg^bf(Z1) :- magic_sg^bf(X), up(X, Z1).",
			"magic_sg^bf(Z3) :- magic_sg^bf(X), up(X, Z1), sg^bf(Z1, Z2), flat(Z2, Z3).",
			"sg^bf(X, Y) :- magic_sg^bf(X), flat(X, Y).",
			"sg^bf(X, Y) :- magic_sg^bf(X), up(X, Z1), sg^bf(Z1, Z2), flat(Z2, Z3), sg^bf(Z3, Z4), down(Z4, Y).",
		},
		[]string{"magic_sg^bf(john)"},
	)
}

// TestExample4PartialSip reproduces the partial-sip variant of Example 4
// (sip (V)). The paper's presentation keeps the guard magic_sg^bf(Z1) in the
// second magic rule; this implementation drops it by default, as allowed by
// Proposition 4.3 (sg^bf tuples are already restricted by their own magic
// guard). Setting KeepAllGuards reproduces the paper's version.
func TestExample4PartialSip(t *testing.T) {
	res := rewriteSrc(t, nonlinearSameGenSrc, "sg(john, Y)", sip.PartialLeftToRight(), Options{})
	checkRewriting(t, res,
		[]string{
			"magic_sg^bf(Z1) :- magic_sg^bf(X), up(X, Z1).",
			"magic_sg^bf(Z3) :- sg^bf(Z1, Z2), flat(Z2, Z3).",
			"sg^bf(X, Y) :- magic_sg^bf(X), flat(X, Y).",
			"sg^bf(X, Y) :- magic_sg^bf(X), up(X, Z1), sg^bf(Z1, Z2), flat(Z2, Z3), sg^bf(Z3, Z4), down(Z4, Y).",
		},
		[]string{"magic_sg^bf(john)"},
	)

	withGuards := rewriteSrc(t, nonlinearSameGenSrc, "sg(john, Y)", sip.PartialLeftToRight(), Options{KeepAllGuards: true})
	want := "magic_sg^bf(Z3) :- magic_sg^bf(Z1), sg^bf(Z1, Z2), flat(Z2, Z3)."
	found := false
	for _, r := range withGuards.Program.Rules {
		if r.String() == want {
			found = true
		}
	}
	if !found {
		t.Errorf("KeepAllGuards should reproduce the paper's magic rule %q:\n%s", want, withGuards)
	}
}

// --- end-to-end evaluation tests -----------------------------------------

// parentChain builds par facts forming a chain of n+1 nodes n0 -> ... -> nn.
func parentChain(n int) *database.Store {
	s := database.NewStore()
	for i := 0; i < n; i++ {
		s.MustAddFact(ast.NewAtom("p", ast.S(fmt.Sprintf("n%d", i)), ast.S(fmt.Sprintf("n%d", i+1))))
	}
	return s
}

// evalRewriting evaluates a rewriting over the database plus its seeds and
// returns the store and stats.
func evalRewriting(t *testing.T, res *rewrite.Rewriting, edb *database.Store) (*database.Store, *eval.Stats) {
	t.Helper()
	db := edb.Clone()
	for _, seed := range res.Seeds {
		db.MustAddFact(seed)
	}
	store, stats, err := semiNaive(res.Program, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return store, stats
}

func TestAncestorEndToEnd(t *testing.T) {
	res := rewriteSrc(t, ancestorSrc, "a(n5, Y)", sip.FullLeftToRight(), Options{})
	edb := parentChain(10)
	store, _ := evalRewriting(t, res, edb)

	// Answers: n6..n10 reachable from n5.
	answers := eval.Answers(store, res.AnswerPred, ast.NewAdornedAtom("a", "bf", ast.S("n5"), ast.V("Y")))
	if len(answers) != 5 {
		t.Fatalf("answers = %v, want 5", answers)
	}

	// The magic-rewritten program computes only facts relevant to n5: the
	// a^bf relation contains pairs whose first component is in the magic
	// set (n5..n10), i.e. 5+4+3+2+1 = 15 facts, versus 55 for the full
	// ancestor relation computed by the unrewritten program.
	if got := store.FactCount("a^bf"); got != 15 {
		t.Errorf("a^bf facts = %d, want 15", got)
	}
	orig := parser.MustParseProgram(ancestorSrc)
	full, _, err := semiNaive(orig, edb, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.FactCount("a") != 55 {
		t.Fatalf("unrewritten program computed %d facts, want 55", full.FactCount("a"))
	}
	// Same answers as the unrewritten program restricted to the query.
	wantSet := eval.AnswerSet(full, "a", ast.NewAtom("a", ast.S("n5"), ast.V("Y")))
	gotSet := eval.AnswerSet(store, res.AnswerPred, ast.NewAdornedAtom("a", "bf", ast.S("n5"), ast.V("Y")))
	if len(wantSet) != len(gotSet) {
		t.Fatalf("answer sets differ: %v vs %v", gotSet, wantSet)
	}
	for k := range wantSet {
		if !gotSet[k] {
			t.Errorf("missing answer %s", k)
		}
	}
}

// sameGenData builds up/flat/down relations describing a two-level tree in
// which leaves a1..an have parents p1..pn, and the parents are "flat"
// related in a chain.
func sameGenData(n int) *database.Store {
	s := database.NewStore()
	for i := 1; i <= n; i++ {
		s.MustAddFact(ast.NewAtom("up", ast.S(fmt.Sprintf("a%d", i)), ast.S(fmt.Sprintf("p%d", i))))
		s.MustAddFact(ast.NewAtom("down", ast.S(fmt.Sprintf("p%d", i)), ast.S(fmt.Sprintf("a%d", i))))
		s.MustAddFact(ast.NewAtom("flat", ast.S(fmt.Sprintf("p%d", i)), ast.S(fmt.Sprintf("p%d", (i%n)+1))))
		s.MustAddFact(ast.NewAtom("flat", ast.S(fmt.Sprintf("a%d", i)), ast.S(fmt.Sprintf("a%d", (i%n)+1))))
	}
	return s
}

func TestNonlinearSameGenerationEndToEnd(t *testing.T) {
	edb := sameGenData(4)
	orig := parser.MustParseProgram(nonlinearSameGenSrc)
	full, _, err := semiNaive(orig, edb, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := eval.AnswerSet(full, "sg", ast.NewAtom("sg", ast.S("a1"), ast.V("Y")))

	for _, strat := range []sip.Strategy{sip.FullLeftToRight(), sip.PartialLeftToRight()} {
		for _, opts := range []Options{{}, {KeepAllGuards: true}} {
			res := rewriteSrc(t, nonlinearSameGenSrc, "sg(a1, Y)", strat, opts)
			store, _ := evalRewriting(t, res, edb)
			got := eval.AnswerSet(store, res.AnswerPred, ast.NewAdornedAtom("sg", "bf", ast.S("a1"), ast.V("Y")))
			if len(got) != len(want) {
				t.Errorf("%s guards=%v: answers %d, want %d", strat.Name(), opts.KeepAllGuards, len(got), len(want))
				continue
			}
			for k := range want {
				if !got[k] {
					t.Errorf("%s guards=%v: missing answer %s", strat.Name(), opts.KeepAllGuards, k)
				}
			}
			// The rewritten program must not compute more sg facts than the
			// unrewritten one.
			if store.FactCount("sg^bf") > full.FactCount("sg") {
				t.Errorf("%s: rewritten program computed more facts (%d) than naive (%d)",
					strat.Name(), store.FactCount("sg^bf"), full.FactCount("sg"))
			}
		}
	}
}

// TestLemma93FullSipComputesSubset checks Lemma 9.3: the facts computed
// under the full sip are a subset of those computed under the partial sip.
func TestLemma93FullSipComputesSubset(t *testing.T) {
	edb := sameGenData(5)
	fullRes := rewriteSrc(t, nonlinearSameGenSrc, "sg(a1, Y)", sip.FullLeftToRight(), Options{})
	partRes := rewriteSrc(t, nonlinearSameGenSrc, "sg(a1, Y)", sip.PartialLeftToRight(), Options{})
	fullStore, _ := evalRewriting(t, fullRes, edb)
	partStore, _ := evalRewriting(t, partRes, edb)

	fullSG := fullStore.Existing("sg^bf")
	partSG := partStore.Existing("sg^bf")
	if fullSG == nil || partSG == nil {
		t.Fatal("sg^bf relations missing")
	}
	for _, tuple := range fullSG.Tuples() {
		if !partSG.Contains(tuple) {
			t.Errorf("fact sg^bf%s computed under the full sip but not under the partial sip", tuple)
		}
	}
	if fullSG.Len() > partSG.Len() {
		t.Errorf("full sip computed %d facts, partial %d; full must not exceed partial", fullSG.Len(), partSG.Len())
	}
	// Magic facts: the full sip's magic set must also be a subset.
	if fullStore.FactCount("magic_sg^bf") > partStore.FactCount("magic_sg^bf") {
		t.Errorf("full sip magic facts %d > partial %d",
			fullStore.FactCount("magic_sg^bf"), partStore.FactCount("magic_sg^bf"))
	}
}

func TestListReverseEndToEnd(t *testing.T) {
	// The unrewritten list program cannot be evaluated bottom-up (it is not
	// safe), but its magic rewriting is: the bindings flow from the query
	// list [a, b, c] down the recursion and back up through append.
	res := rewriteSrc(t, listReverseSrc, "reverse([a, b, c], Y)", sip.FullLeftToRight(), Options{})
	edb := database.NewStore()
	for _, e := range []string{"a", "b", "c"} {
		edb.MustAddFact(ast.NewAtom("elem", ast.S(e)))
	}
	edb.MustAddFact(ast.NewAtom("emptylist", ast.S("nil")))
	store, _ := evalRewriting(t, res, edb)

	answers := eval.Answers(store, res.AnswerPred,
		ast.NewAdornedAtom("reverse", "bf", ast.List(ast.S("a"), ast.S("b"), ast.S("c")), ast.V("Y")))
	if len(answers) != 1 {
		t.Fatalf("reverse([a,b,c], Y) answers = %v, want exactly one", answers)
	}
	if got := answers[0][0].String(); got != "[c, b, a]" {
		t.Errorf("reverse([a,b,c]) = %s, want [c, b, a]", got)
	}
	// The magic set for append holds the suffix lists to reverse.
	if store.FactCount("magic_reverse^bf") != 4 {
		t.Errorf("magic_reverse^bf facts = %d, want 4 ([a,b,c], [b,c], [c], [])", store.FactCount("magic_reverse^bf"))
	}
}

func TestKeepAllGuardsEquivalence(t *testing.T) {
	// Proposition 4.2/4.3: dropping the redundant magic guards changes
	// neither the magic sets nor the derived facts.
	edb := parentChain(8)
	plain := rewriteSrc(t, ancestorSrc, "a(n2, Y)", sip.FullLeftToRight(), Options{})
	guarded := rewriteSrc(t, ancestorSrc, "a(n2, Y)", sip.FullLeftToRight(), Options{KeepAllGuards: true})
	s1, _ := evalRewriting(t, plain, edb)
	s2, _ := evalRewriting(t, guarded, edb)
	if s1.FactCount("a^bf") != s2.FactCount("a^bf") || s1.FactCount("magic_a^bf") != s2.FactCount("magic_a^bf") {
		t.Errorf("guarded and simplified rewritings disagree: %d/%d vs %d/%d",
			s1.FactCount("a^bf"), s1.FactCount("magic_a^bf"), s2.FactCount("a^bf"), s2.FactCount("magic_a^bf"))
	}
}

func TestRewriteErrors(t *testing.T) {
	rw := New(Options{})
	if _, err := rw.Rewrite(nil); err == nil {
		t.Error("nil adorned program must be rejected")
	}
	if _, err := rw.Rewrite(&adorn.Program{}); err == nil {
		t.Error("empty adorned program must be rejected")
	}
	// Adorned rule without a sip.
	bad := &adorn.Program{Rules: []adorn.Rule{{Rule: ast.NewRule(ast.NewAtom("p", ast.V("X")), ast.NewAtom("q", ast.V("X")))}}}
	if _, err := rw.Rewrite(bad); err == nil {
		t.Error("adorned rule without sip must be rejected")
	}
	if rw.Name() != "generalized-magic-sets" {
		t.Errorf("Name = %s", rw.Name())
	}
}

func TestMultipleArcsUseLabelRules(t *testing.T) {
	// Hand-build a sip in which two arcs enter the same derived occurrence;
	// the rewriter must produce two label rules and a joining magic rule.
	prog := parser.MustParseProgram(`
		q(X, Y) :- e(X, Y).
		r(X, Y) :- e1(X, A), e2(X, B), q(A, Y), out(B, Y).
	`)
	_ = prog
	q := parser.MustParseQuery("r(c, Y)")

	// Use a rule in which both e1 and e2 bind A, so two distinct arcs into
	// the q occurrence are valid.
	prog2 := parser.MustParseProgram(`
		q(X, Y) :- e(X, Y).
		r(X, Y) :- e1(X, A), e2(A, B), q(A, Y), out(B, Y).
	`)
	rule2 := prog2.Rules[1]
	custom := &sip.Graph{Rule: rule2, HeadAdornment: "bf", Arcs: []sip.Arc{
		{Tail: []int{sip.HeadNode, 0}, Head: 2, Label: map[string]bool{"A": true}},
		{Tail: []int{1}, Head: 2, Label: map[string]bool{"A": true}},
	}}
	if err := custom.Validate(); err != nil {
		t.Fatal(err)
	}
	fixed := sip.NewFixed(sip.FullLeftToRight())
	fixed.Register(custom)
	ad, err := adorn.Adorn(prog2, q, fixed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(Options{}).Rewrite(ad)
	if err != nil {
		t.Fatal(err)
	}
	labelRules := 0
	joinRule := false
	for _, r := range res.Program.Rules {
		if strings.HasPrefix(r.Head.Pred, "label_q_") {
			labelRules++
		}
		if r.Head.Pred == "magic_q" && len(r.Body) == 2 &&
			strings.HasPrefix(r.Body[0].Pred, "label_q_") && strings.HasPrefix(r.Body[1].Pred, "label_q_") {
			joinRule = true
		}
	}
	if labelRules != 2 || !joinRule {
		t.Errorf("expected 2 label rules and a joining magic rule:\n%s", res)
	}
}
