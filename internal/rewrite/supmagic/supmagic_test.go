package supmagic

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/rewrite"
	"repro/internal/rewrite/magic"
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
	for i, w := range wantSeeds {
		if g := got.Seeds[i].String(); g != w {
			t.Errorf("seed %d:\n got  %s\n want %s", i, g, w)
		}
	}
}

// TestAppendixA41Ancestor reproduces Appendix A.4.1 (optimized form).
func TestAppendixA41Ancestor(t *testing.T) {
	res := rewriteSrc(t, ancestorSrc, "a(john, Y)", sip.FullLeftToRight(), Options{})
	checkRewriting(t, res,
		[]string{
			"sup_2_2(X, Z) :- magic_a^bf(X), p(X, Z).",
			"a^bf(X, Y) :- magic_a^bf(X), p(X, Y).",
			"a^bf(X, Y) :- sup_2_2(X, Z), a^bf(Z, Y).",
			"magic_a^bf(Z) :- sup_2_2(X, Z).",
		},
		[]string{"magic_a^bf(john)"},
	)
}

// TestAppendixA42NonlinearAncestor reproduces Appendix A.4.2, including the
// vacuous magic_a^bf(X) :- magic_a^bf(X) rule the paper notes can be deleted.
func TestAppendixA42NonlinearAncestor(t *testing.T) {
	res := rewriteSrc(t, nonlinearAncestorSrc, "a(john, Y)", sip.FullLeftToRight(), Options{})
	checkRewriting(t, res,
		[]string{
			"sup_2_2(X, Z) :- magic_a^bf(X), a^bf(X, Z).",
			"a^bf(X, Y) :- magic_a^bf(X), p(X, Y).",
			"a^bf(X, Y) :- sup_2_2(X, Z), a^bf(Z, Y).",
			"magic_a^bf(X) :- magic_a^bf(X).",
			"magic_a^bf(Z) :- sup_2_2(X, Z).",
		},
		[]string{"magic_a^bf(john)"},
	)
}

// TestAppendixA43NestedSameGeneration reproduces Appendix A.4.3.
func TestAppendixA43NestedSameGeneration(t *testing.T) {
	res := rewriteSrc(t, nestedSameGenSrc, "p(john, Y)", sip.FullLeftToRight(), Options{})
	checkRewriting(t, res,
		[]string{
			"sup_2_2(X, Z1) :- magic_p^bf(X), sg^bf(X, Z1).",
			"sup_4_2(X, Z1) :- magic_sg^bf(X), up(X, Z1).",
			"p^bf(X, Y) :- magic_p^bf(X), b1(X, Y).",
			"p^bf(X, Y) :- sup_2_2(X, Z1), p^bf(Z1, Z2), b2(Z2, Y).",
			"sg^bf(X, Y) :- magic_sg^bf(X), flat(X, Y).",
			"sg^bf(X, Y) :- sup_4_2(X, Z1), sg^bf(Z1, Z2), down(Z2, Y).",
			"magic_sg^bf(X) :- magic_p^bf(X).",
			"magic_p^bf(Z1) :- sup_2_2(X, Z1).",
			"magic_sg^bf(Z1) :- sup_4_2(X, Z1).",
		},
		[]string{"magic_p^bf(john)"},
	)
}

// TestAppendixA44ListReverse reproduces Appendix A.4.4.
func TestAppendixA44ListReverse(t *testing.T) {
	res := rewriteSrc(t, listReverseSrc, "reverse([a, b, c], Y)", sip.FullLeftToRight(), Options{})
	checkRewriting(t, res,
		[]string{
			"sup_2_2(V, X, Z) :- magic_reverse^bf([V | X]), reverse^bf(X, Z).",
			"reverse^bf([], []) :- magic_reverse^bf([]), emptylist(X).",
			"reverse^bf([V | X], Y) :- sup_2_2(V, X, Z), append^bbf(V, Z, Y).",
			"append^bbf(V, [], [V]) :- magic_append^bbf(V, []), elem(V).",
			"append^bbf(V, [W | X], [W | Y]) :- magic_append^bbf(V, [W | X]), append^bbf(V, X, Y).",
			"magic_reverse^bf(X) :- magic_reverse^bf([V | X]).",
			"magic_append^bbf(V, Z) :- sup_2_2(V, X, Z).",
			"magic_append^bbf(V, X) :- magic_append^bbf(V, [W | X]).",
		},
		[]string{"magic_reverse^bf([a, b, c])"},
	)
}

// TestExample5NonlinearSameGeneration reproduces Example 5: the chain of
// supplementary predicates for the 5-literal recursive rule.
func TestExample5NonlinearSameGeneration(t *testing.T) {
	res := rewriteSrc(t, nonlinearSameGenSrc, "sg(john, Y)", sip.FullLeftToRight(), Options{})
	checkRewriting(t, res,
		[]string{
			"sup_2_2(X, Z1) :- magic_sg^bf(X), up(X, Z1).",
			"sup_2_3(X, Z2) :- sup_2_2(X, Z1), sg^bf(Z1, Z2).",
			"sup_2_4(X, Z3) :- sup_2_3(X, Z2), flat(Z2, Z3).",
			"sg^bf(X, Y) :- magic_sg^bf(X), flat(X, Y).",
			"sg^bf(X, Y) :- sup_2_4(X, Z3), sg^bf(Z3, Z4), down(Z4, Y).",
			"magic_sg^bf(Z1) :- sup_2_2(X, Z1).",
			"magic_sg^bf(Z3) :- sup_2_4(X, Z3).",
		},
		[]string{"magic_sg^bf(john)"},
	)
	// Example 5 keeps X in every supplementary predicate because X is a head
	// variable needed by no later body literal but by the final join in the
	// original algorithm; our projection keeps it for the same reason (it
	// appears in the head).
	if res.AnswerPred != "sg^bf" {
		t.Errorf("answer pred = %s", res.AnswerPred)
	}
}

// --- end-to-end evaluation ------------------------------------------------

func parentChain(n int) *database.Store {
	s := database.NewStore()
	for i := 0; i < n; i++ {
		s.MustAddFact(ast.NewAtom("p", ast.S(fmt.Sprintf("n%d", i)), ast.S(fmt.Sprintf("n%d", i+1))))
	}
	return s
}

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

// TestGSMSAgreesWithGMS: Theorem 5.1 — the supplementary rewriting computes
// the same answers (and the same derived/magic relations) as plain magic.
func TestGSMSAgreesWithGMS(t *testing.T) {
	cases := []struct {
		name, src, query, answerPred string
		edb                          *database.Store
		queryAtom                    ast.Atom
	}{
		{
			"ancestor", ancestorSrc, "a(n3, Y)", "a^bf", parentChain(12),
			ast.NewAdornedAtom("a", "bf", ast.S("n3"), ast.V("Y")),
		},
		{
			"same-generation", nonlinearSameGenSrc, "sg(a1, Y)", "sg^bf", sameGenData(5),
			ast.NewAdornedAtom("sg", "bf", ast.S("a1"), ast.V("Y")),
		},
		{
			"nested-same-generation", nestedSameGenSrc, "p(a1, Y)", "p^bf", nestedData(4),
			ast.NewAdornedAtom("p", "bf", ast.S("a1"), ast.V("Y")),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gms := rewriteMagic(t, tc.src, tc.query)
			gsms := rewriteSrc(t, tc.src, tc.query, sip.FullLeftToRight(), Options{})
			s1, stats1 := evalRewriting(t, gms, tc.edb)
			s2, stats2 := evalRewriting(t, gsms, tc.edb)

			a1 := eval.AnswerSet(s1, gms.AnswerPred, tc.queryAtom)
			a2 := eval.AnswerSet(s2, gsms.AnswerPred, tc.queryAtom)
			if len(a1) == 0 {
				t.Fatal("no answers at all; data is wrong")
			}
			if len(a1) != len(a2) {
				t.Fatalf("GMS %d answers, GSMS %d", len(a1), len(a2))
			}
			for k := range a1 {
				if !a2[k] {
					t.Errorf("answer %s missing from GSMS", k)
				}
			}
			// Same derived and magic relations.
			if s1.FactCount(tc.answerPred) != s2.FactCount(tc.answerPred) {
				t.Errorf("derived facts differ: %d vs %d", s1.FactCount(tc.answerPred), s2.FactCount(tc.answerPred))
			}
			// GSMS avoids duplicate joins: it must not perform more join
			// probes than GMS on these workloads.
			if stats2.JoinProbes > stats1.JoinProbes {
				t.Logf("note: GSMS join probes %d > GMS %d on %s", stats2.JoinProbes, stats1.JoinProbes, tc.name)
			}
		})
	}
}

func nestedData(n int) *database.Store {
	s := sameGenData(n)
	for i := 1; i <= n; i++ {
		s.MustAddFact(ast.NewAtom("b1", ast.S(fmt.Sprintf("a%d", i)), ast.S(fmt.Sprintf("x%d", i))))
		s.MustAddFact(ast.NewAtom("b2", ast.S(fmt.Sprintf("x%d", i)), ast.S(fmt.Sprintf("y%d", i))))
	}
	return s
}

func rewriteMagic(t *testing.T, src, query string) *rewrite.Rewriting {
	t.Helper()
	prog := parser.MustParseProgram(src)
	q := parser.MustParseQuery(query)
	ad, err := adorn.Adorn(prog, q, sip.FullLeftToRight())
	if err != nil {
		t.Fatal(err)
	}
	res, err := magic.New(magic.Options{}).Rewrite(ad)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestListReverseEndToEnd(t *testing.T) {
	res := rewriteSrc(t, listReverseSrc, "reverse([a, b, c, d], Y)", sip.FullLeftToRight(), Options{})
	edb := database.NewStore()
	for _, e := range []string{"a", "b", "c", "d"} {
		edb.MustAddFact(ast.NewAtom("elem", ast.S(e)))
	}
	edb.MustAddFact(ast.NewAtom("emptylist", ast.S("nil")))
	store, _ := evalRewriting(t, res, edb)
	answers := eval.Answers(store, res.AnswerPred,
		ast.NewAdornedAtom("reverse", "bf", ast.List(ast.S("a"), ast.S("b"), ast.S("c"), ast.S("d")), ast.V("Y")))
	if len(answers) != 1 || answers[0][0].String() != "[d, c, b, a]" {
		t.Errorf("reverse answers = %v, want [[d, c, b, a]]", answers)
	}
}

func TestFreeHeadFallback(t *testing.T) {
	// An all-free query: the rewriting degenerates gracefully (no head
	// guard) and still returns the full answer set.
	res := rewriteSrc(t, ancestorSrc, "a(X, Y)", sip.FullLeftToRight(), Options{})
	edb := parentChain(4)
	store, _ := evalRewriting(t, res, edb)
	got := eval.AnswerSet(store, "a^ff", ast.NewAdornedAtom("a", "ff", ast.V("X"), ast.V("Y")))
	if len(got) != 10 {
		t.Errorf("free query answers = %d, want 10 (full ancestor relation of a 5-chain)", len(got))
	}
}

func TestRewriteErrors(t *testing.T) {
	rw := New(Options{})
	if _, err := rw.Rewrite(nil); err == nil {
		t.Error("nil adorned program must be rejected")
	}
	if rw.Name() != "generalized-supplementary-magic-sets" {
		t.Errorf("Name = %s", rw.Name())
	}
}
