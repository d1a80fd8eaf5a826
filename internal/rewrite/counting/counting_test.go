package counting

import (
	gocontext "context" // the package has a type named context
	"errors"
	"fmt"
	"strings"
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
	return pp.EvaluateCtx(gocontext.Background(), edb, nil, opts)
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

func rewriteSrc(t *testing.T, src, query string, supplementary bool, opts Options) *rewrite.Rewriting {
	t.Helper()
	prog := parser.MustParseProgram(src)
	q := parser.MustParseQuery(query)
	ad, err := adorn.Adorn(prog, q, sip.FullLeftToRight())
	if err != nil {
		t.Fatal(err)
	}
	var rw *Rewriter
	if supplementary {
		rw = NewSupplementary(opts)
	} else {
		rw = New(opts)
	}
	res, err := rw.Rewrite(ad)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkGolden(t *testing.T, res *rewrite.Rewriting, want string) {
	t.Helper()
	got := strings.TrimSpace(res.String())
	want = strings.TrimSpace(dedent(want))
	if got != want {
		t.Errorf("rewriting mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func dedent(s string) string {
	lines := strings.Split(s, "\n")
	var out []string
	for _, l := range lines {
		out = append(out, strings.TrimSpace(l))
	}
	return strings.Join(out, "\n")
}

// TestAppendixA51AncestorGC reproduces Appendix A.5.1 before the semijoin
// optimization, in the forward-computable index convention (see the package
// documentation): the modified rule's head carries the indices of its cnt
// literal and the body literals carry s(I), k(K, i), h(H, j).
func TestAppendixA51AncestorGC(t *testing.T) {
	res := rewriteSrc(t, ancestorSrc, "a(john, Y)", false, Options{})
	checkGolden(t, res, `
		cnt_a_ind^bf(s(I), k(K, 2), h(H, 2), Z) :- cnt_a_ind^bf(I, K, H, X), p(X, Z).
		a_ind^bf(I, K, H, X, Y) :- cnt_a_ind^bf(I, K, H, X), p(X, Y).
		a_ind^bf(I, K, H, X, Y) :- cnt_a_ind^bf(I, K, H, X), p(X, Z), a_ind^bf(s(I), k(K, 2), h(H, 2), Z, Y).
		cnt_a_ind^bf(0, 0, 0, john).
	`)
	if res.AnswerPred != "a_ind^bf" || len(res.AnswerPattern.Args) != 5 || res.DroppedAnswerBound {
		t.Errorf("answer metadata wrong: %+v", res)
	}
}

// TestAppendixA51AncestorGCSemijoin reproduces Appendix A.5.1 after the
// semijoin optimization: the recursive modified rule loses its prefix
// literals and every a_ind occurrence loses its bound argument.
func TestAppendixA51AncestorGCSemijoin(t *testing.T) {
	res := rewriteSrc(t, ancestorSrc, "a(john, Y)", false, Options{Semijoin: true})
	checkGolden(t, res, `
		cnt_a_ind^bf(s(I), k(K, 2), h(H, 2), Z) :- cnt_a_ind^bf(I, K, H, X), p(X, Z).
		a_ind^bf(I, K, H, Y) :- cnt_a_ind^bf(I, K, H, X), p(X, Y).
		a_ind^bf(I, K, H, Y) :- a_ind^bf(s(I), k(K, 2), h(H, 2), Y).
		cnt_a_ind^bf(0, 0, 0, john).
	`)
	if !res.DroppedAnswerBound {
		t.Error("semijoin optimization should have been applied")
	}
	if res.AnswerPattern.String() != "a_ind^bf(0, 0, 0, Y)" {
		t.Errorf("answer pattern = %s", res.AnswerPattern)
	}
}

// TestExample6NonlinearSameGenerationGC reproduces Example 6.
func TestExample6NonlinearSameGenerationGC(t *testing.T) {
	res := rewriteSrc(t, nonlinearSameGenSrc, "sg(john, Y)", false, Options{})
	checkGolden(t, res, `
		cnt_sg_ind^bf(s(I), k(K, 2), h(H, 2), Z1) :- cnt_sg_ind^bf(I, K, H, X), up(X, Z1).
		cnt_sg_ind^bf(s(I), k(K, 2), h(H, 4), Z3) :- cnt_sg_ind^bf(I, K, H, X), up(X, Z1), sg_ind^bf(s(I), k(K, 2), h(H, 2), Z1, Z2), flat(Z2, Z3).
		sg_ind^bf(I, K, H, X, Y) :- cnt_sg_ind^bf(I, K, H, X), flat(X, Y).
		sg_ind^bf(I, K, H, X, Y) :- cnt_sg_ind^bf(I, K, H, X), up(X, Z1), sg_ind^bf(s(I), k(K, 2), h(H, 2), Z1, Z2), flat(Z2, Z3), sg_ind^bf(s(I), k(K, 2), h(H, 4), Z3, Z4), down(Z4, Y).
		cnt_sg_ind^bf(0, 0, 0, john).
	`)
}

// TestExample8SemijoinOptimization reproduces Example 8: the fully
// semijoin-optimized counting rules for the nonlinear same-generation
// program (Lemma 8.1 deletes the prefix joins, Theorem 8.3 drops the bound
// arguments).
func TestExample8SemijoinOptimization(t *testing.T) {
	res := rewriteSrc(t, nonlinearSameGenSrc, "sg(john, Y)", false, Options{Semijoin: true})
	checkGolden(t, res, `
		cnt_sg_ind^bf(s(I), k(K, 2), h(H, 2), Z1) :- cnt_sg_ind^bf(I, K, H, X), up(X, Z1).
		cnt_sg_ind^bf(s(I), k(K, 2), h(H, 4), Z3) :- sg_ind^bf(s(I), k(K, 2), h(H, 2), Z2), flat(Z2, Z3).
		sg_ind^bf(I, K, H, Y) :- cnt_sg_ind^bf(I, K, H, X), flat(X, Y).
		sg_ind^bf(I, K, H, Y) :- sg_ind^bf(s(I), k(K, 2), h(H, 4), Z4), down(Z4, Y).
		cnt_sg_ind^bf(0, 0, 0, john).
	`)
}

// TestAppendixA53NestedSameGenerationGCSemijoin reproduces the optimized
// rule set of Appendix A.5.3.
func TestAppendixA53NestedSameGenerationGCSemijoin(t *testing.T) {
	res := rewriteSrc(t, nestedSameGenSrc, "p(john, Y)", false, Options{Semijoin: true})
	checkGolden(t, res, `
		cnt_sg_ind^bf(s(I), k(K, 2), h(H, 1), X) :- cnt_p_ind^bf(I, K, H, X).
		cnt_p_ind^bf(s(I), k(K, 2), h(H, 2), Z1) :- sg_ind^bf(s(I), k(K, 2), h(H, 1), Z1).
		cnt_sg_ind^bf(s(I), k(K, 4), h(H, 2), Z1) :- cnt_sg_ind^bf(I, K, H, X), up(X, Z1).
		p_ind^bf(I, K, H, Y) :- cnt_p_ind^bf(I, K, H, X), b1(X, Y).
		p_ind^bf(I, K, H, Y) :- p_ind^bf(s(I), k(K, 2), h(H, 2), Z2), b2(Z2, Y).
		sg_ind^bf(I, K, H, Y) :- cnt_sg_ind^bf(I, K, H, X), flat(X, Y).
		sg_ind^bf(I, K, H, Y) :- sg_ind^bf(s(I), k(K, 4), h(H, 2), Z2), down(Z2, Y).
		cnt_p_ind^bf(0, 0, 0, john).
	`)
}

// TestAppendixA54ListReverseGC reproduces Appendix A.5.4, and checks that
// the semijoin optimization correctly refuses to apply to the list program
// (the head variable V of the append call escapes the arc tail), matching
// the paper, which leaves A.5.4 unoptimized.
func TestAppendixA54ListReverseGC(t *testing.T) {
	want := `
		cnt_reverse_ind^bf(s(I), k(K, 2), h(H, 1), X) :- cnt_reverse_ind^bf(I, K, H, [V | X]).
		cnt_append_ind^bbf(s(I), k(K, 2), h(H, 2), V, Z) :- cnt_reverse_ind^bf(I, K, H, [V | X]), reverse_ind^bf(s(I), k(K, 2), h(H, 1), X, Z).
		cnt_append_ind^bbf(s(I), k(K, 4), h(H, 1), V, X) :- cnt_append_ind^bbf(I, K, H, V, [W | X]).
		reverse_ind^bf(I, K, H, [], []) :- cnt_reverse_ind^bf(I, K, H, []), emptylist(X).
		reverse_ind^bf(I, K, H, [V | X], Y) :- cnt_reverse_ind^bf(I, K, H, [V | X]), reverse_ind^bf(s(I), k(K, 2), h(H, 1), X, Z), append_ind^bbf(s(I), k(K, 2), h(H, 2), V, Z, Y).
		append_ind^bbf(I, K, H, V, [], [V]) :- cnt_append_ind^bbf(I, K, H, V, []), elem(V).
		append_ind^bbf(I, K, H, V, [W | X], [W | Y]) :- cnt_append_ind^bbf(I, K, H, V, [W | X]), append_ind^bbf(s(I), k(K, 4), h(H, 1), V, X, Y).
		cnt_reverse_ind^bf(0, 0, 0, [a, b, c]).
	`
	plain := rewriteSrc(t, listReverseSrc, "reverse([a, b, c], Y)", false, Options{})
	checkGolden(t, plain, want)
	optimized := rewriteSrc(t, listReverseSrc, "reverse([a, b, c], Y)", false, Options{Semijoin: true})
	checkGolden(t, optimized, want)
	if optimized.DroppedAnswerBound {
		t.Error("semijoin must not apply to the list-reverse program")
	}
}

// TestAppendixA61AncestorGSC reproduces Appendix A.6.1 (after the standard
// supcnt_1 elimination, before the semijoin step).
func TestAppendixA61AncestorGSC(t *testing.T) {
	res := rewriteSrc(t, ancestorSrc, "a(john, Y)", true, Options{})
	checkGolden(t, res, `
		supcnt_2_2(I, K, H, X, Z) :- cnt_a_ind^bf(I, K, H, X), p(X, Z).
		cnt_a_ind^bf(s(I), k(K, 2), h(H, 2), Z) :- supcnt_2_2(I, K, H, X, Z).
		a_ind^bf(I, K, H, X, Y) :- cnt_a_ind^bf(I, K, H, X), p(X, Y).
		a_ind^bf(I, K, H, X, Y) :- supcnt_2_2(I, K, H, X, Z), a_ind^bf(s(I), k(K, 2), h(H, 2), Z, Y).
		cnt_a_ind^bf(0, 0, 0, john).
	`)
}

// TestAppendixA61AncestorGSCSemijoin reproduces the final optimized listing
// of A.6.1: the supplementary predicate loses the argument X (the paper
// notes "the first (nonindex) argument of the supcnt predicate may now be
// dropped") and the recursive modified rule reads the answer back through
// the indices alone.
func TestAppendixA61AncestorGSCSemijoin(t *testing.T) {
	res := rewriteSrc(t, ancestorSrc, "a(john, Y)", true, Options{Semijoin: true})
	checkGolden(t, res, `
		supcnt_2_2(I, K, H, Z) :- cnt_a_ind^bf(I, K, H, X), p(X, Z).
		cnt_a_ind^bf(s(I), k(K, 2), h(H, 2), Z) :- supcnt_2_2(I, K, H, Z).
		a_ind^bf(I, K, H, Y) :- cnt_a_ind^bf(I, K, H, X), p(X, Y).
		a_ind^bf(I, K, H, Y) :- a_ind^bf(s(I), k(K, 2), h(H, 2), Y).
		cnt_a_ind^bf(0, 0, 0, john).
	`)
}

// TestAppendixA63NestedSameGenerationGSCSemijoin reproduces the optimized
// listing of Appendix A.6.3.
func TestAppendixA63NestedSameGenerationGSCSemijoin(t *testing.T) {
	res := rewriteSrc(t, nestedSameGenSrc, "p(john, Y)", true, Options{Semijoin: true})
	checkGolden(t, res, `
		supcnt_2_2(I, K, H, Z1) :- sg_ind^bf(s(I), k(K, 2), h(H, 1), Z1).
		supcnt_4_2(I, K, H, Z1) :- cnt_sg_ind^bf(I, K, H, X), up(X, Z1).
		cnt_sg_ind^bf(s(I), k(K, 2), h(H, 1), X) :- cnt_p_ind^bf(I, K, H, X).
		cnt_p_ind^bf(s(I), k(K, 2), h(H, 2), Z1) :- supcnt_2_2(I, K, H, Z1).
		cnt_sg_ind^bf(s(I), k(K, 4), h(H, 2), Z1) :- supcnt_4_2(I, K, H, Z1).
		p_ind^bf(I, K, H, Y) :- cnt_p_ind^bf(I, K, H, X), b1(X, Y).
		p_ind^bf(I, K, H, Y) :- p_ind^bf(s(I), k(K, 2), h(H, 2), Z2), b2(Z2, Y).
		sg_ind^bf(I, K, H, Y) :- cnt_sg_ind^bf(I, K, H, X), flat(X, Y).
		sg_ind^bf(I, K, H, Y) :- sg_ind^bf(s(I), k(K, 4), h(H, 2), Z2), down(Z2, Y).
		cnt_p_ind^bf(0, 0, 0, john).
	`)
}

// TestExample7NonlinearSameGenerationGSC reproduces the structure of
// Example 7: the chain of supplementary counting predicates for the
// 5-literal recursive rule.
func TestExample7NonlinearSameGenerationGSC(t *testing.T) {
	res := rewriteSrc(t, nonlinearSameGenSrc, "sg(john, Y)", true, Options{})
	checkGolden(t, res, `
		supcnt_2_2(I, K, H, X, Z1) :- cnt_sg_ind^bf(I, K, H, X), up(X, Z1).
		supcnt_2_3(I, K, H, X, Z2) :- supcnt_2_2(I, K, H, X, Z1), sg_ind^bf(s(I), k(K, 2), h(H, 2), Z1, Z2).
		supcnt_2_4(I, K, H, X, Z3) :- supcnt_2_3(I, K, H, X, Z2), flat(Z2, Z3).
		cnt_sg_ind^bf(s(I), k(K, 2), h(H, 2), Z1) :- supcnt_2_2(I, K, H, X, Z1).
		cnt_sg_ind^bf(s(I), k(K, 2), h(H, 4), Z3) :- supcnt_2_4(I, K, H, X, Z3).
		sg_ind^bf(I, K, H, X, Y) :- cnt_sg_ind^bf(I, K, H, X), flat(X, Y).
		sg_ind^bf(I, K, H, X, Y) :- supcnt_2_4(I, K, H, X, Z3), sg_ind^bf(s(I), k(K, 2), h(H, 4), Z3, Z4), down(Z4, Y).
		cnt_sg_ind^bf(0, 0, 0, john).
	`)
}

// --- end-to-end evaluation -------------------------------------------------

func parentChain(n int) *database.Store {
	s := database.NewStore()
	for i := 0; i < n; i++ {
		s.MustAddFact(ast.NewAtom("p", ast.S(fmt.Sprintf("n%d", i)), ast.S(fmt.Sprintf("n%d", i+1))))
	}
	return s
}

// acyclicSameGenData builds an acyclic up/flat/down structure: a balanced
// two-level family in which the counting strategies terminate.
func acyclicSameGenData(n int) *database.Store {
	s := database.NewStore()
	for i := 1; i <= n; i++ {
		s.MustAddFact(ast.NewAtom("up", ast.S(fmt.Sprintf("a%d", i)), ast.S(fmt.Sprintf("p%d", i))))
		s.MustAddFact(ast.NewAtom("down", ast.S(fmt.Sprintf("p%d", i)), ast.S(fmt.Sprintf("a%d", i))))
		if i < n {
			s.MustAddFact(ast.NewAtom("flat", ast.S(fmt.Sprintf("p%d", i)), ast.S(fmt.Sprintf("p%d", i+1))))
			s.MustAddFact(ast.NewAtom("flat", ast.S(fmt.Sprintf("a%d", i)), ast.S(fmt.Sprintf("a%d", i+1))))
		}
	}
	return s
}

func nestedData(n int) *database.Store {
	s := acyclicSameGenData(n)
	for i := 1; i <= n; i++ {
		s.MustAddFact(ast.NewAtom("b1", ast.S(fmt.Sprintf("a%d", i)), ast.S(fmt.Sprintf("x%d", i))))
		s.MustAddFact(ast.NewAtom("b2", ast.S(fmt.Sprintf("x%d", i)), ast.S(fmt.Sprintf("y%d", i))))
	}
	return s
}

func evalRewriting(t *testing.T, res *rewrite.Rewriting, edb *database.Store, opts eval.Options) (*database.Store, *eval.Stats, error) {
	t.Helper()
	db := edb.Clone()
	for _, seed := range res.Seeds {
		db.MustAddFact(seed)
	}
	return semiNaive(res.Program, db, opts)
}

func answersOf(t *testing.T, res *rewrite.Rewriting, store *database.Store) map[string]bool {
	t.Helper()
	return eval.AnswerSet(store, res.AnswerPred, res.AnswerPattern)
}

func magicBaseline(t *testing.T, src, query string, edb *database.Store) map[string]bool {
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
	db := edb.Clone()
	for _, seed := range res.Seeds {
		db.MustAddFact(seed)
	}
	store, _, err := semiNaive(res.Program, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return eval.AnswerSet(store, res.AnswerPred, res.AnswerPattern)
}

// TestCountingAgreesWithMagic: Theorems 6.1 and 7.1 — on acyclic data all
// four counting variants compute the same answers as generalized magic sets.
func TestCountingAgreesWithMagic(t *testing.T) {
	cases := []struct {
		name, src, query string
		edb              *database.Store
	}{
		{"ancestor", ancestorSrc, "a(n2, Y)", parentChain(10)},
		{"nonlinear-sg", nonlinearSameGenSrc, "sg(a1, Y)", acyclicSameGenData(6)},
		{"nested-sg", nestedSameGenSrc, "p(a1, Y)", nestedData(5)},
	}
	variants := []struct {
		name string
		supp bool
		opts Options
	}{
		{"GC", false, Options{}},
		{"GC+semijoin", false, Options{Semijoin: true}},
		{"GSC", true, Options{}},
		{"GSC+semijoin", true, Options{Semijoin: true}},
	}
	for _, tc := range cases {
		want := magicBaseline(t, tc.src, tc.query, tc.edb)
		if len(want) == 0 {
			t.Fatalf("%s: magic baseline returned no answers; bad test data", tc.name)
		}
		for _, v := range variants {
			t.Run(tc.name+"/"+v.name, func(t *testing.T) {
				res := rewriteSrc(t, tc.src, tc.query, v.supp, v.opts)
				store, _, err := evalRewriting(t, res, tc.edb, eval.Options{MaxIterations: 200})
				if err != nil {
					t.Fatal(err)
				}
				got := answersOf(t, res, store)
				if len(got) != len(want) {
					t.Fatalf("answers %d, want %d\n got: %v\nwant: %v", len(got), len(want), got, want)
				}
				for k := range want {
					if !got[k] {
						t.Errorf("missing answer %s", k)
					}
				}
			})
		}
	}
}

// TestListReverseGSCEndToEnd evaluates the GSC rewriting of the list reverse
// program bottom-up.
func TestListReverseGSCEndToEnd(t *testing.T) {
	res := rewriteSrc(t, listReverseSrc, "reverse([a, b, c], Y)", true, Options{})
	edb := database.NewStore()
	for _, e := range []string{"a", "b", "c"} {
		edb.MustAddFact(ast.NewAtom("elem", ast.S(e)))
	}
	edb.MustAddFact(ast.NewAtom("emptylist", ast.S("nil")))
	store, _, err := evalRewriting(t, res, edb, eval.Options{MaxIterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	answers := eval.Answers(store, res.AnswerPred, res.AnswerPattern)
	if len(answers) != 1 || answers[0][0].String() != "[c, b, a]" {
		t.Errorf("reverse([a,b,c]) answers = %v", answers)
	}
}

// TestCountingDivergesOnCyclicData demonstrates Theorem 10.3 / the Section
// 11 discussion: on cyclic data the counting rewriting keeps increasing its
// indices and never reaches a fixpoint, while the magic rewriting of the
// same program terminates.
func TestCountingDivergesOnCyclicData(t *testing.T) {
	cyclic := database.NewStore()
	for i := 0; i < 4; i++ {
		cyclic.MustAddFact(ast.NewAtom("p", ast.S(fmt.Sprintf("c%d", i)), ast.S(fmt.Sprintf("c%d", (i+1)%4))))
	}
	res := rewriteSrc(t, ancestorSrc, "a(c0, Y)", false, Options{})
	_, _, err := evalRewriting(t, res, cyclic, eval.Options{MaxIterations: 60})
	if !errors.Is(err, eval.ErrLimitExceeded) {
		t.Errorf("expected the counting evaluation to exceed its limit on cyclic data, got %v", err)
	}

	// The magic rewriting terminates and finds all four nodes.
	want := magicBaseline(t, ancestorSrc, "a(c0, Y)", cyclic)
	if len(want) != 4 {
		t.Errorf("magic on cyclic data found %d answers, want 4", len(want))
	}
}

// TestCountingFactCountsVsMagic checks the Section 11 claim that counting
// refines magic: on a chain (unique derivations), the number of cnt facts
// equals the number of magic facts, and the indexed answer facts are no
// more numerous than the magic-sets answer facts.
func TestCountingFactCountsVsMagic(t *testing.T) {
	edb := parentChain(12)
	gc := rewriteSrc(t, ancestorSrc, "a(n0, Y)", false, Options{Semijoin: true})
	store, _, err := evalRewriting(t, gc, edb, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog := parser.MustParseProgram(ancestorSrc)
	q := parser.MustParseQuery("a(n0, Y)")
	ad, _ := adorn.Adorn(prog, q, sip.FullLeftToRight())
	gms, _ := magic.New(magic.Options{}).Rewrite(ad)
	db := edb.Clone()
	for _, s := range gms.Seeds {
		db.MustAddFact(s)
	}
	magicStore, _, err := semiNaive(gms.Program, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cntFacts := store.FactCount("cnt_a_ind^bf")
	magicFacts := magicStore.FactCount("magic_a^bf")
	if cntFacts != magicFacts {
		t.Errorf("cnt facts = %d, magic facts = %d; on a chain they must agree", cntFacts, magicFacts)
	}
	// On a chain each fact has a unique derivation, so the semijoin-reduced
	// answer relation is not larger than the magic answer relation.
	if store.FactCount("a_ind^bf") > magicStore.FactCount("a^bf") {
		t.Errorf("counting computed more answer facts (%d) than magic (%d)",
			store.FactCount("a_ind^bf"), magicStore.FactCount("a^bf"))
	}
}

func TestCountingErrors(t *testing.T) {
	// A query with no bound argument is rejected.
	prog := parser.MustParseProgram(ancestorSrc)
	ad, err := adorn.Adorn(prog, parser.MustParseQuery("a(X, Y)"), sip.FullLeftToRight())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{}).Rewrite(ad); err == nil {
		t.Error("all-free query must be rejected by the counting rewriting")
	}
	if _, err := New(Options{}).Rewrite(nil); err == nil {
		t.Error("nil adorned program must be rejected")
	}
	if New(Options{}).Name() != "generalized-counting" {
		t.Error("GC name wrong")
	}
	if NewSupplementary(Options{}).Name() != "generalized-supplementary-counting" {
		t.Error("GSC name wrong")
	}
}

// TestIndexVariableClash: a rule that already uses I, K and H as variable
// names must not have them captured by the index variables.
func TestIndexVariableClash(t *testing.T) {
	src := `
		r(I, K) :- e(I, K).
		r(I, K) :- e(I, H), r(H, K).
	`
	res := rewriteSrc(t, src, "r(a, Y)", false, Options{})
	edb := database.NewStore()
	edb.MustAddFact(ast.NewAtom("e", ast.S("a"), ast.S("b")))
	edb.MustAddFact(ast.NewAtom("e", ast.S("b"), ast.S("c")))
	store, _, err := evalRewriting(t, res, edb, eval.Options{MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	got := answersOf(t, res, store)
	if len(got) != 2 {
		t.Errorf("answers = %v, want b and c", got)
	}
}
