package adorn

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/sip"
)

// The four problems of Appendix A.1.
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
	// The nonlinear same-generation program of Examples 1-8.
	nonlinearSameGenSrc = `
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).
	`
)

func adornSrc(t *testing.T, src, query string, strat sip.Strategy) *Program {
	t.Helper()
	prog := parser.MustParseProgram(src)
	q := parser.MustParseQuery(query)
	ad, err := Adorn(prog, q, strat)
	if err != nil {
		t.Fatal(err)
	}
	return ad
}

// TestAppendixA2Ancestor reproduces Appendix A.2, problem 1.
func TestAppendixA2Ancestor(t *testing.T) {
	ad := adornSrc(t, ancestorSrc, "a(john, Y)", sip.FullLeftToRight())
	want := []string{
		"a^bf(X, Y) :- p(X, Y).",
		"a^bf(X, Y) :- p(X, Z), a^bf(Z, Y).",
	}
	checkRules(t, ad, want)
	if ad.QueryPred != "a^bf" || ad.QueryAdornment != "bf" {
		t.Errorf("query pred/adornment = %s / %s", ad.QueryPred, ad.QueryAdornment)
	}
}

// TestAppendixA2NonlinearAncestor reproduces Appendix A.2, problem 2.
func TestAppendixA2NonlinearAncestor(t *testing.T) {
	ad := adornSrc(t, nonlinearAncestorSrc, "a(john, Y)", sip.FullLeftToRight())
	want := []string{
		"a^bf(X, Y) :- p(X, Y).",
		"a^bf(X, Y) :- a^bf(X, Z), a^bf(Z, Y).",
	}
	checkRules(t, ad, want)
}

// TestAppendixA2NestedSameGeneration reproduces Appendix A.2, problem 3.
func TestAppendixA2NestedSameGeneration(t *testing.T) {
	ad := adornSrc(t, nestedSameGenSrc, "p(john, Y)", sip.FullLeftToRight())
	want := []string{
		"p^bf(X, Y) :- b1(X, Y).",
		"p^bf(X, Y) :- sg^bf(X, Z1), p^bf(Z1, Z2), b2(Z2, Y).",
		"sg^bf(X, Y) :- flat(X, Y).",
		"sg^bf(X, Y) :- up(X, Z1), sg^bf(Z1, Z2), down(Z2, Y).",
	}
	checkRules(t, ad, want)
}

// TestAppendixA2ListReverse reproduces Appendix A.2, problem 4: reverse^bf
// calls append^bbf (first two arguments bound).
func TestAppendixA2ListReverse(t *testing.T) {
	ad := adornSrc(t, listReverseSrc, "reverse([a, b, c], Y)", sip.FullLeftToRight())
	want := []string{
		"reverse^bf([], []) :- emptylist(X).",
		"reverse^bf([V | X], Y) :- reverse^bf(X, Z), append^bbf(V, Z, Y).",
		"append^bbf(V, [], [V]) :- elem(V).",
		"append^bbf(V, [W | X], [W | Y]) :- append^bbf(V, X, Y).",
	}
	checkRules(t, ad, want)
}

// TestExample3NonlinearSameGeneration reproduces Example 3 of the paper.
func TestExample3NonlinearSameGeneration(t *testing.T) {
	full := adornSrc(t, nonlinearSameGenSrc, "sg(john, Y)", sip.FullLeftToRight())
	want := []string{
		"sg^bf(X, Y) :- flat(X, Y).",
		"sg^bf(X, Y) :- up(X, Z1), sg^bf(Z1, Z2), flat(Z2, Z3), sg^bf(Z3, Z4), down(Z4, Y).",
	}
	checkRules(t, full, want)

	// Example 3 notes that the partial sip of Example 2 yields the same
	// adorned program; the difference surfaces only in later rewriting.
	partial := adornSrc(t, nonlinearSameGenSrc, "sg(john, Y)", sip.PartialLeftToRight())
	checkRules(t, partial, want)
}

func checkRules(t *testing.T, ad *Program, want []string) {
	t.Helper()
	if len(ad.Rules) != len(want) {
		t.Fatalf("expected %d adorned rules, got %d:\n%s", len(want), len(ad.Rules), ad)
	}
	for i, w := range want {
		if got := ad.Rules[i].Rule.String(); got != w {
			t.Errorf("rule %d:\n got  %s\n want %s", i+1, got, w)
		}
	}
}

func TestAdornmentWithFreeQuery(t *testing.T) {
	// A query with no bound arguments starts from the all-free adornment.
	// The full left-to-right sip still passes Z (bound sideways by p(X, Z))
	// into the recursive occurrence, so a bound version a^bf appears as well.
	ad := adornSrc(t, ancestorSrc, "a(X, Y)", sip.FullLeftToRight())
	if ad.QueryAdornment != "ff" {
		t.Fatalf("adornment = %s", ad.QueryAdornment)
	}
	want := []string{
		"a^ff(X, Y) :- p(X, Y).",
		"a^ff(X, Y) :- p(X, Z), a^bf(Z, Y).",
		"a^bf(X, Y) :- p(X, Y).",
		"a^bf(X, Y) :- p(X, Z), a^bf(Z, Y).",
	}
	checkRules(t, ad, want)
}

// TestZeroArityQueryPred checks that a zero-arity query, whose adornment is
// empty, names its adorned predicate the way its rules' heads do: without
// the "^" that an adorned key carries.
func TestZeroArityQueryPred(t *testing.T) {
	ad := adornSrc(t, "r(X) :- e(X).\nhit :- r(n0).\n", "hit", sip.FullLeftToRight())
	if got, want := ad.QueryPred, ad.Rules[0].Rule.Head.PredKey(); got != want {
		t.Errorf("QueryPred = %q, want the first rule's head key %q", got, want)
	}
}

func TestAdornmentSecondArgumentBound(t *testing.T) {
	// Query a(X, john): the full left-to-right sip evaluates p(X, Z) with
	// nothing bound, which makes Z available sideways; together with the
	// bound Y from the head the recursive occurrence becomes a^bb.
	ad := adornSrc(t, ancestorSrc, "a(X, john)", sip.FullLeftToRight())
	if ad.QueryAdornment != "fb" {
		t.Fatalf("adornment = %s", ad.QueryAdornment)
	}
	want := []string{
		"a^fb(X, Y) :- p(X, Y).",
		"a^fb(X, Y) :- p(X, Z), a^bb(Z, Y).",
		"a^bb(X, Y) :- p(X, Y).",
		"a^bb(X, Y) :- p(X, Z), a^bb(Z, Y).",
	}
	checkRules(t, ad, want)
}

func TestMultipleAdornmentsForOnePredicate(t *testing.T) {
	// A program in which the same predicate is called once with the first
	// argument bound and once with the second argument bound, producing two
	// adorned versions.
	src := `
		q(X, Y) :- e(X, Y).
		q(X, Y) :- e(X, Z), q(Z, Y).
		r(X, Y) :- q(X, Y).
		r(X, Y) :- s(Y, W), q(W, X).
	`
	ad := adornSrc(t, src, "r(a, Y)", sip.FullLeftToRight())
	preds := ad.AdornedPredicates()
	if !preds["r^bf"] || !preds["q^bf"] {
		t.Errorf("adorned predicates = %v", preds)
	}
	// In rule 4, with head r^bf(X, Y): X is bound and s(Y, W) is evaluated
	// free, binding both Y and W sideways, so q(W, X) becomes q^bb.
	if !preds["q^bb"] {
		t.Errorf("expected q^bb version, got %v", preds)
	}
	prog := ad.Program()
	if err := prog.Validate(false); err != nil {
		t.Errorf("adorned program should validate: %v", err)
	}
}

func TestDropAdornmentsRecoversOriginalRule(t *testing.T) {
	ad := adornSrc(t, nestedSameGenSrc, "p(john, Y)", sip.FullLeftToRight())
	orig := parser.MustParseProgram(nestedSameGenSrc)
	for _, r := range ad.Rules {
		plain := DropAdornments(r.Rule)
		src := orig.Rules[r.Source]
		if plain.String() != src.String() {
			t.Errorf("dropping adornments of %s gives %s, want %s", r.Rule, plain, src)
		}
	}
}

func TestAdornErrors(t *testing.T) {
	prog := parser.MustParseProgram(ancestorSrc)
	// Query on a base predicate.
	if _, err := Adorn(prog, parser.MustParseQuery("p(a, Y)"), sip.FullLeftToRight()); err == nil {
		t.Error("query on a base predicate must be rejected")
	}
	// Query with the wrong arity.
	if _, err := Adorn(prog, parser.MustParseQuery("a(john, Y, Z)"), sip.FullLeftToRight()); err == nil {
		t.Error("query with wrong arity must be rejected")
	}
	// Program containing a fact.
	unit := parser.MustParse("p(a, b). a(X, Y) :- p(X, Y).")
	bad := ast.NewProgram(append(unit.Rules, ast.NewRule(unit.Facts[0]))...)
	if _, err := Adorn(bad, parser.MustParseQuery("a(a, Y)"), sip.FullLeftToRight()); err == nil {
		t.Error("program containing a fact must be rejected")
	}
}

func TestProgramStringRendering(t *testing.T) {
	ad := adornSrc(t, ancestorSrc, "a(john, Y)", sip.FullLeftToRight())
	out := ad.String()
	for _, want := range []string{"1. a^bf(X, Y) :- p(X, Y).", "Query: a^bf(john, Y)?"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	if ad.SipStrategy != "full-left-to-right" {
		t.Errorf("SipStrategy = %s", ad.SipStrategy)
	}
}

func TestSipsAttachedToRules(t *testing.T) {
	ad := adornSrc(t, nonlinearSameGenSrc, "sg(john, Y)", sip.FullLeftToRight())
	// The sip of the recursive rule must have arcs into positions 1 and 3.
	var rec Rule
	found := false
	for _, r := range ad.Rules {
		if len(r.Rule.Body) == 5 {
			rec = r
			found = true
		}
	}
	if !found {
		t.Fatal("recursive rule not found")
	}
	if rec.Sip == nil || len(rec.Sip.Arcs) != 2 {
		t.Fatalf("sip not attached or wrong: %v", rec.Sip)
	}
	if rec.Sip.Arcs[0].Head != 1 || rec.Sip.Arcs[1].Head != 3 {
		t.Errorf("sip arcs into %d and %d, want 1 and 3", rec.Sip.Arcs[0].Head, rec.Sip.Arcs[1].Head)
	}
}

// TestGreedySipAdornment: with the greedy bound-first sip the recursive
// literal placed first in the body text still receives bindings (through the
// reordered evaluation), whereas the left-to-right sip leaves it all-free.
func TestGreedySipAdornment(t *testing.T) {
	src := `
		big(X, Y) :- edge(X, Y).
		big(X, Y) :- edge(X, Z), big(Z, Y).
		r(X, Y) :- big(Z, Y), link(X, Z).
	`
	greedy := adornSrc(t, src, "r(a, Y)", sip.GreedyBoundFirst())
	preds := greedy.AdornedPredicates()
	if !preds["big^bf"] {
		t.Errorf("greedy adornment should produce big^bf, got %v", preds)
	}
	if preds["big^ff"] {
		t.Errorf("greedy adornment should not need big^ff, got %v", preds)
	}
	ltr := adornSrc(t, src, "r(a, Y)", sip.FullLeftToRight())
	if !ltr.AdornedPredicates()["big^ff"] {
		t.Errorf("left-to-right adornment should call big^ff here, got %v", ltr.AdornedPredicates())
	}
	if greedy.SipStrategy != "greedy-bound-first" {
		t.Errorf("SipStrategy = %s", greedy.SipStrategy)
	}
}
