package sip

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func TestGreedyReordersBody(t *testing.T) {
	// With X bound in the head, the textual order would evaluate big(Z, Y)
	// with nothing bound; the greedy strategy picks link(X, Z) first and
	// then passes Z to the derived literal big.
	prog := parser.MustParseProgram(`
		big(X, Y) :- edge(X, Y).
		big(X, Y) :- edge(X, Z), big(Z, Y).
		r(X, Y) :- big(Z, Y), link(X, Z).
	`)
	rule := prog.Rules[2]
	derived := prog.DerivedPredicates()

	greedy, err := GreedyBoundFirst().SipFor(rule, "bf", derived)
	if err != nil {
		t.Fatal(err)
	}
	if len(greedy.Arcs) != 1 {
		t.Fatalf("arcs = %v", greedy.Arcs)
	}
	arc := greedy.Arcs[0]
	if arc.Head != 0 {
		t.Fatalf("arc should enter the big occurrence (position 0), got %d", arc.Head)
	}
	if !arc.Label["Z"] || len(arc.Label) != 1 {
		t.Errorf("label = %v, want {Z}", arc.LabelVars())
	}
	if !arc.HasTailMember(1) {
		t.Errorf("tail %v should contain link (position 1)", arc.Tail)
	}
	order, err := greedy.TotalOrder()
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != 1 || order[1] != 0 {
		t.Errorf("total order = %v, want link before big", order)
	}

	// The full left-to-right sip cannot pass anything into big here.
	ltr, err := FullLeftToRight().SipFor(rule, "bf", derived)
	if err != nil {
		t.Fatal(err)
	}
	if len(ltr.ArcsInto(0)) != 0 {
		t.Errorf("left-to-right sip should have no arc into big, got %v", ltr.Arcs)
	}
}

func TestGreedyMatchesLeftToRightWhenTextualOrderIsGood(t *testing.T) {
	// On the same-generation rule the textual order is already
	// bound-first, so the greedy sip coincides with the full sip.
	prog := parser.MustParseProgram(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).
	`)
	rule := prog.Rules[1]
	derived := prog.DerivedPredicates()
	greedy, err := GreedyBoundFirst().SipFor(rule, "bf", derived)
	if err != nil {
		t.Fatal(err)
	}
	full, err := FullLeftToRight().SipFor(rule, "bf", derived)
	if err != nil {
		t.Fatal(err)
	}
	if !Contains(greedy, full) || !Contains(full, greedy) {
		t.Errorf("greedy and full sips should coincide here:\n%s\nvs\n%s", greedy, full)
	}
	if GreedyBoundFirst().Name() != "greedy-bound-first" {
		t.Error("name wrong")
	}
}

func TestGreedyAdornmentMismatch(t *testing.T) {
	prog := parser.MustParseProgram(`p(X, Y) :- e(X, Y).`)
	if _, err := GreedyBoundFirst().SipFor(prog.Rules[0], "b", prog.DerivedPredicates()); err == nil {
		t.Error("adornment length mismatch must be rejected")
	}
}

func TestGreedyFreeHead(t *testing.T) {
	// With no bound head arguments the greedy strategy still produces a
	// valid sip (base literals feed the derived one).
	prog := parser.MustParseProgram(`
		q(X, Y) :- e(X, Y).
		r(X, Y) :- e(X, Z), q(Z, Y).
	`)
	rule := prog.Rules[1]
	g, err := GreedyBoundFirst().SipFor(rule, "ff", prog.DerivedPredicates())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range g.Arcs {
		if a.HasTailMember(HeadNode) {
			t.Errorf("head node must not appear with an all-free head: %v", a)
		}
	}
}

// TestGreedyBoundFirstSipsPinned pins the sips the strategy produces on the
// package's fixtures, as rendered text. The evaluator's join order used to
// share this strategy's tie-break (prefer base literals among equally bound
// ones) and no longer does; these sips — and so every adornment derived from
// them — must not move with it. The second and fourth cases are decided by
// that tie-break alone: with nothing bound, the base literal is taken before
// the derived one that textually precedes it.
func TestGreedyBoundFirstSipsPinned(t *testing.T) {
	sg, sgDerived := sameGenRule(t)
	anc, ancDerived := ancestorRule(t)
	reordered := parser.MustParseProgram(`
		big(X, Y) :- edge(X, Y).
		big(X, Y) :- edge(X, Z), big(Z, Y).
		r(X, Y) :- big(Z, Y), link(X, Z).
	`)
	cases := []struct {
		rule    ast.Rule
		adorn   ast.Adornment
		derived map[string]bool
		want    string
	}{
		{sg, "bf", sgDerived, "sip for sg(X, Y) (head adornment bf)\n" +
			"  {sg_h, up.0} ->{Z1} sg.1\n" +
			"  {sg_h, up.0, sg.1, flat.2} ->{Z3} sg.3\n"},
		{sg, "ff", sgDerived, "sip for sg(X, Y) (head adornment ff)\n" +
			"  {up.0} ->{Z1} sg.1\n" +
			"  {up.0, sg.1, flat.2} ->{Z3} sg.3\n"},
		{anc, "bf", ancDerived, "sip for anc(X, Y) (head adornment bf)\n" +
			"  {anc_h, par.0} ->{Z} anc.1\n"},
		{reordered.Rules[2], "ff", reordered.DerivedPredicates(), "sip for r(X, Y) (head adornment ff)\n" +
			"  {link.1} ->{Z} big.0\n"},
		{reordered.Rules[2], "bf", reordered.DerivedPredicates(), "sip for r(X, Y) (head adornment bf)\n" +
			"  {r_h, link.1} ->{Z} big.0\n"},
	}
	for _, c := range cases {
		g, err := GreedyBoundFirst().SipFor(c.rule, c.adorn, c.derived)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.String(); got != c.want {
			t.Errorf("sip for %s under %s moved:\n got %q\nwant %q", c.rule, c.adorn, got, c.want)
		}
	}
}

// TestGreedyOrderLeadAndTextualTies pins the evaluator's join order: the
// forced literal leads, the rest follow by bound-argument count, and equally
// bound literals keep their textual order — base or derived alike.
func TestGreedyOrderLeadAndTextualTies(t *testing.T) {
	guard := parser.MustParseProgram(`anc(X, Y) :- m_anc(X), par(X, Z), anc(Z, Y).`).Rules[0].Body
	sg, _ := sameGenRule(t)
	cases := []struct {
		body  []ast.Atom
		first int
		want  []int
	}{
		{guard, -1, []int{0, 1, 2}},
		{guard, 0, []int{0, 1, 2}},
		{guard, 1, []int{1, 0, 2}},
		{guard, 2, []int{2, 1, 0}},
		{sg.Body, 3, []int{3, 2, 1, 0, 4}},
	}
	for _, c := range cases {
		got := GreedyOrder(c.body, nil, c.first)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("GreedyOrder(%v, first=%d) = %v, want %v", c.body, c.first, got, c.want)
		}
	}
}
