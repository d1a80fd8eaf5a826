package sip

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// sameGenRule is the second rule of the nonlinear same-generation program of
// Example 1: sg(X,Y) :- up(X,Z1), sg(Z1,Z2), flat(Z2,Z3), sg(Z3,Z4), down(Z4,Y).
func sameGenRule(t *testing.T) (ast.Rule, map[string]bool) {
	t.Helper()
	prog := parser.MustParseProgram(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).
	`)
	return prog.Rules[1], prog.DerivedPredicates()
}

// ancestorRule is the recursive ancestor rule anc(X,Y) :- par(X,Z), anc(Z,Y).
func ancestorRule(t *testing.T) (ast.Rule, map[string]bool) {
	t.Helper()
	prog := parser.MustParseProgram(`
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`)
	return prog.Rules[1], prog.DerivedPredicates()
}

func TestFullLeftToRightSameGeneration(t *testing.T) {
	rule, derived := sameGenRule(t)
	g, err := FullLeftToRight().SipFor(rule, "bf", derived)
	if err != nil {
		t.Fatal(err)
	}
	// Example 1 sip (I)/(IV): arcs enter sg.1 (position 1) and sg.2
	// (position 3) only, labelled Z1 and Z3 respectively.
	if len(g.Arcs) != 2 {
		t.Fatalf("expected 2 arcs, got %d:\n%s", len(g.Arcs), g)
	}
	a1, a2 := g.Arcs[0], g.Arcs[1]
	if a1.Head != 1 || len(a1.Label) != 1 || !a1.Label["Z1"] {
		t.Errorf("first arc = %v (label %v)", a1, a1.LabelVars())
	}
	if a2.Head != 3 || len(a2.Label) != 1 || !a2.Label["Z3"] {
		t.Errorf("second arc = %v (label %v)", a2, a2.LabelVars())
	}
	// Full sip: the tail of the second arc carries everything computed so
	// far — head, up, sg.1 and flat.
	if len(a2.Tail) != 4 || !a2.HasTailMember(HeadNode) || !a2.HasTailMember(0) || !a2.HasTailMember(1) || !a2.HasTailMember(2) {
		t.Errorf("second arc tail = %v, want {head, 0, 1, 2}", a2.Tail)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("generated sip should validate: %v", err)
	}
}

func TestPartialLeftToRightSameGeneration(t *testing.T) {
	rule, derived := sameGenRule(t)
	g, err := PartialLeftToRight().SipFor(rule, "bf", derived)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Arcs) != 2 {
		t.Fatalf("expected 2 arcs, got %d:\n%s", len(g.Arcs), g)
	}
	// Sip (V): {sg_h; up} -> Z1 sg.1 and {sg.1; flat} -> Z3 sg.2.
	a1, a2 := g.Arcs[0], g.Arcs[1]
	if !a1.HasTailMember(HeadNode) || !a1.HasTailMember(0) || len(a1.Tail) != 2 {
		t.Errorf("first arc tail = %v, want {head, up}", a1.Tail)
	}
	if !a2.HasTailMember(1) || !a2.HasTailMember(2) || len(a2.Tail) != 2 {
		t.Errorf("second arc tail = %v, want {sg.1, flat}", a2.Tail)
	}
	if a2.HasTailMember(HeadNode) || a2.HasTailMember(0) {
		t.Errorf("partial sip must not carry head/up into the second arc: %v", a2.Tail)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("generated sip should validate: %v", err)
	}
}

func TestPartialContainedInFull(t *testing.T) {
	rule, derived := sameGenRule(t)
	full, _ := FullLeftToRight().SipFor(rule, "bf", derived)
	partial, _ := PartialLeftToRight().SipFor(rule, "bf", derived)
	if !Contains(partial, full) {
		t.Error("the partial left-to-right sip must be contained in the full one")
	}
	if !ProperlyContains(partial, full) {
		t.Error("the containment must be proper (the partial sip is a partial sip)")
	}
	if ProperlyContains(full, full) {
		t.Error("a sip does not properly contain itself")
	}
	if !Contains(full, full) {
		t.Error("containment must be reflexive")
	}
	if Contains(full, partial) {
		t.Error("the full sip is not contained in the partial sip")
	}
}

func TestAncestorSip(t *testing.T) {
	rule, derived := ancestorRule(t)
	g, err := FullLeftToRight().SipFor(rule, "bf", derived)
	if err != nil {
		t.Fatal(err)
	}
	// One arc: {anc_h, par} -> Z anc.1.
	if len(g.Arcs) != 1 {
		t.Fatalf("arcs = %v", g.Arcs)
	}
	a := g.Arcs[0]
	if a.Head != 1 || !a.Label["Z"] || len(a.Label) != 1 {
		t.Errorf("arc = %+v", a)
	}
	order, err := g.TotalOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Errorf("total order = %v", order)
	}
}

func TestFreeQueryProducesNoArcs(t *testing.T) {
	rule, derived := ancestorRule(t)
	g, err := FullLeftToRight().SipFor(rule, "ff", derived)
	if err != nil {
		t.Fatal(err)
	}
	// With no bound head arguments, par binds Z and X, so an arc into anc.1
	// labelled Z (and possibly X, Y is not available) is still legal — but
	// the head node must not appear in any tail.
	for _, a := range g.Arcs {
		if a.HasTailMember(HeadNode) {
			t.Errorf("head node must not appear when no head argument is bound: %v", a)
		}
	}
}

func TestBoundHeadVarsAndPassedVars(t *testing.T) {
	rule, derived := sameGenRule(t)
	g, _ := FullLeftToRight().SipFor(rule, "bf", derived)
	hv := g.BoundHeadVars()
	if !hv["X"] || len(hv) != 1 {
		t.Errorf("BoundHeadVars = %v", hv)
	}
	pv := g.PassedVars(1)
	if !pv["Z1"] || len(pv) != 1 {
		t.Errorf("PassedVars(1) = %v", pv)
	}
	if len(g.PassedVars(0)) != 0 || len(g.PassedVars(4)) != 0 {
		t.Error("base literals must have no incoming bindings in this sip")
	}
}

func TestValidateRejectsBadSips(t *testing.T) {
	rule, _ := ancestorRule(t)

	// Label variable not in tail.
	bad1 := &Graph{Rule: rule, HeadAdornment: "bf", Arcs: []Arc{{
		Tail: []int{HeadNode}, Head: 1, Label: map[string]bool{"Q": true},
	}}}
	if err := bad1.Validate(); err == nil {
		t.Error("label variable outside the tail must be rejected")
	}

	// Label that does not cover any argument of the target.
	bad2 := &Graph{Rule: rule, HeadAdornment: "bf", Arcs: []Arc{{
		Tail: []int{HeadNode}, Head: 0, Label: map[string]bool{"X": true},
	}}}
	// par(X, Z): argument X is covered, so this one is actually fine; use a
	// label that covers nothing by targeting anc.1 with only X bound — X does
	// not appear in anc(Z, Y).
	bad2.Arcs[0].Head = 1
	if err := bad2.Validate(); err == nil {
		t.Error("label covering no argument of the target must be rejected")
	}

	// Cyclic precedence: two arcs where each target is in the other's tail.
	ruleSG, derived := sameGenRule(t)
	full, _ := FullLeftToRight().SipFor(ruleSG, "bf", derived)
	_ = derived
	// sg.1(Z1, Z2) and flat(Z2, Z3) each claim to bind Z2 for the other:
	// every per-arc condition holds, but the precedence relation is cyclic.
	cyclic := &Graph{Rule: ruleSG, HeadAdornment: "bf", Arcs: []Arc{
		{Tail: []int{2}, Head: 1, Label: map[string]bool{"Z2": true}},
		{Tail: []int{1}, Head: 2, Label: map[string]bool{"Z2": true}},
	}}
	if err := cyclic.Validate(); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("cyclic sip must be rejected, got %v", err)
	}
	_ = full

	// Empty label and empty tail.
	bad3 := &Graph{Rule: rule, HeadAdornment: "bf", Arcs: []Arc{{Tail: nil, Head: 1, Label: map[string]bool{"Z": true}}}}
	if err := bad3.Validate(); err == nil {
		t.Error("empty tail must be rejected")
	}
	bad4 := &Graph{Rule: rule, HeadAdornment: "bf", Arcs: []Arc{{Tail: []int{0}, Head: 1, Label: map[string]bool{}}}}
	if err := bad4.Validate(); err == nil {
		t.Error("empty label must be rejected")
	}

	// Arc head out of range, tail member out of range, self-loop, duplicate.
	bad5 := &Graph{Rule: rule, HeadAdornment: "bf", Arcs: []Arc{{Tail: []int{0}, Head: 9, Label: map[string]bool{"Z": true}}}}
	if err := bad5.Validate(); err == nil {
		t.Error("arc head out of range must be rejected")
	}
	bad6 := &Graph{Rule: rule, HeadAdornment: "bf", Arcs: []Arc{{Tail: []int{7}, Head: 1, Label: map[string]bool{"Z": true}}}}
	if err := bad6.Validate(); err == nil {
		t.Error("tail member out of range must be rejected")
	}
	bad7 := &Graph{Rule: rule, HeadAdornment: "bf", Arcs: []Arc{{Tail: []int{1}, Head: 1, Label: map[string]bool{"Z": true}}}}
	if err := bad7.Validate(); err == nil {
		t.Error("self-loop must be rejected")
	}
	bad8 := &Graph{Rule: rule, HeadAdornment: "bf", Arcs: []Arc{{Tail: []int{0, 0}, Head: 1, Label: map[string]bool{"Z": true}}}}
	if err := bad8.Validate(); err == nil {
		t.Error("duplicate tail member must be rejected")
	}

	// Mismatched adornment length.
	bad9 := &Graph{Rule: rule, HeadAdornment: "b"}
	if err := bad9.Validate(); err == nil {
		t.Error("adornment length mismatch must be rejected")
	}
}

func TestStrategyAdornmentMismatch(t *testing.T) {
	rule, derived := ancestorRule(t)
	if _, err := FullLeftToRight().SipFor(rule, "b", derived); err == nil {
		t.Error("adornment of wrong length must be rejected")
	}
}

func TestFixedStrategy(t *testing.T) {
	rule, derived := sameGenRule(t)
	partial, _ := PartialLeftToRight().SipFor(rule, "bf", derived)
	fixed := NewFixed(FullLeftToRight())
	fixed.Register(partial)

	got, err := fixed.SipFor(rule, "bf", derived)
	if err != nil {
		t.Fatal(err)
	}
	if !ProperlyContains(got, mustFull(t, rule, derived)) {
		t.Error("fixed strategy should have returned the registered partial sip")
	}
	// Unregistered rule falls back to the default.
	other, derived2 := ancestorRule(t)
	g, err := fixed.SipFor(other, "bf", derived2)
	if err != nil || len(g.Arcs) != 1 {
		t.Errorf("fallback failed: %v %v", g, err)
	}
	if fixed.Name() != "fixed(full-left-to-right)" {
		t.Errorf("Name = %s", fixed.Name())
	}
}

func mustFull(t *testing.T, rule ast.Rule, derived map[string]bool) *Graph {
	t.Helper()
	g, err := FullLeftToRight().SipFor(rule, "bf", derived)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStringRendering(t *testing.T) {
	rule, derived := sameGenRule(t)
	g, _ := FullLeftToRight().SipFor(rule, "bf", derived)
	out := g.String()
	for _, want := range []string{"sg_h", "up.0", "sg.1", "sg.3", "Z1", "Z3"} {
		if !strings.Contains(out, want) {
			t.Errorf("sip rendering missing %q:\n%s", want, out)
		}
	}
}

func TestStrategyNames(t *testing.T) {
	if FullLeftToRight().Name() != "full-left-to-right" {
		t.Error("full name wrong")
	}
	if PartialLeftToRight().Name() != "partial-left-to-right" {
		t.Error("partial name wrong")
	}
}

func TestListReverseSip(t *testing.T) {
	// reverse(V|X, Y) :- reverse(X, Z), append(V, Z, Y) with head adornment
	// bf: the head binds V and X; the arc into reverse.0 is labelled X, and
	// the arc into append.1 is labelled {V, Z} (V from the head, Z from
	// reverse).
	prog := parser.MustParseProgram(`
		append(V, [W | X], [W | Y]) :- append(V, X, Y).
		reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).
	`)
	rule := prog.Rules[1]
	derived := prog.DerivedPredicates()
	g, err := FullLeftToRight().SipFor(rule, "bf", derived)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Arcs) != 2 {
		t.Fatalf("expected 2 arcs, got:\n%s", g)
	}
	if !g.Arcs[0].Label["X"] || len(g.Arcs[0].Label) != 1 {
		t.Errorf("arc into reverse.0 labelled %v, want {X}", g.Arcs[0].LabelVars())
	}
	if !g.Arcs[1].Label["V"] || !g.Arcs[1].Label["Z"] || len(g.Arcs[1].Label) != 2 {
		t.Errorf("arc into append.1 labelled %v, want {V, Z}", g.Arcs[1].LabelVars())
	}
}
