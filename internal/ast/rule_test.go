package ast

import (
	"strings"
	"testing"
)

// ancestorProgram is the running example of Section 1 of the paper.
func ancestorProgram() *Program {
	return NewProgram(
		NewRule(NewAtom("anc", V("X"), V("Y")), NewAtom("par", V("X"), V("Y"))),
		NewRule(NewAtom("anc", V("X"), V("Y")), NewAtom("par", V("X"), V("Z")), NewAtom("anc", V("Z"), V("Y"))),
	)
}

// sameGenProgram is the nonlinear same-generation program of Example 1.
func sameGenProgram() *Program {
	return NewProgram(
		NewRule(NewAtom("sg", V("X"), V("Y")), NewAtom("flat", V("X"), V("Y"))),
		NewRule(NewAtom("sg", V("X"), V("Y")),
			NewAtom("up", V("X"), V("Z1")),
			NewAtom("sg", V("Z1"), V("Z2")),
			NewAtom("flat", V("Z2"), V("Z3")),
			NewAtom("sg", V("Z3"), V("Z4")),
			NewAtom("down", V("Z4"), V("Y"))),
	)
}

func TestRuleString(t *testing.T) {
	r := ancestorProgram().Rules[1]
	want := "anc(X, Y) :- par(X, Z), anc(Z, Y)."
	if r.String() != want {
		t.Errorf("Rule.String() = %q, want %q", r.String(), want)
	}
	fact := NewRule(NewAtom("par", S("john"), S("mary")))
	if fact.String() != "par(john, mary)." {
		t.Errorf("fact string = %q", fact.String())
	}
	if !fact.IsFact() || r.IsFact() {
		t.Error("IsFact misclassifies")
	}
}

func TestCheckWellFormed(t *testing.T) {
	good := ancestorProgram().Rules[1]
	if err := good.CheckWellFormed(); err != nil {
		t.Errorf("unexpected WF error: %v", err)
	}
	bad := NewRule(NewAtom("p", V("X"), V("W")), NewAtom("q", V("X")))
	if err := bad.CheckWellFormed(); err == nil {
		t.Error("expected WF violation for head variable W")
	}
}

func TestCheckConnected(t *testing.T) {
	good := sameGenProgram().Rules[1]
	if err := good.CheckConnected(); err != nil {
		t.Errorf("unexpected connectivity error: %v", err)
	}
	// Two disconnected body components.
	bad := NewRule(NewAtom("p", V("X")), NewAtom("q", V("X")), NewAtom("r", V("Y"), V("Y")))
	if err := bad.CheckConnected(); err == nil {
		t.Error("expected connectivity violation")
	}
	comps, withHead := bad.ConnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	headCount := 0
	for _, h := range withHead {
		if h {
			headCount++
		}
	}
	if headCount != 1 {
		t.Errorf("exactly one component should contain the head, got %d", headCount)
	}
}

func TestProgramValidate(t *testing.T) {
	if err := ancestorProgram().Validate(true); err != nil {
		t.Errorf("ancestor program should validate: %v", err)
	}
	if err := sameGenProgram().Validate(true); err != nil {
		t.Errorf("same-generation program should validate: %v", err)
	}
	withFact := NewProgram(NewRule(NewAtom("par", S("a"), S("b"))))
	if err := withFact.Validate(false); err == nil {
		t.Error("programs containing facts must be rejected")
	}
	arityClash := NewProgram(
		NewRule(NewAtom("p", V("X")), NewAtom("q", V("X"))),
		NewRule(NewAtom("p", V("X"), V("Y")), NewAtom("q", V("X")), NewAtom("q", V("Y"))),
	)
	if err := arityClash.Validate(false); err == nil {
		t.Error("arity clash must be rejected")
	}
}

func TestDerivedAndBasePredicates(t *testing.T) {
	p := sameGenProgram()
	derived := p.DerivedPredicates()
	if !derived["sg"] || len(derived) != 1 {
		t.Errorf("derived = %v", derived)
	}
}

func TestRulesForAndArities(t *testing.T) {
	p := ancestorProgram()
	idx := p.RulesFor("anc")
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Errorf("RulesFor(anc) = %v", idx)
	}
	ar, err := p.Arities()
	if err != nil {
		t.Fatal(err)
	}
	if ar["anc"] != 2 || ar["par"] != 2 {
		t.Errorf("arities = %v", ar)
	}
}

func TestIsDatalog(t *testing.T) {
	if !ancestorProgram().IsDatalog() {
		t.Error("ancestor program is Datalog")
	}
	listProg := NewProgram(
		NewRule(NewAtom("append", V("V"), Nil(), Cons(V("V"), Nil())), NewAtom("any", V("V"))),
	)
	if listProg.IsDatalog() {
		t.Error("list program is not Datalog")
	}
}

func TestSCCAndRecursion(t *testing.T) {
	// Nested same generation (Appendix A.1 problem 3): p depends on sg and p.
	p := NewProgram(
		NewRule(NewAtom("p", V("X"), V("Y")), NewAtom("b1", V("X"), V("Y"))),
		NewRule(NewAtom("p", V("X"), V("Y")),
			NewAtom("sg", V("X"), V("Z1")), NewAtom("p", V("Z1"), V("Z2")), NewAtom("b2", V("Z2"), V("Y"))),
		NewRule(NewAtom("sg", V("X"), V("Y")), NewAtom("flat", V("X"), V("Y"))),
		NewRule(NewAtom("sg", V("X"), V("Y")),
			NewAtom("up", V("X"), V("Z1")), NewAtom("sg", V("Z1"), V("Z2")), NewAtom("down", V("Z2"), V("Y"))),
	)
	sccs := p.StronglyConnectedComponents()
	if len(sccs) != 2 {
		t.Fatalf("expected 2 SCCs, got %v", sccs)
	}
	// sg must come before p (reverse topological order).
	if sccs[0][0] != "sg" || sccs[1][0] != "p" {
		t.Errorf("SCC order = %v, want [[sg] [p]]", sccs)
	}
}

func TestQuery(t *testing.T) {
	q := NewQuery(NewAtom("anc", S("john"), V("Y")))
	if q.Adornment() != "bf" {
		t.Errorf("adornment = %s", q.Adornment())
	}
	if len(q.BoundConstants()) != 1 || !Equal(q.BoundConstants()[0], S("john")) {
		t.Errorf("bound constants = %v", q.BoundConstants())
	}
	if q.String() != "anc(john, Y)?" {
		t.Errorf("query string = %s", q.String())
	}
	if err := q.Validate(); err != nil {
		t.Errorf("query should validate: %v", err)
	}
	bad := NewQuery(NewAtom("anc", C("f", V("X")), V("Y")))
	if err := bad.Validate(); err == nil {
		t.Error("partially instantiated query argument must be rejected")
	}
	dup := NewQuery(NewAtom("p", V("X"), V("X")))
	if err := dup.Validate(); err == nil {
		t.Error("repeated free variable must be rejected")
	}
}

func TestAdornmentHelpers(t *testing.T) {
	a := Adornment("bfb")
	if !a.Bound(0) || a.Bound(1) || !a.Bound(2) || a.Bound(3) {
		t.Error("Bound positions wrong")
	}
	if a.BoundCount() != 2 {
		t.Errorf("BoundCount = %d", a.BoundCount())
	}
	if !a.Valid() || Adornment("bx").Valid() {
		t.Error("Valid wrong")
	}
	got := AdornmentFor(
		[]Term{V("X"), V("Y"), C("f", V("X"), V("Z")), S("a")},
		map[string]bool{"X": true},
	)
	if got != "bffb" {
		t.Errorf("AdornmentFor = %s, want bffb", got)
	}
}

func TestAtomHelpers(t *testing.T) {
	a := NewAdornedAtom("sg", "bf", S("john"), V("Y"))
	if a.PredKey() != "sg^bf" {
		t.Errorf("PredKey = %s", a.PredKey())
	}
	if a.String() != "sg^bf(john, Y)" {
		t.Errorf("String = %s", a.String())
	}
	if a.Arity() != 2 {
		t.Errorf("Arity = %d", a.Arity())
	}
	b := a.BoundArgs()
	if len(b) != 1 || !Equal(b[0], S("john")) {
		t.Errorf("BoundArgs = %v", b)
	}
	f := a.FreeArgs()
	if len(f) != 1 || !Equal(f[0], V("Y")) {
		t.Errorf("FreeArgs = %v", f)
	}
	plain := NewAtom("q")
	if plain.String() != "q" || plain.PredKey() != "q" {
		t.Errorf("zero-arity atom renders as %s", plain.String())
	}
	if !IsGroundAtom(NewAtom("par", S("a"), S("b"))) || IsGroundAtom(a) {
		t.Error("IsGroundAtom wrong")
	}
	if !EqualAtoms(a, NewAdornedAtom("sg", "bf", S("john"), V("Y"))) {
		t.Error("EqualAtoms should hold")
	}
	if EqualAtoms(a, NewAdornedAtom("sg", "bb", S("john"), V("Y"))) {
		t.Error("EqualAtoms must distinguish adornments")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := ancestorProgram().Rules[1]
	c := r.Clone()
	c.Body[0].Args[0] = S("mutated")
	if strings.Contains(r.String(), "mutated") {
		t.Error("Clone shares argument slices with the original")
	}
}

func TestProgramString(t *testing.T) {
	s := ancestorProgram().String()
	want := "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).\n"
	if s != want {
		t.Errorf("Program.String() = %q, want %q", s, want)
	}
}
