package ast

import (
	"testing"
)

func TestUnifyBasic(t *testing.T) {
	cases := []struct {
		a, b Term
		ok   bool
	}{
		{V("X"), S("a"), true},
		{S("a"), V("X"), true},
		{S("a"), S("a"), true},
		{S("a"), S("b"), false},
		{I(1), I(1), true},
		{I(1), I(2), false},
		{I(1), S("1"), false},
		{V("X"), V("Y"), true},
		{C("f", V("X"), S("b")), C("f", S("a"), V("Y")), true},
		{C("f", V("X")), C("g", V("X")), false},
		{C("f", V("X")), C("f", V("X"), V("Y")), false},
		{C("f", V("X"), V("X")), C("f", S("a"), S("b")), false},
		{C("f", V("X"), V("X")), C("f", S("a"), S("a")), true},
	}
	for _, tc := range cases {
		s := NewSubst()
		if got := Unify(tc.a, tc.b, s); got != tc.ok {
			t.Errorf("Unify(%s, %s) = %v, want %v", tc.a, tc.b, got, tc.ok)
		}
	}
}

func TestUnifyProducesUnifier(t *testing.T) {
	a := C("f", V("X"), C("g", V("Y")), V("Y"))
	b := C("f", S("a"), V("Z"), I(3))
	s := NewSubst()
	if !Unify(a, b, s) {
		t.Fatal("expected unification to succeed")
	}
	ra, rb := s.Apply(a), s.Apply(b)
	if !Equal(ra, rb) {
		t.Errorf("unifier does not equate terms: %s vs %s", ra, rb)
	}
}

func TestUnifyOccursCheck(t *testing.T) {
	s := NewSubst()
	if Unify(V("X"), C("f", V("X")), s) {
		t.Error("occurs check failed: X unified with f(X)")
	}
	s = NewSubst()
	if Unify(C("f", V("X"), V("X")), C("f", V("Y"), C("g", V("Y"))), s) {
		t.Error("occurs check failed through indirection")
	}
}

func TestMatch(t *testing.T) {
	s := NewSubst()
	if !Match(C("f", V("X"), S("b")), C("f", S("a"), S("b")), s) {
		t.Fatal("expected match to succeed")
	}
	if !Equal(s["X"], S("a")) {
		t.Errorf("X bound to %s, want a", s["X"])
	}
	s = NewSubst()
	if Match(C("f", S("c")), C("f", S("a")), s) {
		t.Error("expected mismatch on constants")
	}
	// Match respects existing bindings.
	s = NewSubst()
	s["X"] = S("a")
	if Match(V("X"), S("b"), s) {
		t.Error("expected match to fail when X already bound to a different value")
	}
	if !Match(V("X"), S("a"), s) {
		t.Error("expected match to succeed when binding is consistent")
	}
}

func TestMatchAtom(t *testing.T) {
	pat := NewAtom("par", V("X"), V("Y"))
	s := NewSubst()
	if !MatchAtom(pat, []Term{S("john"), S("mary")}, s) {
		t.Fatal("expected atom match")
	}
	if !Equal(s["X"], S("john")) || !Equal(s["Y"], S("mary")) {
		t.Errorf("bindings: %v", s)
	}
	if MatchAtom(pat, []Term{S("john")}, NewSubst()) {
		t.Error("arity mismatch should fail")
	}
}

func TestApplyAtomAndRule(t *testing.T) {
	s := Subst{"X": S("john"), "Z": V("W")}
	r := NewRule(
		NewAtom("anc", V("X"), V("Y")),
		NewAtom("par", V("X"), V("Z")),
		NewAtom("anc", V("Z"), V("Y")),
	)
	got := NewRule(s.ApplyAtom(r.Head), s.ApplyAtom(r.Body[0]), s.ApplyAtom(r.Body[1]))
	want := "anc(john, Y) :- par(john, W), anc(W, Y)."
	if got.String() != want {
		t.Errorf("ApplyAtom over the rule = %s, want %s", got, want)
	}
}

func TestUnifyAtoms(t *testing.T) {
	a := NewAdornedAtom("sg", "bf", V("X"), V("Y"))
	b := NewAdornedAtom("sg", "bf", S("john"), V("Z"))
	s := NewSubst()
	if !UnifyAtoms(a, b, s) {
		t.Fatal("expected atoms to unify")
	}
	if !Equal(s.Apply(V("X")), S("john")) {
		t.Errorf("X = %s", s.Apply(V("X")))
	}
	c := NewAdornedAtom("sg", "ff", V("X"), V("Y"))
	if UnifyAtoms(a, c, NewSubst()) {
		t.Error("atoms with different adornments must not unify")
	}
	d := NewAtom("up", V("X"), V("Y"))
	if UnifyAtoms(a, d, NewSubst()) {
		t.Error("atoms with different predicates must not unify")
	}
}

func TestLookupChains(t *testing.T) {
	s := Subst{"X": V("Y"), "Y": V("Z"), "Z": S("end")}
	if got := s.Lookup("X"); !Equal(got, S("end")) {
		t.Errorf("Lookup(X) = %v, want end", got)
	}
	if got := s.Lookup("Q"); got != nil {
		t.Errorf("Lookup(Q) = %v, want nil", got)
	}
}

func TestBindPanicsOnConflict(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on conflicting Bind")
		}
	}()
	s := NewSubst()
	s.Bind("X", S("a"))
	s.Bind("X", S("a")) // same value: fine
	s.Bind("X", S("b")) // conflict: panics
}

func TestRenameApart(t *testing.T) {
	r := NewRule(
		NewAtom("anc", V("X"), V("Y")),
		NewAtom("par", V("X"), V("Z")),
		NewAtom("anc", V("Z"), V("Y")),
	)
	renamed := RenameApart(r, 7)
	for _, v := range renamed.Vars() {
		if v == "X" || v == "Y" || v == "Z" {
			t.Errorf("variable %s not renamed", v)
		}
	}
	// Structure preserved.
	if renamed.Head.Pred != "anc" || len(renamed.Body) != 2 {
		t.Error("rename changed rule structure")
	}
	// Shared variables stay shared.
	if renamed.Body[0].Args[1].String() != renamed.Body[1].Args[0].String() {
		t.Error("shared variable Z lost its sharing after renaming")
	}
}

func TestSubstClone(t *testing.T) {
	s := Subst{"X": S("a")}
	c := s.Clone()
	c["Y"] = S("b")
	if _, ok := s["Y"]; ok {
		t.Error("Clone is not independent of the original")
	}
}
