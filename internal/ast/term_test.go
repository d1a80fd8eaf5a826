package ast

import (
	"strings"
	"testing"
)

func TestTermConstructorsAndString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{V("X"), "X"},
		{S("john"), "john"},
		{I(42), "42"},
		{I(-7), "-7"},
		{C("f", V("X"), S("a")), "f(X, a)"},
		{C("g"), "g()"},
		{Nil(), "[]"},
		{List(S("a"), S("b"), S("c")), "[a, b, c]"},
		{Cons(V("H"), V("T")), "[H | T]"},
		{Cons(S("a"), Cons(S("b"), V("T"))), "[a, b | T]"},
		{List(), "[]"},
		{List(I(1), C("f", V("X"))), "[1, f(X)]"},
	}
	for _, tc := range cases {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("String(%#v) = %q, want %q", tc.term, got, tc.want)
		}
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Term
		want bool
	}{
		{V("X"), V("X"), true},
		{V("X"), V("Y"), false},
		{S("a"), S("a"), true},
		{S("a"), S("b"), false},
		{S("a"), V("a"), false},
		{I(1), I(1), true},
		{I(1), I(2), false},
		{I(1), S("1"), false},
		{C("f", V("X")), C("f", V("X")), true},
		{C("f", V("X")), C("f", V("Y")), false},
		{C("f", V("X")), C("g", V("X")), false},
		{C("f", V("X")), C("f", V("X"), V("Y")), false},
		{List(S("a")), Cons(S("a"), Nil()), true},
	}
	for _, tc := range cases {
		if got := Equal(tc.a, tc.b); got != tc.want {
			t.Errorf("Equal(%s, %s) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestIsGroundAndVars(t *testing.T) {
	if !IsGround(S("a")) || !IsGround(I(3)) || !IsGround(List(S("a"), S("b"))) {
		t.Error("expected constants and ground lists to be ground")
	}
	if IsGround(V("X")) || IsGround(C("f", S("a"), V("X"))) {
		t.Error("expected terms containing variables to be non-ground")
	}
	vars := Vars(C("f", V("X"), C("g", V("Y"), V("X")), S("a")), nil)
	if len(vars) != 2 || vars[0] != "X" || vars[1] != "Y" {
		t.Errorf("Vars = %v, want [X Y]", vars)
	}
	set := VarSet(C("f", V("X"), V("Y")))
	if !set["X"] || !set["Y"] || len(set) != 2 {
		t.Errorf("VarSet = %v", set)
	}
}

func TestKeyUniqueness(t *testing.T) {
	terms := []Term{
		V("X"), V("Y"), S("X"), S("a"), S("ab"), I(1), I(-1), I(12),
		C("f", S("a")), C("f", S("a"), S("b")), C("fa", S("b")),
		C("f", C("a")), C("f", S("a"), Nil()), List(S("a"), S("b")),
		List(S("ab")), S("a:b"), C("f", S("a:b")), C("f:", S("ab")),
	}
	seen := make(map[string]Term)
	for _, tm := range terms {
		k := Key(tm)
		if prev, ok := seen[k]; ok && !Equal(prev, tm) {
			t.Errorf("Key collision: %s and %s both map to %q", prev, tm, k)
		}
		seen[k] = tm
	}
	if Key(S("a")) != Key(S("a")) {
		t.Error("Key is not deterministic")
	}
}

func TestLength(t *testing.T) {
	cases := []struct {
		term Term
		want int
	}{
		{S("a"), 1},
		{I(5), 1},
		{V("X"), 1},
		{C("f", S("a")), 2},
		{C("f", S("a"), S("b")), 3},
		// |X.X| = 2|X|+1 ≥ 3 with |X|=1 lower bound.
		{Cons(V("X"), V("X")), 3},
		{List(S("a"), S("b")), 5}, // .(a, .(b, [])) = 1+1+(1+1+1)
	}
	for _, tc := range cases {
		if got := Length(tc.term); got != tc.want {
			t.Errorf("Length(%s) = %d, want %d", tc.term, got, tc.want)
		}
	}
}

func TestSymbolicLength(t *testing.T) {
	// |V.X| where the term is .(V, X): constant 1, V:1, X:1.
	c, m := SymbolicLength(Cons(V("V"), V("X")))
	if c != 1 || m["V"] != 1 || m["X"] != 1 {
		t.Errorf("SymbolicLength(cons(V,X)) = %d %v", c, m)
	}
	// |X.X| = 1 + 2|X|.
	c, m = SymbolicLength(Cons(V("X"), V("X")))
	if c != 1 || m["X"] != 2 {
		t.Errorf("SymbolicLength(cons(X,X)) = %d %v", c, m)
	}
	c, m = SymbolicLength(S("a"))
	if c != 1 || len(m) != 0 {
		t.Errorf("SymbolicLength(a) = %d %v", c, m)
	}
}

func TestCompareTerms(t *testing.T) {
	ordered := []Term{
		V("A"), V("B"), I(-5), I(0), I(7), S("a"), S("b"),
		C("f", S("a")), C("f", S("b")), C("g", S("a")),
	}
	for i := range ordered {
		for j := range ordered {
			got := CompareTerms(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("CompareTerms(%s, %s) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
	if CompareTerms(C("f", S("a")), C("f", S("a"), S("b"))) >= 0 {
		t.Error("shorter arg list should compare less")
	}
}

func TestListRoundTrip(t *testing.T) {
	l := List(S("a"), I(2), C("f", S("b")))
	want := "[a, 2, f(b)]"
	if l.String() != want {
		t.Errorf("List string = %s, want %s", l, want)
	}
	// Improper list rendering.
	improper := Cons(S("a"), S("b"))
	if !strings.Contains(improper.String(), "|") {
		t.Errorf("improper list should render with |, got %s", improper)
	}
}

func TestSortedVarNames(t *testing.T) {
	set := map[string]bool{"Z": true, "A": true, "M": true}
	got := SortedVarNames(set)
	if len(got) != 3 || got[0] != "A" || got[1] != "M" || got[2] != "Z" {
		t.Errorf("SortedVarNames = %v", got)
	}
}
