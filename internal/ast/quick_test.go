package ast

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genTerm is a random term generator used by the property-based tests. It
// generates terms over a small vocabulary of variables, constants, integers
// and functors so that collisions (and therefore successful unifications)
// are frequent.
func genTerm(r *rand.Rand, depth int) Term {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return V([]string{"X", "Y", "Z", "W"}[r.Intn(4)])
		case 1:
			return S([]string{"a", "b", "c"}[r.Intn(3)])
		default:
			return I(int64(r.Intn(4)))
		}
	}
	switch r.Intn(5) {
	case 0:
		return V([]string{"X", "Y", "Z", "W"}[r.Intn(4)])
	case 1:
		return S([]string{"a", "b", "c"}[r.Intn(3)])
	case 2:
		return I(int64(r.Intn(4)))
	default:
		n := 1 + r.Intn(2)
		args := make([]Term, n)
		for i := range args {
			args[i] = genTerm(r, depth-1)
		}
		return C([]string{"f", "g"}[r.Intn(2)], args...)
	}
}

// genGroundTerm generates a random ground term.
func genGroundTerm(r *rand.Rand, depth int) Term {
	t := genTerm(r, depth)
	// Replace variables by constants.
	return groundOut(t)
}

func groundOut(t Term) Term {
	switch x := t.(type) {
	case Var:
		return S("g_" + x.Name)
	case Compound:
		args := make([]Term, len(x.Args))
		for i, a := range x.Args {
			args[i] = groundOut(a)
		}
		return Compound{Functor: x.Functor, Args: args}
	default:
		return t
	}
}

// randTerm adapts genTerm to testing/quick's Generator-style usage through
// Values functions.
type randTerm struct{ T Term }

// Generate implements quick.Generator for randTerm.
func (randTerm) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(randTerm{T: genTerm(r, 3)})
}

type randGroundTerm struct{ T Term }

// Generate implements quick.Generator for randGroundTerm.
func (randGroundTerm) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(randGroundTerm{T: genGroundTerm(r, 3)})
}

func TestQuickUnifySoundness(t *testing.T) {
	// Property: if Unify(a, b) succeeds with substitution s, then s.Apply(a)
	// and s.Apply(b) are syntactically equal.
	f := func(a, b randTerm) bool {
		s := NewSubst()
		if !Unify(a.T, b.T, s) {
			return true
		}
		return Equal(s.Apply(a.T), s.Apply(b.T))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnifyReflexive(t *testing.T) {
	// Property: every term unifies with itself and the unifier leaves it
	// unchanged up to equality.
	f := func(a randTerm) bool {
		s := NewSubst()
		if !Unify(a.T, a.T, s) {
			return false
		}
		return Equal(s.Apply(a.T), s.Apply(a.T))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnifySymmetric(t *testing.T) {
	// Property: Unify(a, b) succeeds iff Unify(b, a) succeeds.
	f := func(a, b randTerm) bool {
		s1, s2 := NewSubst(), NewSubst()
		return Unify(a.T, b.T, s1) == Unify(b.T, a.T, s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickMatchImpliesUnify(t *testing.T) {
	// Property: if a pattern matches a ground term, the two also unify, and
	// applying the matcher to the pattern yields the ground term.
	f := func(a randTerm, g randGroundTerm) bool {
		s := NewSubst()
		if !Match(a.T, g.T, s) {
			return true
		}
		if !Equal(s.Apply(a.T), g.T) {
			return false
		}
		u := NewSubst()
		return Unify(a.T, g.T, u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyAgreesWithEqual(t *testing.T) {
	// Property: Key(a) == Key(b) iff Equal(a, b).
	f := func(a, b randTerm) bool {
		return (Key(a.T) == Key(b.T)) == Equal(a.T, b.T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareTermsTotalOrder(t *testing.T) {
	// Property: CompareTerms is antisymmetric and consistent with Equal.
	f := func(a, b randTerm) bool {
		ab := CompareTerms(a.T, b.T)
		ba := CompareTerms(b.T, a.T)
		if ab != -ba {
			return false
		}
		return (ab == 0) == Equal(a.T, b.T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

func TestQuickApplyIdempotent(t *testing.T) {
	// Property: applying a unifier twice is the same as applying it once.
	f := func(a, b randTerm) bool {
		s := NewSubst()
		if !Unify(a.T, b.T, s) {
			return true
		}
		once := s.Apply(a.T)
		twice := s.Apply(once)
		return Equal(once, twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickLengthPositive(t *testing.T) {
	// Property: term length is at least 1 and the symbolic length evaluated
	// with every variable length = 1 equals Length.
	f := func(a randTerm) bool {
		n := Length(a.T)
		if n < 1 {
			return false
		}
		c, m := SymbolicLength(a.T)
		total := c
		for _, k := range m {
			total += k
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickRenameApartPreservesStructure(t *testing.T) {
	// Property: renaming a rule apart preserves predicate names, arities and
	// the pattern of variable sharing.
	f := func(a, b randTerm) bool {
		r := NewRule(NewAtom("h", a.T), NewAtom("p", a.T, b.T), NewAtom("q", b.T))
		rn := RenameApart(r, 3)
		if rn.Head.Pred != "h" || len(rn.Body) != 2 {
			return false
		}
		// The renamed rule must unify with the original (renaming is a
		// bijection on variables).
		s := NewSubst()
		if !UnifyAtoms(r.Head, rn.Head, s) {
			return false
		}
		for i := range r.Body {
			if !UnifyAtoms(r.Body[i], rn.Body[i], s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
