package ast

import (
	"fmt"
	"strconv"
)

// Subst is a substitution: a finite mapping from variable names to terms.
// Substitutions produced by Unify and Match are idempotent (no bound
// variable occurs in any binding's value after full application).
type Subst map[string]Term

// NewSubst returns an empty substitution.
func NewSubst() Subst { return make(Subst) }

// Clone returns a copy of the substitution.
func (s Subst) Clone() Subst {
	out := make(Subst, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Lookup resolves a variable name through chains of variable-to-variable
// bindings and returns the final term bound to it, or nil if unbound.
func (s Subst) Lookup(name string) Term {
	seen := 0
	for {
		t, ok := s[name]
		if !ok {
			return nil
		}
		v, isVar := t.(Var)
		if !isVar {
			return t
		}
		name = v.Name
		seen++
		if seen > len(s)+1 {
			// Defensive: a cycle of variable bindings cannot be produced by
			// Unify/Match, but guard against misuse.
			return t
		}
	}
}

// Apply applies the substitution to a term, replacing every bound variable by
// (the application of the substitution to) its binding.
func (s Subst) Apply(t Term) Term {
	switch x := t.(type) {
	case Var:
		if b, ok := s[x.Name]; ok {
			return s.Apply(b)
		}
		return x
	case Compound:
		args := make([]Term, len(x.Args))
		for i, a := range x.Args {
			args[i] = s.Apply(a)
		}
		return Compound{Functor: x.Functor, Args: args}
	default:
		return t
	}
}

// ApplyAtom applies the substitution to every argument of the atom.
func (s Subst) ApplyAtom(a Atom) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = s.Apply(t)
	}
	return Atom{Pred: a.Pred, Adorn: a.Adorn, Args: args}
}

// Bind adds the binding name ↦ t to the substitution. It panics if the
// variable is already bound to a different term; callers are expected to
// check with Lookup first or to use Unify.
func (s Subst) Bind(name string, t Term) {
	if old, ok := s[name]; ok && !Equal(old, t) {
		panic(fmt.Sprintf("ast: rebinding %s from %s to %s", name, old, t))
	}
	s[name] = t
}

// occurs reports whether variable name occurs in t under substitution s.
func occurs(name string, t Term, s Subst) bool {
	switch x := t.(type) {
	case Var:
		if x.Name == name {
			return true
		}
		if b, ok := s[x.Name]; ok {
			return occurs(name, b, s)
		}
		return false
	case Compound:
		for _, a := range x.Args {
			if occurs(name, a, s) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// Unify attempts to unify terms a and b under the existing substitution s,
// extending s in place. It returns false (leaving s in a partially extended
// state) if the terms do not unify; callers that need rollback should pass a
// clone. The occurs check is performed, so unification never constructs
// infinite terms.
func Unify(a, b Term, s Subst) bool {
	a = walk(a, s)
	b = walk(b, s)
	switch x := a.(type) {
	case Var:
		if y, ok := b.(Var); ok && y.Name == x.Name {
			return true
		}
		if occurs(x.Name, b, s) {
			return false
		}
		s[x.Name] = b
		return true
	case Sym:
		switch y := b.(type) {
		case Var:
			return Unify(b, a, s)
		case Sym:
			return x.Name == y.Name
		default:
			return false
		}
	case Int:
		switch y := b.(type) {
		case Var:
			return Unify(b, a, s)
		case Int:
			return x.Value == y.Value
		default:
			return false
		}
	case Compound:
		switch y := b.(type) {
		case Var:
			return Unify(b, a, s)
		case Compound:
			if x.Functor != y.Functor || len(x.Args) != len(y.Args) {
				return false
			}
			for i := range x.Args {
				if !Unify(x.Args[i], y.Args[i], s) {
					return false
				}
			}
			return true
		default:
			return false
		}
	}
	return false
}

// walk resolves a term one level through the substitution: if it is a bound
// variable, follow bindings until reaching a non-variable or an unbound
// variable.
func walk(t Term, s Subst) Term {
	for {
		v, ok := t.(Var)
		if !ok {
			return t
		}
		b, bound := s[v.Name]
		if !bound {
			return t
		}
		t = b
	}
}

// UnifyAtoms unifies two atoms argument-wise. The atoms must refer to the
// same predicate (name, adornment and arity); otherwise it returns false.
func UnifyAtoms(a, b Atom, s Subst) bool {
	if a.Pred != b.Pred || a.Adorn != b.Adorn || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !Unify(a.Args[i], b.Args[i], s) {
			return false
		}
	}
	return true
}

// Match performs one-sided unification: it extends s so that pattern·s equals
// the ground term, binding only variables of the pattern. It returns false if
// the ground term does not match. The ground argument must be ground.
func Match(pattern, ground Term, s Subst) bool {
	pattern = walk(pattern, s)
	switch x := pattern.(type) {
	case Var:
		s[x.Name] = ground
		return true
	case Sym:
		y, ok := ground.(Sym)
		return ok && x.Name == y.Name
	case Int:
		y, ok := ground.(Int)
		return ok && x.Value == y.Value
	case Compound:
		y, ok := ground.(Compound)
		if !ok || x.Functor != y.Functor || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Match(x.Args[i], y.Args[i], s) {
				return false
			}
		}
		return true
	}
	return false
}

// MatchAtom matches a (possibly non-ground) atom pattern against a ground
// tuple of the same relation, extending s. The tuple length must equal the
// pattern's arity.
func MatchAtom(pattern Atom, tuple []Term, s Subst) bool {
	if len(pattern.Args) != len(tuple) {
		return false
	}
	for i := range pattern.Args {
		if !Match(pattern.Args[i], tuple[i], s) {
			return false
		}
	}
	return true
}

// RenameApart returns a copy of the rule whose variables are renamed with the
// given suffix index so that they cannot clash with variables of other rules
// or of a query. Renamed variables have the form name#idx.
func RenameApart(r Rule, idx int) Rule {
	vars := r.Vars()
	if len(vars) == 0 {
		return r
	}
	rename := make(map[string]string, len(vars))
	suffix := "#" + strconv.Itoa(idx)
	for _, v := range vars {
		rename[v] = v + suffix
	}
	body := make([]Atom, len(r.Body))
	for i, b := range r.Body {
		body[i] = RenameAtom(b, rename)
	}
	return Rule{Head: RenameAtom(r.Head, rename), Body: body}
}
