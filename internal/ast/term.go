// Package ast defines the abstract syntax of Horn-clause programs used
// throughout the repository: terms (constants, variables, integers and
// compound terms with function symbols), atoms, rules, programs and
// queries, together with substitutions and unification.
//
// The representation follows Section 1.1 of Beeri & Ramakrishnan,
// "On the Power of Magic": a rule is p(t̄) :- q1(t̄1), ..., qn(t̄n), a fact
// is a ground rule with an empty body, and a query is a single predicate
// occurrence with some arguments bound to constants.
package ast

import (
	"sort"
	"strconv"
	"strings"
)

// Term is a first-order term: a variable, a symbolic constant, an integer
// constant, or a compound term (an n-ary function symbol applied to n terms).
//
// Terms are immutable by convention: no function in this repository mutates
// a term after construction, so terms may be freely shared.
type Term interface {
	// isTerm restricts implementations to this package.
	isTerm()
	// String renders the term in source syntax.
	String() string
}

// Var is a logic variable. Variables are identified by name within a rule;
// rules are renamed apart before resolution when necessary.
type Var struct {
	Name string
}

// Sym is a symbolic (uninterpreted) constant such as john or a.
type Sym struct {
	Name string
}

// Int is an integer constant. Integers are ordinary constants: no functor
// is interpreted, so 1 and f(1) are as unrelated as a and f(a).
type Int struct {
	Value int64
}

// Compound is a function symbol applied to arguments, e.g. cons(X, Xs) or
// f(X, Z). Every functor is uninterpreted: the counting rewritings build
// their index fields as compounds such as s(I) and k(K, 2).
type Compound struct {
	Functor string
	Args    []Term
}

func (Var) isTerm()      {}
func (Sym) isTerm()      {}
func (Int) isTerm()      {}
func (Compound) isTerm() {}

// The list constructor and the empty list of the surface syntax.
const (
	// FunctorCons is the list constructor functor.
	FunctorCons = "."
	// SymNil is the empty-list constant.
	SymNil = "[]"
)

// V returns a variable term with the given name.
func V(name string) Term { return Var{Name: name} }

// S returns a symbolic constant term with the given name.
func S(name string) Term { return Sym{Name: name} }

// I returns an integer constant term with the given value.
func I(v int64) Term { return Int{Value: v} }

// C returns a compound term functor(args...).
func C(functor string, args ...Term) Term {
	return Compound{Functor: functor, Args: args}
}

// Nil returns the empty-list constant [].
func Nil() Term { return Sym{Name: SymNil} }

// Cons returns the list cell [head | tail].
func Cons(head, tail Term) Term { return C(FunctorCons, head, tail) }

// List builds a proper list term from the given elements.
func List(elems ...Term) Term {
	t := Nil()
	for i := len(elems) - 1; i >= 0; i-- {
		t = Cons(elems[i], t)
	}
	return t
}

// String renders a variable by its name.
func (v Var) String() string { return v.Name }

// String renders a symbolic constant by its name.
func (s Sym) String() string { return s.Name }

// String renders an integer constant in decimal.
func (i Int) String() string { return strconv.FormatInt(i.Value, 10) }

// String renders a compound term. List cells are rendered in [a, b | T]
// notation and everything else as f(args).
func (c Compound) String() string {
	if c.Functor == FunctorCons && len(c.Args) == 2 {
		return renderList(c)
	}
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Functor + "(" + strings.Join(parts, ", ") + ")"
}

func renderList(c Compound) string {
	var elems []string
	var cur Term = c
	for {
		cc, ok := cur.(Compound)
		if !ok || cc.Functor != FunctorCons || len(cc.Args) != 2 {
			break
		}
		elems = append(elems, cc.Args[0].String())
		cur = cc.Args[1]
	}
	if s, ok := cur.(Sym); ok && s.Name == SymNil {
		return "[" + strings.Join(elems, ", ") + "]"
	}
	return "[" + strings.Join(elems, ", ") + " | " + cur.String() + "]"
}

// Equal reports whether two terms are syntactically identical.
func Equal(a, b Term) bool {
	switch x := a.(type) {
	case Var:
		y, ok := b.(Var)
		return ok && x.Name == y.Name
	case Sym:
		y, ok := b.(Sym)
		return ok && x.Name == y.Name
	case Int:
		y, ok := b.(Int)
		return ok && x.Value == y.Value
	case Compound:
		y, ok := b.(Compound)
		if !ok || x.Functor != y.Functor || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Equal(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// IsGround reports whether the term contains no variables.
func IsGround(t Term) bool {
	switch x := t.(type) {
	case Var:
		return false
	case Compound:
		for _, a := range x.Args {
			if !IsGround(a) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// Vars appends the names of all variables occurring in t to dst, in
// left-to-right order of first occurrence, and returns the extended slice.
func Vars(t Term, dst []string) []string {
	switch x := t.(type) {
	case Var:
		for _, v := range dst {
			if v == x.Name {
				return dst
			}
		}
		return append(dst, x.Name)
	case Compound:
		for _, a := range x.Args {
			dst = Vars(a, dst)
		}
	}
	return dst
}

// VarSet returns the set of variable names occurring in t.
func VarSet(t Term) map[string]bool {
	set := make(map[string]bool)
	for _, v := range Vars(t, nil) {
		set[v] = true
	}
	return set
}

// Key returns a canonical string encoding of a term, suitable for use as a
// map key. Two terms have the same key iff they are syntactically equal.
// The encoding is unambiguous (it length-prefixes names) so distinct terms
// never collide.
func Key(t Term) string {
	var b strings.Builder
	writeKey(&b, t)
	return b.String()
}

func writeKey(b *strings.Builder, t Term) {
	switch x := t.(type) {
	case Var:
		b.WriteByte('v')
		b.WriteString(strconv.Itoa(len(x.Name)))
		b.WriteByte(':')
		b.WriteString(x.Name)
	case Sym:
		b.WriteByte('s')
		b.WriteString(strconv.Itoa(len(x.Name)))
		b.WriteByte(':')
		b.WriteString(x.Name)
	case Int:
		b.WriteByte('i')
		b.WriteString(strconv.FormatInt(x.Value, 10))
		b.WriteByte(';')
	case Compound:
		b.WriteByte('c')
		b.WriteString(strconv.Itoa(len(x.Functor)))
		b.WriteByte(':')
		b.WriteString(x.Functor)
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(len(x.Args)))
		b.WriteByte('(')
		for _, a := range x.Args {
			writeKey(b, a)
		}
		b.WriteByte(')')
	}
}

// Length returns the term length |t| of Section 10 of the paper: 1 for a
// constant or a variable (a variable has length at least 1; Length returns
// the lower bound), and 1 plus the sum of the argument lengths for an n-ary
// compound term.
func Length(t Term) int {
	switch x := t.(type) {
	case Compound:
		n := 1
		for _, a := range x.Args {
			n += Length(a)
		}
		return n
	default:
		return 1
	}
}

// SymbolicLength returns the term length as a pair (constant part, variable
// multiplicities). The length of t equals constant + Σ mult[v]·|v| where |v|
// is the (unknown, ≥1) length of variable v. This is the representation used
// by the binding-graph safety test of Theorem 10.1.
func SymbolicLength(t Term) (constant int, mult map[string]int) {
	mult = make(map[string]int)
	constant = symLen(t, mult)
	return constant, mult
}

func symLen(t Term, mult map[string]int) int {
	switch x := t.(type) {
	case Var:
		mult[x.Name]++
		return 0
	case Compound:
		n := 1
		for _, a := range x.Args {
			n += symLen(a, mult)
		}
		return n
	default:
		return 1
	}
}

// SortedVarNames returns the variable names of the set in sorted order.
// It is a convenience for deterministic output in rewriters and tests.
func SortedVarNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for v := range set {
		names = append(names, v)
	}
	sort.Strings(names)
	return names
}

// CompareTerms imposes a total order on ground terms: integers before
// symbols before compounds, then by value/name/functor/args. It reports
// -1, 0 or 1. Variables compare by name and sort before everything else;
// the order on non-ground terms is syntactic only.
func CompareTerms(a, b Term) int {
	ra, rb := termRank(a), termRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch x := a.(type) {
	case Var:
		return strings.Compare(x.Name, b.(Var).Name)
	case Int:
		y := b.(Int)
		switch {
		case x.Value < y.Value:
			return -1
		case x.Value > y.Value:
			return 1
		default:
			return 0
		}
	case Sym:
		return strings.Compare(x.Name, b.(Sym).Name)
	case Compound:
		y := b.(Compound)
		if c := strings.Compare(x.Functor, y.Functor); c != 0 {
			return c
		}
		if len(x.Args) != len(y.Args) {
			if len(x.Args) < len(y.Args) {
				return -1
			}
			return 1
		}
		for i := range x.Args {
			if c := CompareTerms(x.Args[i], y.Args[i]); c != 0 {
				return c
			}
		}
		return 0
	}
	return 0
}

func termRank(t Term) int {
	switch t.(type) {
	case Var:
		return 0
	case Int:
		return 1
	case Sym:
		return 2
	case Compound:
		return 3
	}
	return 4
}
