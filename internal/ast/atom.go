package ast

import "strings"

// Adornment is a binding-pattern string over the alphabet {b, f}
// (Section 3 of the paper): position i is 'b' if the i-th argument of the
// predicate is bound when the predicate is invoked, and 'f' if it is free.
// The empty adornment denotes an unadorned predicate.
type Adornment string

// Bound reports whether position i (0-based) is bound in the adornment.
func (a Adornment) Bound(i int) bool {
	return i >= 0 && i < len(a) && a[i] == 'b'
}

// BoundCount returns the number of bound positions in the adornment.
func (a Adornment) BoundCount() int {
	n := 0
	for i := 0; i < len(a); i++ {
		if a[i] == 'b' {
			n++
		}
	}
	return n
}

// Valid reports whether the adornment uses only the letters 'b' and 'f'.
func (a Adornment) Valid() bool {
	for i := 0; i < len(a); i++ {
		if a[i] != 'b' && a[i] != 'f' {
			return false
		}
	}
	return true
}

// AdornmentFor builds an adornment for the given argument terms: position i
// is bound iff every variable of args[i] is in the bound set and, for
// variable-free arguments, iff the argument is ground. This follows the
// paper's convention that an argument is bound only when all of its
// variables are bound.
func AdornmentFor(args []Term, bound map[string]bool) Adornment {
	b := make([]byte, len(args))
	for i, arg := range args {
		vars := Vars(arg, nil)
		isBound := true
		if len(vars) == 0 {
			isBound = IsGround(arg)
		} else {
			for _, v := range vars {
				if !bound[v] {
					isBound = false
					break
				}
			}
		}
		if isBound {
			b[i] = 'b'
		} else {
			b[i] = 'f'
		}
	}
	return Adornment(b)
}

// Atom is a predicate occurrence: a predicate name applied to a list of
// argument terms. Adorned programs additionally carry the binding adornment
// of the underlying predicate; rewritten programs use decorated predicate
// names (magic_, sup_, cnt_, ...) produced by the rewriters, and keep the
// adornment for display and bookkeeping.
type Atom struct {
	// Pred is the predicate name, e.g. "anc", "magic_sg", "sup_2_1".
	Pred string
	// Adorn is the binding adornment of the underlying adorned predicate,
	// or "" for unadorned predicates.
	Adorn Adornment
	// Args are the argument terms.
	Args []Term
	// Negated marks a negative body literal (!p(X)). Negation is parsed and
	// carried through the AST so the lint layer can check stratifiability,
	// but the evaluation pipeline does not accept it yet (ROADMAP item 6);
	// datalog.Compile rejects programs containing negated literals.
	Negated bool
	// Pos is the source position of the predicate name, or the zero Pos for
	// atoms built programmatically.
	Pos Pos
	// ArgPos holds the source position of each top-level argument (parallel
	// to Args; variables nested inside a compound argument share the
	// argument's position). Nil for programmatically built atoms.
	ArgPos []Pos
}

// NewAtom builds an unadorned atom.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// NewAdornedAtom builds an adorned atom.
func NewAdornedAtom(pred string, adorn Adornment, args ...Term) Atom {
	return Atom{Pred: pred, Adorn: adorn, Args: args}
}

// PredKey returns the identity of the predicate this atom refers to:
// predicate name plus adornment. Two atoms belong to the same relation iff
// their PredKeys are equal and their arities match.
func (a Atom) PredKey() string {
	if a.Adorn == "" {
		return a.Pred
	}
	return a.Pred + "^" + string(a.Adorn)
}

// Arity returns the number of arguments of the atom.
func (a Atom) Arity() int { return len(a.Args) }

// String renders the atom in source syntax, with the adornment as a
// superscript-style suffix (e.g. sg^bf(X, Y)).
func (a Atom) String() string {
	name := a.Pred
	if a.Negated {
		name = "!" + name
	}
	if a.Adorn != "" {
		name += "^" + string(a.Adorn)
	}
	if len(a.Args) == 0 {
		return name
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return name + "(" + strings.Join(parts, ", ") + ")"
}

// EqualAtoms reports whether two atoms are syntactically identical.
func EqualAtoms(a, b Atom) bool {
	if a.Pred != b.Pred || a.Adorn != b.Adorn || a.Negated != b.Negated || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !Equal(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// IsGroundAtom reports whether every argument of the atom is ground.
func IsGroundAtom(a Atom) bool {
	for _, t := range a.Args {
		if !IsGround(t) {
			return false
		}
	}
	return true
}

// AtomVars appends the names of all variables occurring in the atom to dst
// in order of first occurrence and returns the extended slice.
func AtomVars(a Atom, dst []string) []string {
	for _, t := range a.Args {
		dst = Vars(t, dst)
	}
	return dst
}

// AtomVarSet returns the set of variable names occurring in the atom.
func AtomVarSet(a Atom) map[string]bool {
	set := make(map[string]bool)
	for _, v := range AtomVars(a, nil) {
		set[v] = true
	}
	return set
}

// BoundArgs returns the arguments of the atom at positions marked bound by
// its adornment, in order.
func (a Atom) BoundArgs() []Term {
	var out []Term
	for i, t := range a.Args {
		if a.Adorn.Bound(i) {
			out = append(out, t)
		}
	}
	return out
}

// FreeArgs returns the arguments of the atom at positions marked free by its
// adornment, in order. For an unadorned atom all arguments are free.
func (a Atom) FreeArgs() []Term {
	var out []Term
	for i, t := range a.Args {
		if !a.Adorn.Bound(i) {
			out = append(out, t)
		}
	}
	return out
}

// RenameAtom applies the variable renaming to every argument of the atom.
// Positions and polarity are preserved: renaming does not move source text.
func RenameAtom(a Atom, rename map[string]string) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = renameTerm(t, rename)
	}
	out := a
	out.Args = args
	return out
}

func renameTerm(t Term, rename map[string]string) Term {
	switch x := t.(type) {
	case Var:
		if n, ok := rename[x.Name]; ok {
			return Var{Name: n}
		}
		return x
	case Compound:
		args := make([]Term, len(x.Args))
		for i, a := range x.Args {
			args[i] = renameTerm(a, rename)
		}
		return Compound{Functor: x.Functor, Args: args}
	default:
		return t
	}
}
