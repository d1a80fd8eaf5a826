package ast

import (
	"fmt"
	"sort"
	"strings"
)

// Rule is a Horn clause Head :- Body. A rule with an empty body is a fact;
// by the well-formedness condition (WF) a fact is ground.
type Rule struct {
	Head Atom
	Body []Atom
	// Pos is the source position of the rule (its head atom), or the zero
	// Pos for rules built programmatically.
	Pos Pos
}

// NewRule builds a rule from a head atom and body atoms.
func NewRule(head Atom, body ...Atom) Rule {
	return Rule{Head: head, Body: body}
}

// IsFact reports whether the rule has an empty body.
func (r Rule) IsFact() bool { return len(r.Body) == 0 }

// String renders the rule in source syntax ("head :- b1, b2." or "head.").
func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, b := range r.Body {
		parts[i] = b.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Vars returns the names of all variables occurring in the rule, in order of
// first occurrence (head first, then body left to right).
func (r Rule) Vars() []string {
	vars := AtomVars(r.Head, nil)
	for _, b := range r.Body {
		vars = AtomVars(b, vars)
	}
	return vars
}

// HeadVars returns the set of variable names occurring in the rule head.
func (r Rule) HeadVars() map[string]bool { return AtomVarSet(r.Head) }

// BodyVars returns the set of variable names occurring anywhere in the body.
func (r Rule) BodyVars() map[string]bool {
	set := make(map[string]bool)
	for _, b := range r.Body {
		for _, v := range AtomVars(b, nil) {
			set[v] = true
		}
	}
	return set
}

// Clone returns a deep-enough copy of the rule: the atom slices are copied so
// the caller may append or reorder without affecting the original. Terms are
// shared (they are immutable by convention).
func (r Rule) Clone() Rule {
	cloneAtom := func(a Atom) Atom {
		args := make([]Term, len(a.Args))
		copy(args, a.Args)
		out := a
		out.Args = args
		return out
	}
	body := make([]Atom, len(r.Body))
	for i, b := range r.Body {
		body[i] = cloneAtom(b)
	}
	return Rule{Head: cloneAtom(r.Head), Body: body, Pos: r.Pos}
}

// CheckWellFormed verifies condition (WF) of Section 1.1: every variable that
// appears in the head also appears in the body (hence facts are ground).
func (r Rule) CheckWellFormed() error {
	bodyVars := r.BodyVars()
	for v := range r.HeadVars() {
		if !bodyVars[v] {
			return fmt.Errorf("rule %q violates (WF): head variable %s does not appear in the body", r.String(), v)
		}
	}
	return nil
}

// ConnectedComponents partitions the body predicate occurrences of the rule
// into connectivity classes (Section 1.1): two occurrences are connected if
// they share a variable, directly or through a chain of shared variables.
// The head participates in the partition as well; the returned slice contains
// the indices of body atoms per component and the boolean reports whether the
// component contains (a variable of) the head. Atoms without variables form
// singleton components that do not contain the head.
func (r Rule) ConnectedComponents() (components [][]int, containsHead []bool) {
	n := len(r.Body)
	// Union-find over body positions 0..n-1 plus the head at index n.
	parent := make([]int, n+1)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	varToNodes := make(map[string][]int)
	for i, b := range r.Body {
		for _, v := range AtomVars(b, nil) {
			varToNodes[v] = append(varToNodes[v], i)
		}
	}
	for _, v := range AtomVars(r.Head, nil) {
		varToNodes[v] = append(varToNodes[v], n)
	}
	for _, nodes := range varToNodes {
		for i := 1; i < len(nodes); i++ {
			union(nodes[0], nodes[i])
		}
	}
	groups := make(map[int][]int)
	order := []int{}
	for i := 0; i < n; i++ {
		root := find(i)
		if _, ok := groups[root]; !ok {
			order = append(order, root)
		}
		groups[root] = append(groups[root], i)
	}
	headRoot := find(n)
	for _, root := range order {
		components = append(components, groups[root])
		containsHead = append(containsHead, root == headRoot)
	}
	return components, containsHead
}

// CheckConnected verifies condition (C) of Section 1.1: the predicate
// occurrences of the rule form a single connected component (containing the
// head). Rules with an empty body trivially satisfy the condition.
func (r Rule) CheckConnected() error {
	if len(r.Body) == 0 {
		return nil
	}
	comps, withHead := r.ConnectedComponents()
	if len(comps) == 1 && (withHead[0] || len(r.HeadVars()) == 0) {
		return nil
	}
	if len(comps) > 1 {
		return fmt.Errorf("rule %q violates (C): body predicates form %d connected components", r.String(), len(comps))
	}
	return fmt.Errorf("rule %q violates (C): body predicates are not connected to the head", r.String())
}

// Program is a finite set of rules. By convention (Section 1.1) the program
// contains no facts: all facts live in the database (see internal/database).
type Program struct {
	Rules []Rule
}

// NewProgram builds a program from the given rules.
func NewProgram(rules ...Rule) *Program {
	return &Program{Rules: rules}
}

// String renders the program one rule per line.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// DerivedPredicates returns the set of predicate keys that appear as rule
// heads (derived predicates, IDB).
func (p *Program) DerivedPredicates() map[string]bool {
	set := make(map[string]bool)
	for _, r := range p.Rules {
		set[r.Head.PredKey()] = true
	}
	return set
}

// RulesFor returns the indices of the rules whose head predicate matches the
// given predicate key, in program order.
func (p *Program) RulesFor(predKey string) []int {
	var out []int
	for i, r := range p.Rules {
		if r.Head.PredKey() == predKey {
			out = append(out, i)
		}
	}
	return out
}

// Arities returns the arity of every predicate key appearing in the program.
// It returns an error if a predicate is used with two different arities.
func (p *Program) Arities() (map[string]int, error) {
	ar := make(map[string]int)
	record := func(a Atom) error {
		key := a.PredKey()
		if prev, ok := ar[key]; ok && prev != len(a.Args) {
			return fmt.Errorf("predicate %s used with arities %d and %d", key, prev, len(a.Args))
		}
		ar[key] = len(a.Args)
		return nil
	}
	for _, r := range p.Rules {
		if err := record(r.Head); err != nil {
			return nil, err
		}
		for _, b := range r.Body {
			if err := record(b); err != nil {
				return nil, err
			}
		}
	}
	return ar, nil
}

// Validate checks the structural assumptions of Section 1.1 for every rule:
// (WF) head variables appear in the body, consistent arities, no facts in the
// program (facts belong to the database), and — when strict is true —
// condition (C) that each rule is a single connected component.
func (p *Program) Validate(strict bool) error {
	if _, err := p.Arities(); err != nil {
		return err
	}
	for i, r := range p.Rules {
		if r.IsFact() {
			return fmt.Errorf("rule %d (%s) is a fact; facts must be stored in the database, not the program", i, r.String())
		}
		if err := r.CheckWellFormed(); err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
		if strict {
			if err := r.CheckConnected(); err != nil {
				return fmt.Errorf("rule %d: %w", i, err)
			}
		}
	}
	return nil
}

// IsDatalog reports whether the program is function-free (no compound terms
// anywhere). The safety theorems of Section 10 distinguish Datalog programs
// from programs with function symbols.
func (p *Program) IsDatalog() bool {
	hasCompound := func(a Atom) bool {
		for _, t := range a.Args {
			if containsCompound(t) {
				return true
			}
		}
		return false
	}
	for _, r := range p.Rules {
		if hasCompound(r.Head) {
			return false
		}
		for _, b := range r.Body {
			if hasCompound(b) {
				return false
			}
		}
	}
	return true
}

func containsCompound(t Term) bool {
	_, ok := t.(Compound)
	return ok
}

// PredicateDependencies returns, for each derived predicate key, the set of
// derived predicate keys its rules depend on (directly).
func (p *Program) PredicateDependencies() map[string]map[string]bool {
	derived := p.DerivedPredicates()
	deps := make(map[string]map[string]bool)
	for key := range derived {
		deps[key] = make(map[string]bool)
	}
	for _, r := range p.Rules {
		hk := r.Head.PredKey()
		for _, b := range r.Body {
			bk := b.PredKey()
			if derived[bk] {
				deps[hk][bk] = true
			}
		}
	}
	return deps
}

// StronglyConnectedComponents returns the strongly connected components of
// the derived-predicate dependency graph in a reverse topological order
// (callees before callers). Mutually recursive predicates share a component;
// the paper calls such a maximal set a "block" (Section 8).
func (p *Program) StronglyConnectedComponents() [][]string {
	deps := p.PredicateDependencies()
	keys := make([]string, 0, len(deps))
	for k := range deps {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Tarjan's algorithm.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	counter := 0

	var strongConnect func(v string)
	strongConnect = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true

		succs := make([]string, 0, len(deps[v]))
		for w := range deps[v] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if _, seen := index[w]; !seen {
				strongConnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] {
				if index[w] < low[v] {
					low[v] = index[w]
				}
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			sccs = append(sccs, comp)
		}
	}
	for _, k := range keys {
		if _, seen := index[k]; !seen {
			strongConnect(k)
		}
	}
	return sccs
}

// Query is a single-predicate query q(c̄, X̄)?: a predicate occurrence whose
// ground arguments are the bound arguments and whose variables are free.
type Query struct {
	Atom Atom
}

// NewQuery builds a query from an atom.
func NewQuery(a Atom) Query { return Query{Atom: a} }

// Adornment returns the binding pattern of the query: position i is bound
// iff the i-th argument is ground.
func (q Query) Adornment() Adornment {
	b := make([]byte, len(q.Atom.Args))
	for i, t := range q.Atom.Args {
		if IsGround(t) {
			b[i] = 'b'
		} else {
			b[i] = 'f'
		}
	}
	return Adornment(b)
}

// BoundConstants returns the ground arguments of the query in order (the
// seed values c̄ for the magic/counting rewritings).
func (q Query) BoundConstants() []Term {
	var out []Term
	for _, t := range q.Atom.Args {
		if IsGround(t) {
			out = append(out, t)
		}
	}
	return out
}

// String renders the query as "atom?".
func (q Query) String() string { return q.Atom.String() + "?" }

// Validate checks that every non-ground argument of the query is a plain
// variable (the methods of the paper treat partially instantiated arguments
// as free; we require the query itself to be in the normalized form).
func (q Query) Validate() error {
	seen := make(map[string]bool)
	for i, t := range q.Atom.Args {
		if IsGround(t) {
			continue
		}
		v, ok := t.(Var)
		if !ok {
			return fmt.Errorf("query argument %d (%s) is neither ground nor a plain variable", i, t)
		}
		if seen[v.Name] {
			return fmt.Errorf("query variable %s repeats; use distinct variables for free positions", v.Name)
		}
		seen[v.Name] = true
	}
	return nil
}
