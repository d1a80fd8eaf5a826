// Package sip implements sideways information passing strategies
// (Section 2 of Beeri & Ramakrishnan, "On the Power of Magic").
//
// A sip for a rule is a labelled graph. Its nodes are the body predicate
// occurrences of the rule plus a special node p_h standing for the head
// predicate restricted to its bound arguments. An arc N →χ q says: evaluate
// (the join of) the predicates in N, project onto the variables χ, and pass
// the resulting bindings to the body occurrence q, restricting its
// computation. The conditions on a valid sip are:
//
//	(1) nodes are members or subsets of P(r) ∪ {p_h};
//	(2) for every arc N →χ q: (i) every variable of χ appears in N,
//	    (ii) every member of N is connected to a variable of χ,
//	    (iii) some argument of q has all of its variables in χ, and every
//	    variable of χ appears in such an argument;
//	(3) the precedence relation induced by the arcs is acyclic.
//
// The package also provides the two standard sip builders used throughout
// the paper's examples: the full left-to-right (compressed) sip, which
// passes all available bindings, and the partial left-to-right sip, which
// passes only bindings produced since the previous derived literal
// (Example 1, sips (I)/(IV) versus (II)/(V)).
package sip

import (
	"fmt"
	"strings"

	"repro/internal/ast"
)

// HeadNode is the node identifier of the special predicate p_h denoting the
// bound arguments of the rule head. Body occurrences are identified by their
// position (0-based) in the rule body.
const HeadNode = -1

// Arc is a labelled sip arc N →χ q.
type Arc struct {
	// Tail holds the node identifiers of N: HeadNode and/or body positions.
	Tail []int
	// Head is the body position of the predicate occurrence receiving the
	// bindings.
	Head int
	// Label is the set χ of variable names passed along the arc.
	Label map[string]bool
}

// LabelVars returns the label variables in sorted order.
func (a Arc) LabelVars() []string { return ast.SortedVarNames(a.Label) }

// HasTailMember reports whether the given node is in the arc's tail.
func (a Arc) HasTailMember(node int) bool {
	for _, n := range a.Tail {
		if n == node {
			return true
		}
	}
	return false
}

// Graph is a sip for one rule under one head binding pattern.
type Graph struct {
	// Rule is the rule the sip belongs to.
	Rule ast.Rule
	// HeadAdornment is the binding pattern of the head predicate the sip is
	// designed for (the adornment a in the paper's "sip s_r^a").
	HeadAdornment ast.Adornment
	// Arcs are the sip arcs. At most one arc per body occurrence is produced
	// by the builders in this package; Validate accepts multiple arcs per
	// occurrence (the rewriters join them via label rules).
	Arcs []Arc
}

// BoundHeadVars returns the set of variables appearing in bound arguments of
// the rule head according to the head adornment. This is the variable set of
// the special node p_h.
func (g *Graph) BoundHeadVars() map[string]bool {
	set := make(map[string]bool)
	for i, arg := range g.Rule.Head.Args {
		if g.HeadAdornment.Bound(i) {
			for _, v := range ast.Vars(arg, nil) {
				set[v] = true
			}
		}
	}
	return set
}

// nodeVars returns the variable set of a node: the bound head variables for
// HeadNode, or the variables of the body occurrence.
func (g *Graph) nodeVars(node int) map[string]bool {
	if node == HeadNode {
		return g.BoundHeadVars()
	}
	return ast.AtomVarSet(g.Rule.Body[node])
}

// nodeName renders a node for error messages and display.
func (g *Graph) nodeName(node int) string {
	if node == HeadNode {
		return g.Rule.Head.Pred + "_h"
	}
	return fmt.Sprintf("%s.%d", g.Rule.Body[node].Pred, node)
}

// ArcsInto returns the arcs whose head is the given body position.
func (g *Graph) ArcsInto(pos int) []Arc {
	var out []Arc
	for _, a := range g.Arcs {
		if a.Head == pos {
			out = append(out, a)
		}
	}
	return out
}

// PassedVars returns χ_i, the union of the labels of all arcs entering the
// body occurrence at the given position (empty if no arc enters it). The
// adornment construction of Section 3 binds an argument of the occurrence
// iff all of the argument's variables are in this set.
func (g *Graph) PassedVars(pos int) map[string]bool {
	set := make(map[string]bool)
	for _, a := range g.ArcsInto(pos) {
		for v := range a.Label {
			set[v] = true
		}
	}
	return set
}

// Validate checks conditions (1)-(3) of the definition of a sip.
func (g *Graph) Validate() error {
	n := len(g.Rule.Body)
	if !g.HeadAdornment.Valid() || len(g.HeadAdornment) != len(g.Rule.Head.Args) {
		return fmt.Errorf("sip: head adornment %q does not match head %s", g.HeadAdornment, g.Rule.Head)
	}
	for _, a := range g.Arcs {
		if a.Head < 0 || a.Head >= n {
			return fmt.Errorf("sip: arc head %d is not a body position of %s", a.Head, g.Rule)
		}
		if len(a.Label) == 0 {
			return fmt.Errorf("sip: arc into %s has an empty label", g.nodeName(a.Head))
		}
		if len(a.Tail) == 0 {
			return fmt.Errorf("sip: arc into %s has an empty tail", g.nodeName(a.Head))
		}
		seen := make(map[int]bool)
		tailVars := make(map[string]bool)
		for _, node := range a.Tail {
			if node != HeadNode && (node < 0 || node >= n) {
				return fmt.Errorf("sip: arc tail member %d is not a node of %s", node, g.Rule)
			}
			if node == a.Head {
				return fmt.Errorf("sip: arc into %s contains its own head in the tail", g.nodeName(a.Head))
			}
			if seen[node] {
				return fmt.Errorf("sip: arc into %s lists tail member %s twice", g.nodeName(a.Head), g.nodeName(node))
			}
			seen[node] = true
			for v := range g.nodeVars(node) {
				tailVars[v] = true
			}
		}
		// (2)(i): every label variable appears in the tail.
		for v := range a.Label {
			if !tailVars[v] {
				return fmt.Errorf("sip: label variable %s of arc into %s does not appear in the tail", v, g.nodeName(a.Head))
			}
		}
		// (2)(ii): every tail member is connected to a label variable.
		for _, node := range a.Tail {
			if !g.connectedToLabel(node, a.Label) {
				return fmt.Errorf("sip: tail member %s of arc into %s is not connected to any label variable", g.nodeName(node), g.nodeName(a.Head))
			}
		}
		// (2)(iii): some argument of q is fully covered, and every label
		// variable appears in a fully covered argument.
		target := g.Rule.Body[a.Head]
		coveredVars := make(map[string]bool)
		anyCovered := false
		for _, arg := range target.Args {
			vars := ast.Vars(arg, nil)
			if len(vars) == 0 {
				continue
			}
			all := true
			for _, v := range vars {
				if !a.Label[v] {
					all = false
					break
				}
			}
			if all {
				anyCovered = true
				for _, v := range vars {
					coveredVars[v] = true
				}
			}
		}
		if !anyCovered {
			return fmt.Errorf("sip: arc into %s covers no argument of the target completely", g.nodeName(a.Head))
		}
		for v := range a.Label {
			if !coveredVars[v] {
				return fmt.Errorf("sip: label variable %s of arc into %s does not appear in any fully covered argument", v, g.nodeName(a.Head))
			}
		}
	}
	// (3): the precedence relation is acyclic.
	if _, err := g.TotalOrder(); err != nil {
		return err
	}
	return nil
}

// connectedToLabel reports whether the node shares a variable, directly or
// through a chain of body literals, with some variable of the label set.
// Connection is variable connectivity within the rule (Section 1.1).
func (g *Graph) connectedToLabel(node int, label map[string]bool) bool {
	start := g.nodeVars(node)
	if len(start) == 0 {
		return false
	}
	// BFS over variables: two variables are connected if they co-occur in
	// some body literal or in the bound head arguments.
	adjacency := func(v string) map[string]bool {
		out := make(map[string]bool)
		for _, b := range g.Rule.Body {
			set := ast.AtomVarSet(b)
			if set[v] {
				for w := range set {
					out[w] = true
				}
			}
		}
		hv := g.BoundHeadVars()
		if hv[v] {
			for w := range hv {
				out[w] = true
			}
		}
		return out
	}
	visited := make(map[string]bool)
	queue := make([]string, 0, len(start))
	for v := range start {
		visited[v] = true
		queue = append(queue, v)
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if label[v] {
			return true
		}
		for w := range adjacency(v) {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return false
}

// TotalOrder returns a total ordering of the body positions consistent with
// the sip precedence relation (condition (3')): for each arc, every tail
// member precedes the arc's head, and positions that do not appear in the
// sip follow all positions that do. Ties are broken by textual position, so
// for the left-to-right builders the order is the identity. An error is
// returned if the precedence relation is cyclic.
func (g *Graph) TotalOrder() ([]int, error) {
	n := len(g.Rule.Body)
	appears := make([]bool, n)
	succ := make(map[int]map[int]bool)
	indeg := make([]int, n)
	for _, a := range g.Arcs {
		appears[a.Head] = true
		for _, t := range a.Tail {
			if t == HeadNode {
				continue
			}
			appears[t] = true
			if succ[t] == nil {
				succ[t] = make(map[int]bool)
			}
			if !succ[t][a.Head] {
				succ[t][a.Head] = true
				indeg[a.Head]++
			}
		}
	}
	var order []int
	inOrder := make([]bool, n)
	remaining := 0
	for i := 0; i < n; i++ {
		if appears[i] {
			remaining++
		}
	}
	for remaining > 0 {
		picked := -1
		for i := 0; i < n; i++ {
			if appears[i] && !inOrder[i] && indeg[i] == 0 {
				picked = i
				break
			}
		}
		if picked < 0 {
			return nil, fmt.Errorf("sip: precedence relation of %s is cyclic (condition 3 violated)", g.Rule.Head)
		}
		inOrder[picked] = true
		order = append(order, picked)
		remaining--
		for s := range succ[picked] {
			indeg[s]--
		}
	}
	for i := 0; i < n; i++ {
		if !appears[i] {
			order = append(order, i)
		}
	}
	return order, nil
}

// String renders the sip in the paper's notation, one arc per line, e.g.
// "{sg_h, up} ->{Z1} sg.1".
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sip for %s (head adornment %s)\n", g.Rule.Head, g.HeadAdornment)
	for _, a := range g.Arcs {
		names := make([]string, len(a.Tail))
		for i, t := range a.Tail {
			names[i] = g.nodeName(t)
		}
		fmt.Fprintf(&b, "  {%s} ->{%s} %s\n",
			strings.Join(names, ", "),
			strings.Join(a.LabelVars(), ", "),
			g.nodeName(a.Head))
	}
	return b.String()
}

// Strategy chooses a sip for a rule given the binding pattern of its head.
// The adornment construction calls the strategy once per (rule, adorned head
// predicate) pair, matching the paper's "choose for the rule a sip s_r^a".
type Strategy interface {
	// SipFor returns the sip to use for the rule under the given head
	// adornment. Implementations must return a valid sip.
	SipFor(rule ast.Rule, headAdornment ast.Adornment, derived map[string]bool) (*Graph, error)
	// Name identifies the strategy in statistics and CLI output.
	Name() string
}

// leftToRight is the full and partial left-to-right sip builders.
type leftToRight struct {
	full bool
}

// FullLeftToRight returns the strategy that builds, for every rule, the full
// (compressed) left-to-right sip: body literals are taken in textual order
// and every binding obtained so far is passed to each later derived literal.
// This is sip (I)/(IV) of Example 1.
func FullLeftToRight() Strategy { return leftToRight{full: true} }

// PartialLeftToRight returns the strategy that builds the partial
// left-to-right sip: each derived literal receives only the bindings
// produced since the previous derived literal (or since the head for the
// first one). This is sip (II)/(V) of Example 1.
func PartialLeftToRight() Strategy { return leftToRight{full: false} }

// Name implements Strategy.
func (s leftToRight) Name() string {
	if s.full {
		return "full-left-to-right"
	}
	return "partial-left-to-right"
}

// SipFor implements Strategy.
func (s leftToRight) SipFor(rule ast.Rule, headAdornment ast.Adornment, derived map[string]bool) (*Graph, error) {
	if len(headAdornment) != len(rule.Head.Args) {
		return nil, fmt.Errorf("sip: adornment %q has length %d, head %s has arity %d",
			headAdornment, len(headAdornment), rule.Head, len(rule.Head.Args))
	}
	g := &Graph{Rule: rule, HeadAdornment: headAdornment}

	boundHead := g.BoundHeadVars()
	headHasBound := headAdornment.BoundCount() > 0

	// available tracks every variable bound so far (full variant); sinceLast
	// tracks variables bound since the previous derived literal (partial
	// variant). lastTail is the node set to use as the arc tail in the
	// partial variant.
	available := make(map[string]bool)
	for v := range boundHead {
		available[v] = true
	}
	fullTail := []int{}
	if headHasBound {
		fullTail = append(fullTail, HeadNode)
	}
	partialTail := append([]int(nil), fullTail...)
	sinceLast := make(map[string]bool)
	for v := range boundHead {
		sinceLast[v] = true
	}

	for i, lit := range rule.Body {
		isDerived := derived[lit.PredKey()]
		if isDerived {
			var tail []int
			var avail map[string]bool
			if s.full {
				tail = append([]int(nil), fullTail...)
				avail = available
			} else {
				tail = append([]int(nil), partialTail...)
				avail = sinceLast
			}
			label := coveringLabel(lit, avail)
			if len(label) > 0 && len(tail) > 0 {
				// Condition (2)(ii): drop tail members not connected to a
				// label variable. With connected rules this rarely removes
				// anything, but guard against head nodes with no shared
				// variables.
				tail = g.pruneTail(tail, label)
				if len(tail) > 0 {
					g.Arcs = append(g.Arcs, Arc{Tail: tail, Head: i, Label: label})
				}
			}
			// After a derived literal, the partial variant starts a new
			// window whose only source is this literal.
			partialTail = []int{i}
			sinceLast = make(map[string]bool)
		} else if !s.full {
			partialTail = append(partialTail, i)
		}
		// All variables of the literal become available once it is solved.
		for _, v := range ast.AtomVars(lit, nil) {
			available[v] = true
			sinceLast[v] = true
		}
		fullTail = append(fullTail, i)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// pruneTail removes tail members that are not connected to any label
// variable (condition (2)(ii)).
func (g *Graph) pruneTail(tail []int, label map[string]bool) []int {
	var out []int
	for _, node := range tail {
		if g.connectedToLabel(node, label) {
			out = append(out, node)
		}
	}
	return out
}

// coveringLabel computes the maximal label allowed by condition (2)(iii):
// the union of the variables of every argument of the target all of whose
// variables are available.
func coveringLabel(target ast.Atom, available map[string]bool) map[string]bool {
	label := make(map[string]bool)
	for _, arg := range target.Args {
		vars := ast.Vars(arg, nil)
		if len(vars) == 0 {
			continue
		}
		all := true
		for _, v := range vars {
			if !available[v] {
				all = false
				break
			}
		}
		if all {
			for _, v := range vars {
				label[v] = true
			}
		}
	}
	return label
}

// Contains reports whether sip g is contained in sip h (Section 2.1): for
// every arc N →χ q of g there is an arc N' →χ' q of h with N ⊆ N' and
// χ ⊆ χ'.
func Contains(g, h *Graph) bool {
	for _, a := range g.Arcs {
		found := false
		for _, b := range h.Arcs {
			if b.Head != a.Head {
				continue
			}
			if subsetNodes(a.Tail, b.Tail) && subsetVars(a.Label, b.Label) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ProperlyContains reports whether g is properly contained in h: g is
// contained in h and h has an arc, tail member or label variable g lacks.
// A sip that is properly contained in another sip is partial (Section 2.1).
func ProperlyContains(g, h *Graph) bool {
	if !Contains(g, h) {
		return false
	}
	if len(h.Arcs) > len(g.Arcs) {
		return true
	}
	for _, b := range h.Arcs {
		matched := false
		for _, a := range g.Arcs {
			if a.Head != b.Head {
				continue
			}
			if subsetNodes(b.Tail, a.Tail) && subsetVars(b.Label, a.Label) {
				matched = true
				break
			}
		}
		if !matched {
			return true
		}
	}
	return false
}

func subsetNodes(a, b []int) bool {
	set := make(map[int]bool, len(b))
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}

func subsetVars(a, b map[string]bool) bool {
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// Fixed is a Strategy that returns pre-built sips, keyed by rule index and
// head adornment. It is used to attach hand-written sips (such as the ones
// in the paper's examples) to a program. Rules without an entry fall back to
// the default strategy.
type Fixed struct {
	// Default is used when no explicit sip is registered for a rule.
	Default Strategy
	// ByRule maps "ruleIndex|adornment" to the sip to use.
	byRule map[string]*Graph
	// resolver maps a rule to its index; populated via Register.
	keys map[string]int
}

// NewFixed returns a Fixed strategy with the given fallback.
func NewFixed(fallback Strategy) *Fixed {
	return &Fixed{Default: fallback, byRule: make(map[string]*Graph), keys: make(map[string]int)}
}

// Register attaches a sip to a rule (identified structurally by its String)
// for the sip's head adornment.
func (f *Fixed) Register(g *Graph) {
	key := g.Rule.String() + "|" + string(g.HeadAdornment)
	f.byRule[key] = g
}

// Name implements Strategy.
func (f *Fixed) Name() string { return "fixed(" + f.Default.Name() + ")" }

// SipFor implements Strategy.
func (f *Fixed) SipFor(rule ast.Rule, headAdornment ast.Adornment, derived map[string]bool) (*Graph, error) {
	key := rule.String() + "|" + string(headAdornment)
	if g, ok := f.byRule[key]; ok {
		return g, nil
	}
	return f.Default.SipFor(rule, headAdornment, derived)
}
