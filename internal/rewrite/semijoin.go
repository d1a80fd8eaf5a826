package rewrite

import (
	"repro/internal/ast"
	"repro/internal/sip"
)

// The semijoin optimization of Section 8 (Lemmas 8.1, 8.2, Theorem 8.3)
// deletes from an indexed rule the literals an arc's tail passed bindings
// from, and drops the bound arguments of the indexed predicates: the
// indices alone identify which facts belong together. It is applied only
// when every indexed occurrence of the adorned program qualifies, as in the
// paper's ancestor and nested same-generation examples.

// pendingLit is a body literal being assembled, together with its origin so
// the semijoin optimization can delete the literals an arc's tail covers.
type pendingLit struct {
	atom ast.Atom
	// origin is the literal's body position, or sip.HeadNode for the
	// magic/cnt or supplementary literal standing for p_h.
	origin int
}

func atoms(pending []pendingLit) []ast.Atom {
	out := make([]ast.Atom, len(pending))
	for i, p := range pending {
		out[i] = p.atom
	}
	return out
}

// dropCovered removes from pending the literals covered by the arc entering
// the occurrence at position pos: its tail members, the literal standing
// for p_h included. It is the generation-time form of Lemma
// 8.1 / Theorem 8.3.
func dropCovered(pending []pendingLit, g *sip.Graph, pos int) []pendingLit {
	arcs := g.ArcsInto(pos)
	if len(arcs) != 1 {
		return pending
	}
	var out []pendingLit
	for _, p := range pending {
		if !arcs[0].HasTailMember(p.origin) {
			out = append(out, p)
		}
	}
	return out
}

// arcCoversPrefix reports whether the (single) arc entering the occurrence
// at pos has a tail containing the head node and every body position in
// prefix; only then may the supplementary literal standing for that prefix
// be dropped under the semijoin optimization.
func arcCoversPrefix(g *sip.Graph, pos int, prefix []int) bool {
	arcs := g.ArcsInto(pos)
	if len(arcs) != 1 || !arcs[0].HasTailMember(sip.HeadNode) {
		return false
	}
	for _, p := range prefix {
		if !arcs[0].HasTailMember(p) {
			return false
		}
	}
	return true
}

// semijoinApplicable checks the conditions of Theorem 8.3 for every indexed
// occurrence of the adorned program.
func (w *walker) semijoinApplicable() bool {
	for _, ar := range w.ad.Rules {
		r := ar.Rule
		g := ar.Sip
		headBoundVars := g.BoundHeadVars()
		for pos, lit := range r.Body {
			if !w.target(lit) {
				continue
			}
			arcs := g.ArcsInto(pos)
			if len(arcs) != 1 {
				return false
			}
			tailVars := make(map[string]bool)
			for _, n := range arcs[0].Tail {
				if n == sip.HeadNode {
					tailVars = union(tailVars, headBoundVars)
				} else {
					tailVars = union(tailVars, ast.AtomVarSet(r.Body[n]))
				}
			}
			boundVars := ast.AtomVarSet(ast.Atom{Args: lit.BoundArgs()})
			// Condition (1): variables of the occurrence's bound arguments
			// appear nowhere else except in bound head arguments, other
			// bound arguments of the same occurrence, or arguments of
			// predicates in the arc tail.
			// Condition (2): variables of the arc tail appear nowhere else
			// except in bound arguments of the occurrence or of the head.
			for v := range union(boundVars, tailVars) {
				if !varConfined(r, g, pos, v, arcs[0]) {
					return false
				}
			}
		}
	}
	return true
}

// varConfined checks that the variable v appears nowhere in the rule except
// in bound head arguments, in arguments of the arc-tail literals, or in
// bound arguments of the occurrence at pos (the exceptions of Theorem 8.3's
// conditions (1) and (2); bound arguments are exactly the positions the
// optimization drops).
func varConfined(r ast.Rule, g *sip.Graph, pos int, v string, arc sip.Arc) bool {
	// Occurrences in the head: allowed only in bound arguments.
	for i, arg := range r.Head.Args {
		if ast.VarSet(arg)[v] && !g.HeadAdornment.Bound(i) {
			return false
		}
	}
	// Occurrences in body literals outside the arc tail: allowed only in
	// bound arguments of the occurrence itself. A variable reaching a free
	// argument of any other literal would leak the dropped value.
	for j, lit := range r.Body {
		if arc.HasTailMember(j) {
			continue
		}
		for i, arg := range lit.Args {
			if !ast.VarSet(arg)[v] {
				continue
			}
			if j == pos && lit.Adorn.Bound(i) {
				continue
			}
			return false
		}
	}
	return true
}
