package sip

import "repro/internal/ast"

// coverScore returns the number of arguments of the literal fully covered by
// the available variables, with ground arguments counting as covered. It is
// the scoring function of the greedy bound-first heuristic, shared between
// the sip strategy (GreedyBoundFirst) and the join-pipeline compiler of
// internal/eval (GreedyOrder). The two differ only in how they break ties;
// see GreedyOrder.
func coverScore(lit ast.Atom, available map[string]bool) int {
	n := 0
	for _, arg := range lit.Args {
		vars := ast.Vars(arg, nil)
		if len(vars) == 0 {
			if ast.IsGround(arg) {
				n++
			}
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
			n++
		}
	}
	return n
}

// GreedyOrder returns the join order the evaluator runs a rule body in. The
// literal at first leads (the delta occurrence of a semi-naive round, or the
// smallest body relation of a full-store pass — internal/eval picks it); the
// rest follow greedily by cover score: starting from the variables in bound
// plus the leader's, repeatedly take the literal with the most arguments
// fully covered by the variables available so far (ground arguments count as
// covered), ties going to the textual order. An invalid first (e.g. -1)
// forces nothing. The bound map is not modified.
//
// The tie-break is where this order parts from the GreedyBoundFirst sip
// strategy, which prefers base literals among equals. A sip is chosen before
// any data is seen, and there a base literal is the safe bet: it is directly
// evaluable and can only add bindings for the derived literals after it. The
// evaluator orders a body that has already been through that choice — a
// rewritten rule's text is its sip order, guard first — and it runs against
// relations whose sizes are known, so "base first" would undo the rewriting:
// anc(X,Y) :- m_anc(X), par(X,Y) would scan all of par and probe the small
// magic set once per row. Textual order keeps the sip the rewriting chose.
func GreedyOrder(body []ast.Atom, bound map[string]bool, first int) []int {
	available := make(map[string]bool, len(bound))
	for v := range bound {
		available[v] = true
	}
	order := make([]int, 0, len(body))
	used := make([]bool, len(body))
	take := func(i int) {
		used[i] = true
		order = append(order, i)
		for _, v := range ast.AtomVars(body[i], nil) {
			available[v] = true
		}
	}
	if first >= 0 && first < len(body) {
		take(first)
	}
	for len(order) < len(body) {
		best, bestScore := -1, -1
		for i, lit := range body {
			if used[i] {
				continue
			}
			if s := coverScore(lit, available); s > bestScore {
				best, bestScore = i, s
			}
		}
		take(best)
	}
	return order
}
