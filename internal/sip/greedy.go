package sip

import (
	"fmt"

	"repro/internal/ast"
)

// GreedyBoundFirst returns a sip strategy that chooses the evaluation order
// of the body greedily instead of taking it left to right: at each step it
// picks the literal with the most arguments fully covered by the variables
// bound so far (preferring base literals and, among equals, the textual
// order), passes every available binding to it, and continues. Section 11 of
// the paper points out that choosing between sips is an open optimization
// problem; this strategy is the natural "bind as much as possible as early
// as possible" heuristic, and it produces full (compressed) sips over the
// greedily chosen order.
func GreedyBoundFirst() Strategy { return greedyBoundFirst{} }

type greedyBoundFirst struct{}

// Name implements Strategy.
func (greedyBoundFirst) Name() string { return "greedy-bound-first" }

// SipFor implements Strategy.
func (greedyBoundFirst) SipFor(rule ast.Rule, headAdornment ast.Adornment, derived map[string]bool) (*Graph, error) {
	if len(headAdornment) != len(rule.Head.Args) {
		return nil, fmt.Errorf("sip: adornment %q has length %d, head %s has arity %d",
			headAdornment, len(headAdornment), rule.Head, len(rule.Head.Args))
	}
	g := &Graph{Rule: rule, HeadAdornment: headAdornment}

	available := make(map[string]bool)
	for v := range g.BoundHeadVars() {
		available[v] = true
	}
	headHasBound := headAdornment.BoundCount() > 0

	chosen := []int{}
	used := make([]bool, len(rule.Body))

	for len(chosen) < len(rule.Body) {
		best := greedyPick(rule.Body, used, available, derived)

		lit := rule.Body[best]
		if derived[lit.PredKey()] {
			// Build a full (compressed) arc over everything chosen so far.
			var tail []int
			if headHasBound {
				tail = append(tail, HeadNode)
			}
			tail = append(tail, chosen...)
			label := coveringLabel(lit, available)
			if len(label) > 0 && len(tail) > 0 {
				tail = g.pruneTail(tail, label)
				if len(tail) > 0 {
					g.Arcs = append(g.Arcs, Arc{Tail: tail, Head: best, Label: label})
				}
			}
		}
		used[best] = true
		chosen = append(chosen, best)
		for _, v := range ast.AtomVars(lit, nil) {
			available[v] = true
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// greedyPick returns the unused body position with the highest cover score,
// preferring base literals among equals and, among those, the textual order.
// The evaluator's join order (GreedyOrder) scores the same way but breaks
// ties textually; see there for why the two differ.
func greedyPick(body []ast.Atom, used []bool, available map[string]bool, derived map[string]bool) int {
	best := -1
	bestScore := -1
	bestIsBase := false
	for i, lit := range body {
		if used[i] {
			continue
		}
		s := coverScore(lit, available)
		isBase := !derived[lit.PredKey()]
		better := false
		switch {
		case s > bestScore:
			better = true
		case s == bestScore && isBase && !bestIsBase:
			// Prefer base literals: they are directly evaluable and feed
			// bindings to the derived ones.
			better = true
		}
		if better {
			best, bestScore, bestIsBase = i, s, isBase
		}
	}
	return best
}
