// Package depgraph builds the predicate dependency graph of a program and
// decomposes it into strongly connected components (the paper's "blocks",
// Section 8) in topological order. The semi-naive evaluator uses the
// resulting plan to evaluate one component at a time, callees before
// callers, and to restrict delta-driven rule re-firing to the rules that are
// actually recursive within the component being evaluated.
package depgraph

import (
	"fmt"
	"strings"

	"repro/internal/ast"
)

// Component is one stratum of the evaluation plan: a maximal set of
// mutually recursive derived predicates together with the rules defining
// them.
type Component struct {
	// Preds lists the predicate keys of the component, sorted.
	Preds []string
	// Rules lists the indices (into the program's rule slice) of the rules
	// whose head predicate belongs to this component, in program order.
	Rules []int
	// Recursive reports whether the component contains a cycle: more than
	// one predicate, or a single predicate depending on itself. Only
	// recursive components need a delta-iteration loop; a non-recursive
	// component is complete after a single pass over its rules.
	Recursive bool
	// DeltaPositions maps a rule index (from Rules) to the body positions
	// whose predicate belongs to this same component — the occurrences a
	// semi-naive delta can enter the rule through. Rules of a recursive
	// component with no such position (exit rules) never re-fire after the
	// component's first pass.
	DeltaPositions map[int][]int
}

// Plan is the SCC decomposition of a program's derived predicates, in
// topological order (callees before callers): every derived predicate a
// component's rule bodies read from another component belongs to an earlier
// one, so evaluating the components in order finds each of them complete.
type Plan struct {
	// Components lists the strata in evaluation order.
	Components []Component
	// PredComponent maps each derived predicate key to the index of its
	// component in Components.
	PredComponent map[string]int
}

// Analyze decomposes the program into its evaluation plan. The component
// order and contents are deterministic for a given program.
func Analyze(p *ast.Program) *Plan {
	deps := p.PredicateDependencies()
	plan := &Plan{PredComponent: make(map[string]int)}
	for ci, preds := range p.StronglyConnectedComponents() {
		comp := Component{
			Preds:          preds,
			Recursive:      len(preds) > 1,
			DeltaPositions: make(map[int][]int),
		}
		if len(preds) == 1 && deps[preds[0]][preds[0]] {
			comp.Recursive = true
		}
		for _, pred := range preds {
			plan.PredComponent[pred] = ci
		}
		plan.Components = append(plan.Components, comp)
	}
	for ri, r := range p.Rules {
		ci, ok := plan.PredComponent[r.Head.PredKey()]
		if !ok {
			// Cannot happen: every rule head is a derived predicate and every
			// derived predicate is in some component.
			continue
		}
		comp := &plan.Components[ci]
		comp.Rules = append(comp.Rules, ri)
		for pos, lit := range r.Body {
			if bc, ok := plan.PredComponent[lit.PredKey()]; ok && bc == ci {
				comp.DeltaPositions[ri] = append(comp.DeltaPositions[ri], pos)
			}
		}
	}
	return plan
}

// Strata returns the number of components in the plan.
func (pl *Plan) Strata() int { return len(pl.Components) }

// String renders the plan one component per line, for debugging and tests.
func (pl *Plan) String() string {
	var b strings.Builder
	for i, c := range pl.Components {
		rec := ""
		if c.Recursive {
			rec = " (recursive)"
		}
		fmt.Fprintf(&b, "stratum %d%s: %s rules=%v\n", i, rec, strings.Join(c.Preds, ", "), c.Rules)
	}
	return b.String()
}
