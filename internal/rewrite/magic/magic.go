// Package magic implements the generalized magic-sets rewriting (GMS,
// Section 4 of Beeri & Ramakrishnan, "On the Power of Magic").
//
// For every adorned rule and every derived body occurrence that receives
// bindings through the rule's sip, the rewriting introduces a magic rule
// defining the auxiliary predicate magic_q^a; the original rule is modified
// by adding the magic predicate of its head as a guard. A seed fact for the
// query's magic predicate initializes the computation. Bottom-up evaluation
// of the rewritten program computes exactly the facts relevant to the query
// under the chosen sip collection (Theorems 4.1 and 9.1).
//
// By default the rewriting applies the simplification of Propositions
// 4.2/4.3: only the magic literal corresponding to the rule head is kept in
// each rewritten rule. Set Options.KeepAllGuards to generate the
// unsimplified rules, with a magic guard before every derived body
// occurrence, as in the first presentation of the transformation.
package magic

import (
	"fmt"
	"sort"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/rewrite"
	"repro/internal/sip"
)

// Options configure the generalized magic-sets rewriting.
type Options struct {
	// KeepAllGuards, when true, inserts a magic guard before every derived
	// body occurrence with bound arguments (the unsimplified construction of
	// Section 4). When false (the default), only the head guard is kept, as
	// justified by Propositions 4.2 and 4.3.
	KeepAllGuards bool
}

// Rewriter is the generalized magic-sets rewriter.
type Rewriter struct {
	opts Options
}

// New returns a generalized magic-sets rewriter with the given options.
func New(opts Options) *Rewriter { return &Rewriter{opts: opts} }

// Name implements rewrite.Rewriter.
func (rw *Rewriter) Name() string { return "generalized-magic-sets" }

// Rewrite implements rewrite.Rewriter.
func (rw *Rewriter) Rewrite(ad *adorn.Program) (*rewrite.Rewriting, error) {
	if err := rewrite.ValidateAdorned(ad); err != nil {
		return nil, err
	}
	out := &rewrite.Rewriting{
		Name:            rw.Name(),
		Adorned:         ad,
		AnswerPred:      ad.QueryPred,
		AnswerPattern:   ast.Atom{Pred: ad.Query.Atom.Pred, Adorn: ad.QueryAdornment, Args: ad.Query.Atom.Args},
		AnswerArity:     len(ad.Query.Atom.Args),
		AnswerIndexArgs: 0,
		AuxPredicates:   make(map[string]bool),
	}

	var magicRules []ast.Rule
	var modifiedRules []ast.Rule

	for ruleIdx, ar := range ad.Rules {
		mrs, err := rw.magicRulesFor(ad, ruleIdx, ar)
		if err != nil {
			return nil, err
		}
		magicRules = append(magicRules, mrs...)
		modifiedRules = append(modifiedRules, rw.modifiedRule(ad, ar))
	}

	rules := append(magicRules, modifiedRules...)
	out.Program = ast.NewProgram(rules...)
	for _, r := range rules {
		if isAux(r.Head.Pred) {
			out.AuxPredicates[r.Head.PredKey()] = true
		}
	}
	seed := rewrite.SeedAtom(ad)
	out.Seeds = []ast.Atom{seed}
	out.AuxPredicates[seed.PredKey()] = true
	// The seed's arguments are exactly the query's bound constants, and the
	// answer pattern carries them at the query's own bound positions.
	positions := make([]int, len(seed.Args))
	for i := range positions {
		positions[i] = i
	}
	out.SeedBoundArgs = [][]int{positions}
	out.AnswerBoundArgs = rewrite.QueryBoundPositions(ad)
	return out, nil
}

func isAux(pred string) bool {
	return len(pred) > 6 && pred[:6] == "magic_" || len(pred) > 6 && pred[:6] == "label_"
}

// magicRulesFor generates the magic rules contributed by one adorned rule:
// one per derived body occurrence that has bound arguments and at least one
// incoming sip arc (Section 4, step 2).
func (rw *Rewriter) magicRulesFor(ad *adorn.Program, ruleIdx int, ar adorn.Rule) ([]ast.Rule, error) {
	var out []ast.Rule
	r := ar.Rule
	g := ar.Sip
	for pos, lit := range r.Body {
		if !rewrite.IsDerivedOccurrence(ad, lit) || lit.Adorn.BoundCount() == 0 {
			continue
		}
		arcs := g.ArcsInto(pos)
		if len(arcs) == 0 {
			out = append(out, rewrite.ConstantMagicRule(r, lit))
			continue
		}
		head := rewrite.MagicAtom(lit)
		if len(arcs) == 1 {
			body := rw.arcBody(ad, r, g, arcs[0])
			if len(body) == 0 {
				return nil, fmt.Errorf("magic: arc into %s in rule %d produced an empty magic rule body", lit, ruleIdx)
			}
			out = append(out, ast.Rule{Head: head, Body: body})
			continue
		}
		// Multiple arcs entering the same occurrence: one label rule per arc,
		// and a magic rule joining the labels (Section 4).
		var labelAtoms []ast.Atom
		for arcIdx, arc := range arcs {
			labelHead := ast.Atom{
				Pred: fmt.Sprintf("label_%s_%d_%d_%d", lit.Pred, ruleIdx, pos, arcIdx),
				Args: varsAsTerms(arc.LabelVars()),
			}
			body := rw.arcBody(ad, r, g, arc)
			if len(body) == 0 {
				return nil, fmt.Errorf("magic: arc %d into %s in rule %d produced an empty label rule body", arcIdx, lit, ruleIdx)
			}
			out = append(out, ast.Rule{Head: labelHead, Body: body})
			labelAtoms = append(labelAtoms, labelHead)
		}
		out = append(out, ast.Rule{Head: head, Body: labelAtoms})
	}
	return out, nil
}

// arcBody builds the body of the magic (or label) rule for one sip arc: the
// head's magic literal if the special node p_h is in the tail, followed by
// the tail's body literals in sip order. With KeepAllGuards, magic guards of
// derived tail literals are inserted as well (the unsimplified rules of
// Section 4, removable by Proposition 4.3).
func (rw *Rewriter) arcBody(ad *adorn.Program, r ast.Rule, g *sip.Graph, arc sip.Arc) []ast.Atom {
	var body []ast.Atom
	headAdorned := g.HeadAdornment.BoundCount() > 0
	if arc.HasTailMember(sip.HeadNode) && headAdorned {
		body = append(body, rewrite.HeadMagicAtom(r))
	}
	positions := orderTail(arc, g)
	for _, j := range positions {
		lit := r.Body[j]
		if rw.opts.KeepAllGuards && rewrite.IsDerivedOccurrence(ad, lit) && lit.Adorn.BoundCount() > 0 {
			body = append(body, rewrite.MagicAtom(lit))
		}
		body = append(body, lit)
	}
	return body
}

// orderTail returns the body positions of the arc tail ordered by the sip's
// total order (textual order for the left-to-right builders).
func orderTail(arc sip.Arc, g *sip.Graph) []int {
	order, err := g.TotalOrder()
	rank := make(map[int]int)
	if err == nil {
		for i, pos := range order {
			rank[pos] = i
		}
	}
	var positions []int
	for _, node := range arc.Tail {
		if node != sip.HeadNode {
			positions = append(positions, node)
		}
	}
	sort.Slice(positions, func(i, j int) bool {
		ri, iok := rank[positions[i]]
		rj, jok := rank[positions[j]]
		if iok && jok {
			return ri < rj
		}
		return positions[i] < positions[j]
	})
	return positions
}

// modifiedRule returns the adorned rule with the magic guard for its head
// inserted at the front of the body (Section 4, step 3, simplified per
// Proposition 4.3). With KeepAllGuards, guards for the derived body
// occurrences are inserted before each occurrence as well.
func (rw *Rewriter) modifiedRule(ad *adorn.Program, ar adorn.Rule) ast.Rule {
	r := ar.Rule.Clone()
	var body []ast.Atom
	if r.Head.Adorn.BoundCount() > 0 {
		body = append(body, rewrite.HeadMagicAtom(r))
	}
	for pos, lit := range r.Body {
		if rw.opts.KeepAllGuards && rewrite.IsDerivedOccurrence(ad, lit) &&
			lit.Adorn.BoundCount() > 0 && len(ar.Sip.ArcsInto(pos)) > 0 {
			body = append(body, rewrite.MagicAtom(lit))
		}
		body = append(body, lit)
	}
	return ast.Rule{Head: r.Head, Body: body}
}

func varsAsTerms(names []string) []ast.Term {
	out := make([]ast.Term, len(names))
	for i, n := range names {
		out[i] = ast.V(n)
	}
	return out
}
