// Package supmagic implements the generalized supplementary magic-sets
// rewriting (GSMS, Section 5 of Beeri & Ramakrishnan, "On the Power of
// Magic").
//
// GSMS addresses the duplicate work of plain generalized magic sets: the
// joins computed while deriving magic facts are re-computed by the modified
// rules. Supplementary magic predicates sup_r_i store the intermediate join
// results (the bindings accumulated after solving the first i-1 body
// literals of rule r), the magic rules read them off directly, and the
// modified rule restarts from the last supplementary predicate instead of
// re-joining the prefix.
//
// The standard simplification is always applied: the first supplementary
// predicate, which would merely copy magic_p^a, is eliminated and its
// occurrences are replaced by magic_p^a itself (as done throughout the
// paper's Appendix A.4).
package supmagic

import (
	"fmt"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/rewrite"
	"repro/internal/sip"
)

// Options configure the generalized supplementary magic-sets rewriting.
type Options struct {
	// KeepUnusedVariables disables the projection optimization that drops
	// from each supplementary predicate the variables not needed by later
	// body literals or by the rule head. It exists for ablation experiments.
	KeepUnusedVariables bool
}

// Rewriter is the generalized supplementary magic-sets rewriter.
type Rewriter struct {
	opts Options
}

// New returns a GSMS rewriter with the given options.
func New(opts Options) *Rewriter { return &Rewriter{opts: opts} }

// Name implements rewrite.Rewriter.
func (rw *Rewriter) Name() string { return "generalized-supplementary-magic-sets" }

// Rewrite implements rewrite.Rewriter.
func (rw *Rewriter) Rewrite(ad *adorn.Program) (*rewrite.Rewriting, error) {
	if err := rewrite.ValidateAdorned(ad); err != nil {
		return nil, err
	}
	// The answer relation's key is the pattern's PredKey, which a zero-arity
	// query (empty adornment) names without the "^" of ad.QueryPred.
	answer := ast.Atom{Pred: ad.Query.Atom.Pred, Adorn: ad.QueryAdornment, Args: ad.Query.Atom.Args}
	out := &rewrite.Rewriting{
		Name:            rw.Name(),
		Adorned:         ad,
		AnswerPred:      answer.PredKey(),
		AnswerPattern:   answer,
		AnswerArity:     len(ad.Query.Atom.Args),
		AnswerIndexArgs: 0,
		AuxPredicates:   make(map[string]bool),
	}

	var supRules, modifiedRules, magicRules []ast.Rule
	for ruleIdx, ar := range ad.Rules {
		s, m, mod, err := rw.rewriteRule(ad, ruleIdx, ar)
		if err != nil {
			return nil, err
		}
		supRules = append(supRules, s...)
		magicRules = append(magicRules, m...)
		modifiedRules = append(modifiedRules, mod)
	}

	rules := append(append(supRules, modifiedRules...), magicRules...)
	out.Program = ast.NewProgram(rules...)
	for _, r := range rules {
		if isAux(r.Head.Pred) {
			out.AuxPredicates[r.Head.PredKey()] = true
		}
	}
	seed := rewrite.SeedAtom(ad)
	out.Seeds = []ast.Atom{seed}
	out.AuxPredicates[seed.PredKey()] = true
	// Parameterization schema: like plain magic sets, the seed arguments are
	// the query's bound constants and the answer pattern carries them at the
	// query's bound positions.
	positions := make([]int, len(seed.Args))
	for i := range positions {
		positions[i] = i
	}
	out.SeedBoundArgs = [][]int{positions}
	out.AnswerBoundArgs = rewrite.QueryBoundPositions(ad)
	return out, nil
}

func isAux(pred string) bool {
	return (len(pred) > 6 && pred[:6] == "magic_") || (len(pred) > 4 && pred[:4] == "sup_")
}

// rewriteRule produces the supplementary rules, magic rules and modified
// rule contributed by one adorned rule.
func (rw *Rewriter) rewriteRule(ad *adorn.Program, ruleIdx int, ar adorn.Rule) (sup, magic []ast.Rule, modified ast.Rule, err error) {
	r := ar.Rule
	g := ar.Sip
	headBound := r.Head.Adorn.BoundCount() > 0

	lastIdx, order, err := g.LastWithArc()
	if err != nil {
		return nil, nil, ast.Rule{}, fmt.Errorf("supmagic: rule %d: %w", ruleIdx, err)
	}
	for pos, lit := range r.Body {
		if rewrite.IsDerivedOccurrence(ad, lit) && lit.Adorn.BoundCount() > 0 && len(g.ArcsInto(pos)) == 0 {
			magic = append(magic, rewrite.ConstantMagicRule(r, lit))
		}
	}

	// Rules in which no body literal receives bindings (or whose head is
	// all-free) degenerate to the plain magic-sets shape: guard the body
	// with the head's magic literal and derive magic rules directly from the
	// arcs.
	if lastIdx < 0 || !headBound {
		for pos, lit := range r.Body {
			if !rewrite.IsDerivedOccurrence(ad, lit) || lit.Adorn.BoundCount() == 0 || len(g.ArcsInto(pos)) == 0 {
				continue
			}
			for _, arc := range g.ArcsInto(pos) {
				body := arcBody(r, g, arc, headBound)
				magic = append(magic, ast.Rule{Head: rewrite.MagicAtom(lit), Body: body})
			}
		}
		body := r.Body
		if headBound {
			body = append([]ast.Atom{rewrite.HeadMagicAtom(r)}, body...)
		}
		return nil, magic, ast.Rule{Head: r.Head, Body: body}, nil
	}

	// headVarOrder lists the rule's variables in order of first appearance
	// (head first, then body in sip order) for deterministic supplementary
	// predicate argument lists.
	varOrder := ast.AtomVars(r.Head, nil)
	for _, pos := range order {
		varOrder = ast.AtomVars(r.Body[pos], varOrder)
	}

	// neededFrom[k] is the set of variables appearing in the head or in the
	// body literals at order positions >= k; a supplementary predicate for
	// prefix k keeps only variables needed from k onward.
	n := len(order)
	neededFrom := make([]map[string]bool, n+1)
	neededFrom[n] = ast.AtomVarSet(r.Head)
	for k := n - 1; k >= 0; k-- {
		set := make(map[string]bool)
		for v := range neededFrom[k+1] {
			set[v] = true
		}
		for v := range ast.AtomVarSet(r.Body[order[k]]) {
			set[v] = true
		}
		neededFrom[k] = set
	}

	// m is the 1-based position (within the sip order) of the last body
	// literal with an incoming arc.
	m := lastIdx + 1

	// supAtom(i) is the i-th supplementary predicate of this rule (1-based),
	// with supAtom(1) replaced by the head's magic literal per the standard
	// optimization.
	phi := make([]map[string]bool, m+1)
	phi[1] = g.BoundHeadVars()
	supAtom := func(i int) ast.Atom {
		if i == 1 {
			return rewrite.HeadMagicAtom(r)
		}
		return ast.Atom{
			Pred: fmt.Sprintf("sup_%d_%d", ruleIdx+1, i),
			Args: varsInOrder(phi[i], varOrder),
		}
	}

	// Supplementary rules for i = 2..m.
	for i := 2; i <= m; i++ {
		prevLit := r.Body[order[i-2]]
		set := make(map[string]bool)
		for v := range phi[i-1] {
			set[v] = true
		}
		for v := range ast.AtomVarSet(prevLit) {
			set[v] = true
		}
		if !rw.opts.KeepUnusedVariables {
			for v := range set {
				if !neededFrom[i-1][v] {
					delete(set, v)
				}
			}
		}
		phi[i] = set
		sup = append(sup, ast.Rule{
			Head: supAtom(i),
			Body: []ast.Atom{supAtom(i - 1), prevLit},
		})
	}

	// Magic rules: for each body literal with an incoming arc (at sip-order
	// position j, 1-based), magic_q^a(bound args) :- sup_j.
	for j := 1; j <= m; j++ {
		lit := r.Body[order[j-1]]
		if !rewrite.IsDerivedOccurrence(ad, lit) || lit.Adorn.BoundCount() == 0 || len(g.ArcsInto(order[j-1])) == 0 {
			continue
		}
		magic = append(magic, ast.Rule{
			Head: rewrite.MagicAtom(lit),
			Body: []ast.Atom{supAtom(j)},
		})
	}

	// Modified rule: restart from sup_m and keep the literals from the last
	// arc-receiving one onward.
	body := []ast.Atom{supAtom(m)}
	for k := m - 1; k < n; k++ {
		body = append(body, r.Body[order[k]])
	}
	modified = ast.Rule{Head: r.Head, Body: body}
	return sup, magic, modified, nil
}

// arcBody builds a magic rule body directly from a sip arc (used only for
// the degenerate cases where no supplementary predicates are introduced).
func arcBody(r ast.Rule, g *sip.Graph, arc sip.Arc, headBound bool) []ast.Atom {
	var body []ast.Atom
	if arc.HasTailMember(sip.HeadNode) && headBound {
		body = append(body, rewrite.HeadMagicAtom(r))
	}
	for _, node := range sip.SortedNodes(arc.Tail) {
		if node == sip.HeadNode {
			continue
		}
		body = append(body, r.Body[node])
	}
	return body
}

// varsInOrder returns the variables of the set as terms, ordered by the
// given first-appearance order.
func varsInOrder(set map[string]bool, order []string) []ast.Term {
	var out []ast.Term
	for _, v := range order {
		if set[v] {
			out = append(out, ast.V(v))
		}
	}
	return out
}
