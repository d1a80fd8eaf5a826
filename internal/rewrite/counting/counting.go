// Package counting implements the generalized counting (GC, Section 6) and
// generalized supplementary counting (GSC, Section 7) rewritings of Beeri &
// Ramakrishnan, "On the Power of Magic", together with the semijoin
// optimization of Section 8 (Lemmas 8.1, 8.2 and Theorem 8.3).
//
// Counting refines magic sets by recording, with every auxiliary fact, an
// encoding of the derivation context that produced it: three index fields
// (I, K, H) holding the recursion depth, the sequence of rules applied and
// the sequence of body positions expanded. The indexed facts let the
// semijoin optimization delete join literals and drop bound arguments
// entirely, because the indices alone identify which facts belong together.
//
// # Index encoding
//
// The paper encodes the three index sequences as integers: I as the depth,
// K and H as the numbers K·m+i and H·t+j (m the number of rules, t the
// maximum body length), and writes the modified rule's head indices as the
// quotients that invert them. This implementation builds the sequences
// themselves as terms, which need no bound on their length: a rule's head
// carries the indices of its cnt/supcnt literal unchanged, and each indexed
// body literal carries s(I), k(K, i) and h(H, j), where i is the 1-based
// rule number and j the 1-based body position. The seed's indices are
// (0, 0, 0). When the semijoin optimization deletes the cnt literal, the
// evaluator recovers the head indices by destructuring the child's, which
// is exactly the role the paper's quotient notation plays.
//
// # Applicability
//
// Counting requires a query with at least one bound argument. The semijoin
// optimization is applied only when every indexed predicate of the adorned
// program satisfies the conditions of Theorem 8.3 (as is the case for the
// paper's ancestor and nested same-generation examples); otherwise the
// option is ignored and the unoptimized rules are produced, mirroring the
// paper's appendix, which leaves the list and nonlinear examples
// unoptimized.
package counting

import (
	"fmt"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/rewrite"
	"repro/internal/sip"
)

// Options configure the counting rewritings.
type Options struct {
	// Semijoin requests the semijoin optimization of Section 8. It is
	// applied only if the whole adorned program qualifies under Theorem 8.3;
	// the Rewriting's DroppedAnswerBound field reports whether it was.
	Semijoin bool
}

// Rewriter implements the generalized counting (and supplementary counting)
// rewriting.
type Rewriter struct {
	opts          Options
	supplementary bool
}

// New returns the generalized counting rewriter (GC, Section 6).
func New(opts Options) *Rewriter { return &Rewriter{opts: opts} }

// NewSupplementary returns the generalized supplementary counting rewriter
// (GSC, Section 7).
func NewSupplementary(opts Options) *Rewriter {
	return &Rewriter{opts: opts, supplementary: true}
}

// Name implements rewrite.Rewriter.
func (rw *Rewriter) Name() string {
	if rw.supplementary {
		return "generalized-supplementary-counting"
	}
	return "generalized-counting"
}

// context carries the per-rewrite state.
type context struct {
	ad      *adorn.Program
	opts    Options
	supp    bool
	reduced bool
	// indexed reports whether an adorned predicate key gets index fields
	// (derived with at least one bound argument).
	indexed map[string]bool
}

// Rewrite implements rewrite.Rewriter.
func (rw *Rewriter) Rewrite(ad *adorn.Program) (*rewrite.Rewriting, error) {
	if err := rewrite.ValidateAdorned(ad); err != nil {
		return nil, err
	}
	if ad.QueryAdornment.BoundCount() == 0 {
		return nil, fmt.Errorf("counting: the query %s has no bound argument; the counting rewritings require one", ad.Query)
	}

	ctx := &context{ad: ad, opts: rw.opts, supp: rw.supplementary, indexed: make(map[string]bool)}
	for _, ar := range ad.Rules {
		if ar.Rule.Head.Adorn.BoundCount() > 0 {
			ctx.indexed[ar.Rule.Head.PredKey()] = true
		}
	}
	// Reject the mixed case a rule with an all-free head adornment but an
	// indexed body occurrence: there is no cnt literal to supply the indices.
	for i, ar := range ad.Rules {
		if ar.Rule.Head.Adorn.BoundCount() > 0 {
			continue
		}
		for _, lit := range ar.Rule.Body {
			if ctx.indexed[lit.PredKey()] {
				return nil, fmt.Errorf("counting: rule %d (%s) has an all-free head but the bound body occurrence %s; the counting rewritings do not apply", i, ar.Rule, lit)
			}
		}
	}

	if rw.opts.Semijoin {
		ctx.reduced = semijoinApplicable(ad, ctx.indexed)
	}

	var cntRules, supRules, modifiedRules []ast.Rule
	for ruleIdx, ar := range ad.Rules {
		c, s, mod, err := ctx.rewriteRule(ruleIdx, ar)
		if err != nil {
			return nil, err
		}
		cntRules = append(cntRules, c...)
		supRules = append(supRules, s...)
		modifiedRules = append(modifiedRules, mod)
	}

	var rules []ast.Rule
	rules = append(rules, supRules...)
	rules = append(rules, cntRules...)
	rules = append(rules, modifiedRules...)

	out := &rewrite.Rewriting{
		Name:               rw.Name(),
		Adorned:            ad,
		Program:            ast.NewProgram(rules...),
		AnswerIndexArgs:    3,
		DroppedAnswerBound: ctx.reduced,
		AuxPredicates:      make(map[string]bool),
	}
	// Seed: cnt_q_ind^a(0, 0, 0, c̄).
	queryAtom := ast.Atom{Pred: ad.Query.Atom.Pred, Adorn: ad.QueryAdornment, Args: ad.Query.Atom.Args}
	seed := ctx.cntAtom(queryAtom, zeroIndices())
	out.Seeds = []ast.Atom{seed}
	answer := ctx.indexedAtom(queryAtom, zeroIndices())
	out.AnswerPred = answer.PredKey()
	out.AnswerPattern = answer
	out.AnswerArity = len(answer.Args)
	for _, r := range rules {
		if isAux(r.Head.Pred) {
			out.AuxPredicates[r.Head.PredKey()] = true
		}
	}
	out.AuxPredicates[seed.PredKey()] = true
	// Parameterization schema: the seed carries the query's bound constants
	// after its three index fields. Unreduced answer patterns carry them at
	// 3 + the query's own bound positions; the semijoin optimization drops
	// the bound arguments from the answer predicate entirely.
	nb := len(ad.Query.BoundConstants())
	seedPos := make([]int, nb)
	for i := range seedPos {
		seedPos[i] = 3 + i
	}
	out.SeedBoundArgs = [][]int{seedPos}
	out.AnswerBoundArgs = make([]int, 0, nb)
	for i, arg := range ad.Query.Atom.Args {
		if !ast.IsGround(arg) {
			continue
		}
		if ctx.reduced {
			out.AnswerBoundArgs = append(out.AnswerBoundArgs, -1)
		} else {
			out.AnswerBoundArgs = append(out.AnswerBoundArgs, 3+i)
		}
	}
	return out, nil
}

func isAux(pred string) bool {
	return hasPrefix(pred, "cnt_") || hasPrefix(pred, "supcnt_")
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// zeroIndices returns the (0, 0, 0) index triple of the seed.
func zeroIndices() [3]ast.Term {
	return [3]ast.Term{ast.I(0), ast.I(0), ast.I(0)}
}

// indexVarsFor picks the names of the index variables for a rule, avoiding
// clashes with the rule's own variables.
func indexVarsFor(r ast.Rule) [3]ast.Term {
	used := make(map[string]bool)
	for _, v := range r.Vars() {
		used[v] = true
	}
	pick := func(base string) ast.Term {
		name := base
		for used[name] {
			name += "x"
		}
		used[name] = true
		return ast.V(name)
	}
	return [3]ast.Term{pick("I"), pick("K"), pick("H")}
}

// childIndices computes the index triple of a body occurrence: s(I),
// k(K, i), h(H, j) for rule number i (1-based) and body position j
// (1-based).
func childIndices(parent [3]ast.Term, ruleIdx, pos int) [3]ast.Term {
	return [3]ast.Term{
		ast.C("s", parent[0]),
		ast.C("k", parent[1], ast.I(int64(ruleIdx+1))),
		ast.C("h", parent[2], ast.I(int64(pos+1))),
	}
}

// indexedAtom returns the p_ind^a version of an adorned atom with the given
// index triple. Bound arguments are dropped when the semijoin optimization
// is in force.
func (c *context) indexedAtom(a ast.Atom, idx [3]ast.Term) ast.Atom {
	args := []ast.Term{idx[0], idx[1], idx[2]}
	if c.reduced {
		args = append(args, a.FreeArgs()...)
	} else {
		args = append(args, a.Args...)
	}
	return ast.Atom{Pred: a.Pred + "_ind", Adorn: a.Adorn, Args: args}
}

// cntAtom returns the cnt_p_ind^a atom for an adorned atom with the given
// index triple; its payload is always the bound arguments.
func (c *context) cntAtom(a ast.Atom, idx [3]ast.Term) ast.Atom {
	args := []ast.Term{idx[0], idx[1], idx[2]}
	args = append(args, a.BoundArgs()...)
	return ast.Atom{Pred: "cnt_" + a.Pred + "_ind", Adorn: a.Adorn, Args: args}
}

// pendingLit is a body literal being assembled, together with its origin so
// the semijoin optimization can delete the literals belonging to a sip arc
// tail.
type pendingLit struct {
	atom    ast.Atom
	origin  int  // body position, or -1 for the head's cnt/supcnt literal
	isGuard bool // true for the cnt/supcnt literal standing for p_h
}

// dropCovered removes from pending the literals covered by the arc entering
// the occurrence at position pos: its tail members and, if the special head
// node is in the tail, the cnt/supcnt guard. It is the generation-time form
// of Lemma 8.1 / Theorem 8.3.
func dropCovered(pending []pendingLit, g *sip.Graph, pos int) []pendingLit {
	arcs := g.ArcsInto(pos)
	if len(arcs) != 1 {
		return pending
	}
	arc := arcs[0]
	inTail := make(map[int]bool)
	for _, n := range arc.Tail {
		inTail[n] = true
	}
	var out []pendingLit
	for _, p := range pending {
		if p.isGuard && inTail[sip.HeadNode] {
			continue
		}
		if !p.isGuard && inTail[p.origin] {
			continue
		}
		out = append(out, p)
	}
	return out
}

func atoms(pending []pendingLit) []ast.Atom {
	out := make([]ast.Atom, len(pending))
	for i, p := range pending {
		out[i] = p.atom
	}
	return out
}

// rewriteRule produces the counting rules, supplementary counting rules (GSC
// only) and the modified rule for one adorned rule.
func (c *context) rewriteRule(ruleIdx int, ar adorn.Rule) (cnt, sup []ast.Rule, modified ast.Rule, err error) {
	r := ar.Rule
	g := ar.Sip
	headIndexed := c.indexed[r.Head.PredKey()]
	idx := indexVarsFor(r)

	order, err := g.TotalOrder()
	if err != nil {
		return nil, nil, ast.Rule{}, fmt.Errorf("counting: rule %d: %w", ruleIdx, err)
	}

	if c.supp && headIndexed {
		return c.rewriteRuleSupplementary(ruleIdx, ar, idx, order)
	}

	// --- plain generalized counting ---
	// Counting rules: one per indexed body occurrence. An occurrence that
	// no arc enters has only constants as bound arguments and is relevant
	// whenever the rule is, as in rewrite.ConstantMagicRule.
	for _, pos := range order {
		lit := r.Body[pos]
		if !c.indexed[lit.PredKey()] {
			continue
		}
		body := []ast.Atom{c.cntAtom(r.Head, idx)}
		if len(g.ArcsInto(pos)) > 0 {
			body = c.arcBody(ruleIdx, r, g, pos, idx, order)
		}
		cnt = append(cnt, ast.Rule{Head: c.cntAtom(lit, childIndices(idx, ruleIdx, pos)), Body: body})
	}

	// Modified rule.
	var pending []pendingLit
	if headIndexed {
		pending = append(pending, pendingLit{atom: c.cntAtom(r.Head, idx), origin: -1, isGuard: true})
	}
	for _, pos := range order {
		lit := r.Body[pos]
		if c.indexed[lit.PredKey()] {
			if c.reduced {
				pending = dropCovered(pending, g, pos)
			}
			pending = append(pending, pendingLit{atom: c.indexedAtom(lit, childIndices(idx, ruleIdx, pos)), origin: pos})
		} else {
			pending = append(pending, pendingLit{atom: lit, origin: pos})
		}
	}
	var head ast.Atom
	if headIndexed {
		head = c.indexedAtom(r.Head, idx)
	} else {
		head = r.Head
	}
	modified = ast.Rule{Head: head, Body: atoms(pending)}
	return cnt, nil, modified, nil
}

// arcBody builds the body of the counting rule for the occurrence at the
// given position: the head's cnt literal if p_h is in the arc tail, followed
// by the tail's literals (indexed versions for indexed occurrences), with
// the semijoin deletions applied when in force.
func (c *context) arcBody(ruleIdx int, r ast.Rule, g *sip.Graph, target int, idx [3]ast.Term, order []int) []ast.Atom {
	arc := g.ArcsInto(target)[0]
	inTail := make(map[int]bool)
	for _, n := range arc.Tail {
		inTail[n] = true
	}
	headIndexed := c.indexed[r.Head.PredKey()]

	var pending []pendingLit
	if inTail[sip.HeadNode] && headIndexed {
		pending = append(pending, pendingLit{atom: c.cntAtom(r.Head, idx), origin: -1, isGuard: true})
	}
	for _, pos := range order {
		if pos == target || !inTail[pos] {
			continue
		}
		lit := r.Body[pos]
		if c.indexed[lit.PredKey()] {
			if c.reduced {
				pending = dropCovered(pending, g, pos)
			}
			pending = append(pending, pendingLit{atom: c.indexedAtom(lit, childIndices(idx, ruleIdx, pos)), origin: pos})
		} else {
			pending = append(pending, pendingLit{atom: lit, origin: pos})
		}
	}
	return atoms(pending)
}

// rewriteRuleSupplementary produces the GSC rules for one adorned rule whose
// head is indexed.
func (c *context) rewriteRuleSupplementary(ruleIdx int, ar adorn.Rule, idx [3]ast.Term, order []int) (cnt, sup []ast.Rule, modified ast.Rule, err error) {
	r := ar.Rule
	g := ar.Sip

	lastIdx := -1
	for k, pos := range order {
		if len(g.ArcsInto(pos)) > 0 {
			lastIdx = k
		}
	}

	// Degenerate case: no body literal receives bindings. The rule, and the
	// counting rule of every indexed occurrence (bound by constants only),
	// is guarded by the head's cnt literal alone.
	if lastIdx < 0 {
		guard := c.cntAtom(r.Head, idx)
		body := []ast.Atom{guard}
		for _, pos := range order {
			lit := r.Body[pos]
			if c.indexed[lit.PredKey()] {
				child := childIndices(idx, ruleIdx, pos)
				cnt = append(cnt, ast.Rule{Head: c.cntAtom(lit, child), Body: []ast.Atom{guard}})
				body = append(body, c.indexedAtom(lit, child))
			} else {
				body = append(body, lit)
			}
		}
		return cnt, nil, ast.Rule{Head: c.indexedAtom(r.Head, idx), Body: body}, nil
	}

	// varOrder gives deterministic argument order for supcnt predicates.
	varOrder := ast.AtomVars(r.Head, nil)
	for _, pos := range order {
		varOrder = ast.AtomVars(r.Body[pos], varOrder)
	}

	// neededFrom[k]: variables needed by the (possibly reduced) head or by
	// body literals at order positions >= k. Bound arguments of indexed
	// occurrences stay "needed" even under reduction because their counting
	// rules still build the cnt heads from them.
	n := len(order)
	litNeeds := func(pos int) map[string]bool {
		return ast.AtomVarSet(r.Body[pos])
	}
	headNeeds := make(map[string]bool)
	if c.reduced {
		for _, t := range r.Head.FreeArgs() {
			for _, v := range ast.Vars(t, nil) {
				headNeeds[v] = true
			}
		}
	} else {
		headNeeds = ast.AtomVarSet(r.Head)
	}
	neededFrom := make([]map[string]bool, n+1)
	neededFrom[n] = headNeeds
	for k := n - 1; k >= 0; k-- {
		set := make(map[string]bool)
		for v := range neededFrom[k+1] {
			set[v] = true
		}
		for v := range litNeeds(order[k]) {
			set[v] = true
		}
		neededFrom[k] = set
	}

	m := lastIdx + 1
	phi := make([]map[string]bool, m+1)
	phi[1] = g.BoundHeadVars()
	supAtom := func(j int) pendingLit {
		if j == 1 {
			return pendingLit{atom: c.cntAtom(r.Head, idx), origin: -1, isGuard: true}
		}
		args := []ast.Term{idx[0], idx[1], idx[2]}
		for _, v := range varOrder {
			if phi[j][v] {
				args = append(args, ast.V(v))
			}
		}
		return pendingLit{atom: ast.Atom{Pred: fmt.Sprintf("supcnt_%d_%d", ruleIdx+1, j), Args: args}, origin: -1, isGuard: true}
	}

	// Supplementary counting rules for j = 2..m. Each consumes the previous
	// supplementary literal and the (j-1)-th body literal; under the
	// semijoin optimization the previous supplementary literal is dropped
	// when the arc entering that body literal covers the whole prefix.
	for j := 2; j <= m; j++ {
		prevPos := order[j-2]
		prevLit := r.Body[prevPos]
		set := make(map[string]bool)
		for v := range phi[j-1] {
			set[v] = true
		}
		for v := range ast.AtomVarSet(prevLit) {
			set[v] = true
		}
		for v := range set {
			if !neededFrom[j-1][v] {
				delete(set, v)
			}
		}
		phi[j] = set

		pending := []pendingLit{supAtom(j - 1)}
		if c.indexed[prevLit.PredKey()] {
			if c.reduced && arcCoversPrefix(g, prevPos, order[:j-2]) {
				pending = nil
			}
			pending = append(pending, pendingLit{atom: c.indexedAtom(prevLit, childIndices(idx, ruleIdx, prevPos)), origin: prevPos})
		} else {
			pending = append(pending, pendingLit{atom: prevLit, origin: prevPos})
		}
		sup = append(sup, ast.Rule{Head: supAtom(j).atom, Body: atoms(pending)})
	}

	// Counting rules: cnt_q_ind(child indices, bound args) :- supcnt_j for
	// the occurrence at order position j. An occurrence that no arc enters
	// (bound by constants only) may follow the last arc-receiving one; it
	// takes the last supplementary literal, supcnt_m.
	for k, pos := range order {
		lit := r.Body[pos]
		if !c.indexed[lit.PredKey()] {
			continue
		}
		cnt = append(cnt, ast.Rule{
			Head: c.cntAtom(lit, childIndices(idx, ruleIdx, pos)),
			Body: []ast.Atom{supAtom(min(k+1, m)).atom},
		})
	}

	// Modified rule: supcnt_m followed by the literals from the last
	// arc-receiving one onward.
	pending := []pendingLit{supAtom(m)}
	for k := m - 1; k < n; k++ {
		pos := order[k]
		lit := r.Body[pos]
		if c.indexed[lit.PredKey()] {
			if c.reduced && arcCoversPrefix(g, pos, order[:k]) {
				pending = pending[:0]
			}
			pending = append(pending, pendingLit{atom: c.indexedAtom(lit, childIndices(idx, ruleIdx, pos)), origin: pos})
		} else {
			pending = append(pending, pendingLit{atom: lit, origin: pos})
		}
	}
	modified = ast.Rule{Head: c.indexedAtom(r.Head, idx), Body: atoms(pending)}
	return cnt, sup, modified, nil
}

// arcCoversPrefix reports whether the (single) arc entering the occurrence
// at pos has a tail containing the head node and every body position in
// prefix; only then may the supplementary literal standing for that prefix
// be dropped under the semijoin optimization.
func arcCoversPrefix(g *sip.Graph, pos int, prefix []int) bool {
	arcs := g.ArcsInto(pos)
	if len(arcs) != 1 {
		return false
	}
	arc := arcs[0]
	if !arc.HasTailMember(sip.HeadNode) {
		return false
	}
	for _, p := range prefix {
		if !arc.HasTailMember(p) {
			return false
		}
	}
	return true
}

// semijoinApplicable checks the conditions of Theorem 8.3 for every
// occurrence of every indexed predicate in the adorned program. The
// optimization is applied only when all occurrences qualify (the
// "all-or-nothing" policy discussed in the package documentation).
func semijoinApplicable(ad *adorn.Program, indexed map[string]bool) bool {
	for _, ar := range ad.Rules {
		r := ar.Rule
		g := ar.Sip
		headBoundVars := g.BoundHeadVars()
		for pos, lit := range r.Body {
			if !indexed[lit.PredKey()] {
				continue
			}
			arcs := g.ArcsInto(pos)
			if len(arcs) != 1 {
				return false
			}
			arc := arcs[0]
			tailPositions := make(map[int]bool)
			tailVars := make(map[string]bool)
			for _, n := range arc.Tail {
				tailPositions[n] = true
				if n == sip.HeadNode {
					for v := range headBoundVars {
						tailVars[v] = true
					}
				} else {
					for v := range ast.AtomVarSet(r.Body[n]) {
						tailVars[v] = true
					}
				}
			}
			boundVars := make(map[string]bool)
			for _, t := range lit.BoundArgs() {
				for _, v := range ast.Vars(t, nil) {
					boundVars[v] = true
				}
			}
			// Condition (1): variables of the occurrence's bound arguments
			// appear nowhere else except in bound head arguments, other
			// bound arguments of the same occurrence, or arguments of
			// predicates in the arc tail.
			// Condition (2): variables of the arc tail appear nowhere else
			// except in bound arguments of the occurrence or of the head.
			for v := range union(boundVars, tailVars) {
				if !varConfined(r, g, pos, v, tailPositions) {
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
// block optimization drops).
func varConfined(r ast.Rule, g *sip.Graph, pos int, v string, tail map[int]bool) bool {
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
		if tail[j] {
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

// union returns the union of two variable sets.
func union(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for v := range a {
		out[v] = true
	}
	for v := range b {
		out[v] = true
	}
	return out
}
