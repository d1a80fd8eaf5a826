package rewrite

import (
	"fmt"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/sip"
)

// Walk is the one construction behind the paper's four rewritings. Its two
// axes select among them:
//
//	                 Supplementary=false   Supplementary=true
//	Indexed=false    GMS (Section 4)       GSMS (Section 5)
//	Indexed=true     GC (Section 6)        GSC (Section 7)
//
// Packages magic, supmagic and counting are constructors that set them.
type Walk struct {
	// Supplementary stores each rule's prefix joins in supplementary
	// predicates (sup_r_j, or supcnt_r_j when indexed) that the magic and
	// modified rules read instead of re-joining the prefix.
	Supplementary bool
	// Indexed adds the counting index fields I, K, H to the magic (then
	// cnt_p_ind) predicates and to every derived predicate with a bound
	// argument (then p_ind).
	Indexed bool
	// KeepAllGuards inserts the magic literal of every derived body
	// occurrence with a bound argument before the occurrence: the
	// unsimplified rules of Section 4, which Propositions 4.2 and 4.3 show
	// redundant.
	KeepAllGuards bool
	// Semijoin requests the Section 8 optimization of the indexed rules. It
	// is applied only if every indexed occurrence of the adorned program
	// satisfies Theorem 8.3; Rewriting.DroppedAnswerBound reports whether it
	// was.
	Semijoin bool
}

// Name implements Rewriter.
func (w *Walk) Name() string {
	switch {
	case w.Indexed && w.Supplementary:
		return "generalized-supplementary-counting"
	case w.Indexed:
		return "generalized-counting"
	case w.Supplementary:
		return "generalized-supplementary-magic-sets"
	}
	return "generalized-magic-sets"
}

// walker is the state of one Rewrite call.
type walker struct {
	*Walk
	ad      *adorn.Program
	reduced bool // the semijoin optimization is in force
	// names maps each auxiliary role to its predicate name; taken holds
	// every predicate name of the program and every name handed out, so no
	// two roles and no program predicate share a name.
	names map[role]string
	taken map[string]bool
	aux   map[string]string
}

// role is one auxiliary predicate family applied to its source, e.g. the
// magic predicate of anc or the second supplementary predicate of rule 2.
type role struct{ prefix, src, suffix string }

// Rewrite implements Rewriter: it walks every adorned rule along its sip
// and emits its magic (or cnt) rules, its supplementary chain and its
// modified rule.
func (w *Walk) Rewrite(ad *adorn.Program) (*Rewriting, error) {
	if err := ValidateAdorned(ad); err != nil {
		return nil, err
	}
	wk := &walker{Walk: w, ad: ad, names: make(map[role]string), taken: make(map[string]bool), aux: make(map[string]string)}
	wk.taken[ad.Query.Atom.Pred] = true
	for _, ar := range ad.Rules {
		wk.taken[ar.Rule.Head.Pred] = true
		for _, lit := range ar.Rule.Body {
			wk.taken[lit.Pred] = true
		}
	}
	if w.Indexed {
		if ad.QueryAdornment.BoundCount() == 0 {
			return nil, fmt.Errorf("rewrite: %s: the query %s has no bound argument; the counting rewritings require one", w.Name(), ad.Query)
		}
		// A rule with an all-free head has no cnt literal to supply the
		// indices of a bound body occurrence.
		for i, ar := range ad.Rules {
			if ar.Rule.Head.Adorn.BoundCount() > 0 {
				continue
			}
			for _, lit := range ar.Rule.Body {
				if wk.target(lit) {
					return nil, fmt.Errorf("rewrite: %s: rule %d (%s) has an all-free head but the bound body occurrence %s; the counting rewritings do not apply", w.Name(), i, ar.Rule, lit)
				}
			}
		}
		wk.reduced = w.Semijoin && wk.semijoinApplicable()
	}

	var sup, magic, modified []ast.Rule
	for i, ar := range ad.Rules {
		s, m, mod, err := wk.rule(i, ar)
		if err != nil {
			return nil, err
		}
		sup = append(sup, s...)
		magic = append(magic, m...)
		modified = append(modified, mod)
	}
	// The appendix lists GSMS's magic rules last and every other
	// rewriting's before the modified rules.
	rules := sup
	if w.Supplementary && !w.Indexed {
		rules = append(append(rules, modified...), magic...)
	} else {
		rules = append(append(rules, magic...), modified...)
	}

	var zeros []ast.Term
	if w.Indexed {
		zeros = []ast.Term{ast.I(0), ast.I(0), ast.I(0)}
	}
	query := ast.Atom{Pred: ad.Query.Atom.Pred, Adorn: ad.QueryAdornment, Args: ad.Query.Atom.Args}
	seed := wk.magic(query, zeros)
	answer := wk.indexed(query, zeros)
	// The seed carries the query's bound constants after its index fields;
	// the answer pattern carries them at their query positions, unless the
	// semijoin optimization dropped them.
	var seedPos, answerPos []int
	for i, arg := range query.Args {
		if !ast.IsGround(arg) {
			continue
		}
		seedPos = append(seedPos, len(zeros)+len(seedPos))
		if wk.reduced {
			answerPos = append(answerPos, -1)
		} else {
			answerPos = append(answerPos, len(zeros)+i)
		}
	}
	return &Rewriting{
		Name:               w.Name(),
		Program:            ast.NewProgram(rules...),
		Seeds:              []ast.Atom{seed},
		AnswerPred:         answer.PredKey(),
		AnswerPattern:      answer,
		DroppedAnswerBound: wk.reduced,
		SeedBoundArgs:      [][]int{seedPos},
		AnswerBoundArgs:    answerPos,
		Adorned:            ad,
		AuxPredicates:      wk.aux,
	}, nil
}

// name returns the predicate name of one auxiliary role: prefix+src+suffix,
// or that name with a numeric suffix when it is taken, so a generated
// predicate never captures a predicate of the program. A role keeps its
// name for the whole rewriting.
func (w *walker) name(prefix, src, suffix string) string {
	key := role{prefix, src, suffix}
	if n, ok := w.names[key]; ok {
		return n
	}
	n := prefix + src + suffix
	for i := 1; w.taken[n]; i++ {
		n = fmt.Sprintf("%s%s%s_%d", prefix, src, suffix, i)
	}
	w.taken[n] = true
	w.names[key] = n
	return n
}

// target reports whether a body occurrence gets a magic (or cnt) rule: it
// is derived and has a bound argument.
func (w *walker) target(lit ast.Atom) bool {
	return w.ad.OriginalDerived[lit.Pred] && lit.Adorn.BoundCount() > 0
}

// magic returns the magic literal of an adorned atom: magic_p^a, or
// cnt_p_ind^a with the index fields idx, over the atom's bound arguments.
func (w *walker) magic(a ast.Atom, idx []ast.Term) ast.Atom {
	var pred string
	if w.Indexed {
		pred = w.name("cnt_", a.Pred, "_ind")
	} else {
		pred = w.name("magic_", a.Pred, "")
	}
	args := a.BoundArgs()
	if idx != nil {
		args = append(append([]ast.Term(nil), idx...), args...)
	}
	m := ast.Atom{Pred: pred, Adorn: a.Adorn, Args: args}
	w.aux[m.PredKey()] = a.PredKey()
	return m
}

// indexed returns the p_ind^a version of an adorned atom with the index
// fields idx, without its bound arguments under the semijoin optimization.
// Without index fields the atom is returned unchanged.
func (w *walker) indexed(a ast.Atom, idx []ast.Term) ast.Atom {
	if idx == nil {
		return a
	}
	args := a.Args
	if w.reduced {
		args = a.FreeArgs()
	}
	return ast.Atom{Pred: w.name("", a.Pred, "_ind"), Adorn: a.Adorn, Args: append(append([]ast.Term(nil), idx...), args...)}
}

// ruleWalk is the walk over one adorned rule.
type ruleWalk struct {
	*walker
	r     ast.Rule
	g     *sip.Graph
	num   int          // 1-based rule number, the i of the K index
	order []int        // body positions in sip order
	idx   []ast.Term   // the head's index variables; nil unless indexed
	head  []pendingLit // the head's magic literal; nil for an all-free head
	// chained reports that the rule is built on a supplementary chain, so
	// the semijoin deletes whole prefixes (arcCoversPrefix) rather than
	// single literals (dropCovered).
	chained bool
}

// rule returns the supplementary rules, the magic (or cnt) rules and the
// modified rule of one adorned rule.
func (w *walker) rule(ruleIdx int, ar adorn.Rule) (sup, magic []ast.Rule, modified ast.Rule, err error) {
	order, err := ar.Sip.TotalOrder()
	if err != nil {
		return nil, nil, ast.Rule{}, fmt.Errorf("rewrite: %s: rule %d: %w", w.Name(), ruleIdx, err)
	}
	rw := &ruleWalk{walker: w, r: ar.Rule, g: ar.Sip, num: ruleIdx + 1, order: order}
	headBound := rw.r.Head.Adorn.BoundCount() > 0
	if w.Indexed && headBound {
		rw.idx = indexVars(rw.r)
	}
	if headBound {
		rw.head = []pendingLit{{atom: w.magic(rw.r.Head, rw.idx), origin: sip.HeadNode}}
	}
	// m is the 1-based sip-order position of the last occurrence an arc
	// enters on a supplementary chain, which needs a bound head to start
	// from and an arc to end at; a rule without a chain has m = 1.
	m := 1
	if w.Supplementary && headBound {
		for k, pos := range order {
			if len(rw.g.ArcsInto(pos)) > 0 {
				m, rw.chained = k+1, true
			}
		}
	}
	sup, context := rw.chain(m)
	for k, pos := range order {
		lit := rw.r.Body[pos]
		switch {
		case !w.target(lit):
		case rw.chained:
			// The occurrence at sip-order position j reads sup_r_j. One no
			// arc enters (bound by constants only) may follow the last
			// arc-receiving occurrence; it reads the last chain member.
			magic = append(magic, ast.Rule{Head: rw.magic(lit, rw.child(pos)), Body: atoms(context(min(k+1, m)))})
		default:
			rules, err := rw.magicRules(pos)
			if err != nil {
				return nil, nil, ast.Rule{}, err
			}
			magic = append(magic, rules...)
		}
	}
	// The modified rule starts from context m and keeps the literals from
	// the m-th onward.
	pending := context(m)
	for k := m - 1; k < len(order); k++ {
		pending = rw.push(pending, k)
	}
	return sup, magic, ast.Rule{Head: w.indexed(rw.r.Head, rw.idx), Body: atoms(pending)}, nil
}

// chain builds the supplementary chain up to position m (Sections 5 and 7)
// and returns its rules and the rule's context at each position j = 1..m.
// Context 1 is the head's magic literal, which is the paper's standard
// elimination of sup_r_1; context j > 1 is sup_r_j, the join of context j-1
// with the (j-1)-th literal in sip order, keeping only the variables the
// rest of the rule needs.
func (rw *ruleWalk) chain(m int) (sup []ast.Rule, context func(j int) []pendingLit) {
	if m == 1 {
		return nil, func(int) []pendingLit { return rw.guard() }
	}
	r, n := rw.r, len(rw.order)
	// Variables in order of first appearance, head first, then the body in
	// sip order: the argument order of the supplementary predicates.
	varOrder := ast.AtomVars(r.Head, nil)
	for _, pos := range rw.order {
		varOrder = ast.AtomVars(r.Body[pos], varOrder)
	}
	// neededFrom[k] holds the variables of the head and of the literals at
	// sip-order positions >= k. Under the semijoin optimization the head
	// keeps only its free arguments, while the bound arguments of later
	// occurrences stay needed: their cnt rules build heads from them.
	neededFrom := make([]map[string]bool, n+1)
	neededFrom[n] = ast.AtomVarSet(r.Head)
	if rw.reduced {
		neededFrom[n] = ast.AtomVarSet(ast.Atom{Args: r.Head.FreeArgs()})
	}
	for k := n - 1; k >= 0; k-- {
		neededFrom[k] = union(neededFrom[k+1], ast.AtomVarSet(r.Body[rw.order[k]]))
	}

	family := "sup_"
	if rw.Indexed {
		family = "supcnt_"
	}
	members := make([]ast.Atom, m+1)
	context = func(j int) []pendingLit {
		if j == 1 {
			return rw.guard()
		}
		return []pendingLit{{atom: members[j], origin: sip.HeadNode}}
	}
	phi := rw.g.BoundHeadVars()
	for j := 2; j <= m; j++ {
		phi = union(phi, ast.AtomVarSet(r.Body[rw.order[j-2]]))
		args := append([]ast.Term(nil), rw.idx...)
		for _, v := range varOrder {
			if !neededFrom[j-1][v] {
				delete(phi, v)
			} else if phi[v] {
				args = append(args, ast.V(v))
			}
		}
		members[j] = ast.Atom{Pred: rw.name(family, fmt.Sprintf("%d_%d", rw.num, j), ""), Args: args}
		rw.aux[members[j].Pred] = ""
		sup = append(sup, ast.Rule{Head: members[j], Body: atoms(rw.push(context(j-1), j-2))})
	}
	return sup, context
}

// magicRules returns the magic (or cnt) rules of the occurrence at pos off
// a supplementary chain: one from the arc entering it, or one label rule
// per arc and a rule joining the labels when several do (Section 4). An
// occurrence no arc enters is bound by constants only and is relevant
// whenever its rule is.
func (rw *ruleWalk) magicRules(pos int) ([]ast.Rule, error) {
	lit := rw.r.Body[pos]
	head := rw.magic(lit, rw.child(pos))
	arcs := rw.g.ArcsInto(pos)
	if len(arcs) == 0 {
		return []ast.Rule{{Head: head, Body: atoms(rw.guard())}}, nil
	}
	var out []ast.Rule
	var labels []ast.Atom
	for a, arc := range arcs {
		body := rw.arcBody(arc)
		if len(body) == 0 {
			return nil, fmt.Errorf("rewrite: %s: arc %d into %s in rule %d produced an empty rule body", rw.Name(), a, lit, rw.num-1)
		}
		if len(arcs) == 1 {
			return []ast.Rule{{Head: head, Body: body}}, nil
		}
		args := append([]ast.Term(nil), rw.idx...)
		for _, v := range arc.LabelVars() {
			args = append(args, ast.V(v))
		}
		label := ast.Atom{Pred: rw.name("label_", fmt.Sprintf("%s_%d_%d_%d", lit.Pred, rw.num-1, pos, a), ""), Args: args}
		rw.aux[label.PredKey()] = ""
		out = append(out, ast.Rule{Head: label, Body: body})
		labels = append(labels, label)
	}
	return append(out, ast.Rule{Head: head, Body: labels}), nil
}

// arcBody is the body of the rule passing an arc's bindings: the head's
// magic literal if p_h is in the tail, then the tail's literals in sip
// order.
func (rw *ruleWalk) arcBody(arc sip.Arc) []ast.Atom {
	var pending []pendingLit
	if arc.HasTailMember(sip.HeadNode) {
		pending = rw.guard()
	}
	for k, pos := range rw.order {
		if arc.HasTailMember(pos) {
			pending = rw.push(pending, k)
		}
	}
	return atoms(pending)
}

// guard returns the head's magic literal, the context every rule of the
// walk starts from, or nothing when the head has no bound argument.
func (rw *ruleWalk) guard() []pendingLit {
	return append([]pendingLit(nil), rw.head...)
}

// child returns the index fields of the occurrence at pos: s(I), k(K, i),
// h(H, j) for rule number i and 1-based body position j, or nil without
// index fields.
func (rw *ruleWalk) child(pos int) []ast.Term {
	if rw.idx == nil {
		return nil
	}
	return []ast.Term{
		ast.C("s", rw.idx[0]),
		ast.C("k", rw.idx[1], ast.I(int64(rw.num))),
		ast.C("h", rw.idx[2], ast.I(int64(pos+1))),
	}
}

// push appends the rewritten literal at sip-order index k to pending,
// preceded by its magic literal under KeepAllGuards. Under the semijoin
// optimization it first deletes what the arc entering the literal covers
// (Lemma 8.1).
func (rw *ruleWalk) push(pending []pendingLit, k int) []pendingLit {
	pos := rw.order[k]
	lit := rw.r.Body[pos]
	if !rw.target(lit) {
		return append(pending, pendingLit{atom: lit, origin: pos})
	}
	if rw.reduced && rw.chained && arcCoversPrefix(rw.g, pos, rw.order[:k]) {
		pending = nil
	} else if rw.reduced && !rw.chained {
		pending = dropCovered(pending, rw.g, pos)
	}
	child := rw.child(pos)
	if rw.KeepAllGuards {
		pending = append(pending, pendingLit{atom: rw.magic(lit, child), origin: pos})
	}
	return append(pending, pendingLit{atom: rw.indexed(lit, child), origin: pos})
}

// indexVars picks the names of a rule's index variables, avoiding the
// rule's own variables.
func indexVars(r ast.Rule) []ast.Term {
	used := make(map[string]bool)
	for _, v := range r.Vars() {
		used[v] = true
	}
	out := make([]ast.Term, 0, 3)
	for _, base := range []string{"I", "K", "H"} {
		name := base
		for used[name] {
			name += "x"
		}
		used[name] = true
		out = append(out, ast.V(name))
	}
	return out
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
