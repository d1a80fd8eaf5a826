// Compilation of rules into ID-space join pipelines.
//
// Each rule is compiled, on first use of each variant, into the flat pipeline
// of plan.go. The compiler
//
//   - assigns every rule variable a slot in the register file,
//   - orders the body literals: one literal leads, the rest follow by the
//     greedy bound-variables-first heuristic (see "Join order" below),
//   - splits each literal's arguments into bound probe columns (value
//     expressions evaluated against the relation's hash index) and free
//     columns (pattern programs that bind or test registers), and
//   - lowers the head into build-mode value expressions.
//
// Join order. A variant is named by its leading literal (variantKey). In a
// semi-naive delta round the leader is the delta occurrence, read from the
// delta store, so the join is driven from the new facts. In a full-store
// pass — the first pass of every component — the leader is chosen when the
// rule fires, from the sizes its body relations have at that moment
// (evalContext.fullStoreLead): the smallest one, or a literal with constant
// arguments if the rule has one. A
// rule whose body mentions an empty relation is not run at all. After the
// leader, sip.GreedyOrder repeatedly takes the literal with the most
// arguments covered by the variables bound so far, ties going to the textual
// order. The tie-break matters as much as the leader: a magic-rewritten rule
// such as anc(X,Y) :- m_anc(X), par(X,Y) is written in the order its sip
// passes bindings, guard first, and with nothing bound every literal scores
// 0 — an order that preferred base literals there (as the GreedyBoundFirst
// sip strategy does, for a different reason; see sip.GreedyOrder) would scan
// the whole of par and probe the few m_anc rows once per par row, touching
// every fact of the database to compute the handful the rewriting made
// relevant. Led by the smaller relation and continued in sip order, the same
// pass costs on the order of the relevant facts (Section 9 of the paper
// counts exactly these), whatever the size of the rest of the EDB. A rule has
// at most one variant per body literal and store side, each compiled once
// and shared.
//
// Sources. A step names a body position, not a relation: the caller points
// it at a view (plan.go) before the pipeline runs. The evaluator's view is
// the main store's relation, or the delta store's for the delta occurrence.
// Incremental maintenance (maintain.go) runs the same delta-led variants with
// the lead reading the batch's Δ and every other position the OLD or NEW
// state its exactly-once argument assigns. It adds one variant of its own,
// for DRed's rescue check: lead len(body) puts a guard step first that
// matches the rule head against the deletion candidates, and sip.GreedyOrder
// then orders the body with the head's variables bound.
//
// Boundness is fully static: a variable is bound exactly when an earlier
// literal in the chosen order (or an earlier argument of the same literal)
// contains it, which coincides with the dynamic substitution of the reference
// oracle in termspace_test.go. Every functor is uninterpreted, so a literal
// means the same whatever is bound when it is reached: the join order
// changes what a rule costs, never what it derives.
package eval

import (
	"repro/internal/ast"
	"repro/internal/intern"
	"repro/internal/sip"
)

// compiler carries the per-rule compilation state.
type compiler struct {
	tab   *intern.Table
	regs  map[string]int
	bound map[string]bool
	nregs int
}

// regOf returns the register of a variable, allocating one on first sight.
func (c *compiler) regOf(name string) int {
	if r, ok := c.regs[name]; ok {
		return r
	}
	r := c.nregs
	c.regs[name] = r
	c.nregs++
	return r
}

// compileRule lowers one rule variant into a pipeline: the join starts at
// the literal at v.lead, which reads from the delta store when v.fromDelta is
// set. A lead of len(body) names the rescue variant of DRed maintenance: a
// guard step matching the rule head against candidate rows leads, and the
// body follows with the head's variables bound. The produced pipeline is
// immutable (all run-time scratch lives in a per-evaluation pipeScratch), so
// it can be shared by concurrent evaluations of the same Prepared program.
func compileRule(pp *Prepared, v variantKey) *pipeline {
	ruleIdx := v.rule
	r := pp.program.Rules[ruleIdx]
	c := &compiler{tab: pp.tab, regs: make(map[string]int), bound: make(map[string]bool)}
	pl := &pipeline{ruleIdx: ruleIdx, rule: r, headOK: true}
	if v.lead == len(r.Body) {
		pl.steps = append(pl.steps, c.compileStep(r.Head, v.lead, false))
	}

	for _, pos := range sip.GreedyOrder(r.Body, c.bound, v.lead) {
		pl.steps = append(pl.steps, c.compileStep(r.Body[pos], pos, v.fromDelta && pos == v.lead))
	}

	// Head: every argument must be covered by the body for the rule to be
	// safe; otherwise firing reports ErrNonGroundFact.
	pl.headKey = r.Head.PredKey()
	pl.headArity = len(r.Head.Args)
	for _, arg := range r.Head.Args {
		if !c.allVarsBound(arg) {
			pl.headOK = false
			break
		}
	}
	if pl.headOK {
		for _, arg := range r.Head.Args {
			pl.head = append(pl.head, c.compileVal(arg))
		}
	} else {
		pl.boundRegs = make(map[string]int)
		for name := range c.bound {
			pl.boundRegs[name] = c.regs[name]
		}
	}

	pl.nregs = c.nregs
	return pl
}

// compileStep lowers one literal, at body position pos, into a step.
func (c *compiler) compileStep(lit ast.Atom, pos int, fromDelta bool) step {
	st := step{key: lit.PredKey(), pos: pos, fromDelta: fromDelta}
	// First pass: decide bound vs free per argument against the pre-literal
	// bound set, mirroring the term-space oracle which derives the probe
	// columns from the substitution before the literal binds anything.
	isBound := make([]bool, len(lit.Args))
	for i, arg := range lit.Args {
		isBound[i] = c.allVarsBound(arg)
	}
	for i, arg := range lit.Args {
		if isBound[i] {
			st.cols = append(st.cols, i)
			st.vals = append(st.vals, c.compileVal(arg))
		} else {
			st.free = append(st.free, i)
			st.ops = append(st.ops, c.compilePat(arg))
		}
	}
	return st
}

// allVarsBound reports whether every variable of the term is statically
// bound (a variable-free term counts as bound iff it is ground).
func (c *compiler) allVarsBound(t ast.Term) bool {
	switch x := t.(type) {
	case ast.Var:
		return c.bound[x.Name]
	case ast.Compound:
		for _, a := range x.Args {
			if !c.allVarsBound(a) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// compileVal lowers a term whose variables are all bound into a value
// expression.
func (c *compiler) compileVal(t ast.Term) valExpr {
	if ast.IsGround(t) {
		return valExpr{kind: vConst, id: c.tab.Intern(t)}
	}
	switch x := t.(type) {
	case ast.Var:
		return valExpr{kind: vReg, reg: c.regOf(x.Name)}
	case ast.Compound:
		args := make([]valExpr, len(x.Args))
		for i, a := range x.Args {
			args[i] = c.compileVal(a)
		}
		return valExpr{kind: vComp, functor: x.Functor, args: args}
	}
	panic("eval: compileVal on unbound variable")
}

// compilePat lowers a term containing at least one unbound variable into a
// pattern program, marking its variables bound as they first occur (the
// argument and subterm order is the order ast.MatchAtom binds them in).
func (c *compiler) compilePat(t ast.Term) patNode {
	if ast.IsGround(t) {
		return patNode{kind: pConst, id: c.tab.Intern(t)}
	}
	switch x := t.(type) {
	case ast.Var:
		reg := c.regOf(x.Name)
		if c.bound[x.Name] {
			return patNode{kind: pTest, reg: reg}
		}
		c.bound[x.Name] = true
		return patNode{kind: pBind, reg: reg}
	case ast.Compound:
		args := make([]patNode, len(x.Args))
		for i, a := range x.Args {
			args[i] = c.compilePat(a)
		}
		return patNode{kind: pComp, functor: x.Functor, args: args}
	}
	panic("eval: compilePat on non-term")
}
