// Join-pipeline intermediate representation and executor.
//
// A compiled rule is a flat pipeline of body steps executed entirely over
// interned IDs: rule variables live in a fixed-size register file of
// intern.ID slots, each body literal becomes one step (an indexed probe with
// a bound-column mask, or a scan), and the remaining free positions of a
// step are matched by small pattern programs that bind or test registers.
// No substitution maps are allocated and no terms are materialized while the
// pipeline runs; terms are only read back out of the store by the caller.
//
// A step reads a view (relView): the union of some relations minus excluded
// rows. The evaluator points each view at the one main or delta relation the
// step reads; incremental maintenance (maintain.go) points them at the OLD,
// NEW and Δ states of a committed batch, so both run the same executor.
//
// The pattern programs replicate the semantics of ast.Match exactly,
// including the affine-arithmetic case (a pattern such as I+1 or (K*2)+2
// matches an integer by solving for the single unbound variable, which is
// what makes the semijoin-optimized counting rules of Section 8 evaluable
// bottom-up) and the structural fallback when the stored term is itself an
// uninterpreted compound.
package eval

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/intern"
)

// valKind discriminates the value-expression nodes.
type valKind uint8

const (
	// vConst is a ground term pre-interned at compile time.
	vConst valKind = iota
	// vReg copies a register.
	vReg
	// vArith evaluates an interpreted "+" or "*" over its two children.
	vArith
	// vComp constructs (or looks up) a compound term from its children.
	vComp
)

// valExpr evaluates to an interned ID under the current register file. It is
// used for bound probe columns (probe mode: a missing value means no match,
// unresolved arithmetic is an error, mirroring the term-space oracle) and
// for head arguments (build mode: new integers and compounds are interned,
// unresolved arithmetic stays an uninterpreted compound, mirroring
// ast.EvalArith).
type valExpr struct {
	kind valKind
	id   intern.ID // vConst
	// arithGround marks a vConst whose term still contains an interpreted
	// arithmetic functor after constant folding (e.g. a+1): probing with it
	// is the "uninterpreted arithmetic after grounding" error.
	arithGround bool
	reg         int       // vReg
	mul         bool      // vArith: true for "*", false for "+"
	functor     string    // vComp
	args        []valExpr // vArith (always 2) and vComp children
}

// idNumeric resolves an interned ID to an integer value, folding stored
// uninterpreted constant arithmetic ((1+2) stored verbatim in the EDB) the
// way ast.EvalArith would after substitution.
func idNumeric(rd *intern.Reader, id intern.ID) (int64, bool) {
	if v, ok := rd.IntValue(id); ok {
		return v, true
	}
	functor, args, ok := rd.CompoundParts(id)
	if !ok || len(args) != 2 || (functor != ast.FunctorAdd && functor != ast.FunctorMul) {
		return 0, false
	}
	l, ok := idNumeric(rd, args[0])
	if !ok {
		return 0, false
	}
	r, ok := idNumeric(rd, args[1])
	if !ok {
		return 0, false
	}
	if functor == ast.FunctorMul {
		return l * r, true
	}
	return l + r, true
}

// idNormalize rebuilds an interned term with every fully numeric arithmetic
// subterm folded to its integer value — the ID-level image of applying
// ast.EvalArith to the materialized term. The term-space oracle folds
// every substituted argument this way before probing or storing it, so
// register values must be normalized the same way whenever the table holds
// foldable terms (Table.HasArith). In find mode (interning=false) a
// normalized form that was never interned reports ok=false: it cannot occur
// in any stored tuple.
func idNormalize(rd *intern.Reader, id intern.ID, interning bool) (intern.ID, bool) {
	functor, args, isComp := rd.CompoundParts(id)
	if !isComp {
		return id, true
	}
	nargs := make([]intern.ID, len(args))
	changed := false
	for i, a := range args {
		na, ok := idNormalize(rd, a, interning)
		if !ok {
			return 0, false
		}
		nargs[i] = na
		if na != a {
			changed = true
		}
	}
	if len(nargs) == 2 && (functor == ast.FunctorAdd || functor == ast.FunctorMul) {
		if l, lok := rd.IntValue(nargs[0]); lok {
			if r, rok := rd.IntValue(nargs[1]); rok {
				v := l + r
				if functor == ast.FunctorMul {
					v = l * r
				}
				if interning {
					return rd.InternInt(v), true
				}
				return rd.FindInt(v)
			}
		}
	}
	if !changed {
		return id, true
	}
	if interning {
		return rd.InternCompound(functor, nargs), true
	}
	return rd.FindCompound(functor, nargs)
}

// idGroundMatch replicates ast.Match for a ground pattern: the register
// value (a stored term playing the pattern role) against a stored target.
// Beyond plain identity this covers the arithmetic cases — a foldable value
// such as (1+2) matches the integer 3 (affine matching with no unbound
// variable) and structural matching recurses into compound pairs.
func idGroundMatch(rd *intern.Reader, val, target intern.ID) bool {
	if val == target {
		return true
	}
	functor, args, isComp := rd.CompoundParts(val)
	if !isComp {
		return false
	}
	if len(args) == 2 && (functor == ast.FunctorAdd || functor == ast.FunctorMul) {
		if tv, isInt := rd.IntValue(target); isInt {
			v, ok := idNumeric(rd, val)
			return ok && v == tv
		}
	}
	tf, targs, tok := rd.CompoundParts(target)
	if !tok || tf != functor || len(targs) != len(args) {
		return false
	}
	for i := range args {
		if !idGroundMatch(rd, args[i], targs[i]) {
			return false
		}
	}
	return true
}

// numeric evaluates the expression to an integer, reporting false when any
// leaf is not (and does not fold to) an integer constant.
func (e *valExpr) numeric(rd *intern.Reader, regs []intern.ID) (int64, bool) {
	switch e.kind {
	case vConst:
		return idNumeric(rd, e.id)
	case vReg:
		return idNumeric(rd, regs[e.reg])
	case vArith:
		l, ok := e.args[0].numeric(rd, regs)
		if !ok {
			return 0, false
		}
		r, ok := e.args[1].numeric(rd, regs)
		if !ok {
			return 0, false
		}
		if e.mul {
			return l * r, true
		}
		return l + r, true
	default:
		return 0, false
	}
}

// probe evaluates the expression as a bound probe value. ok=false means the
// value cannot occur in any stored tuple (the probe has no matches); arithErr
// reports a ground argument that still contains uninterpreted arithmetic.
func (e *valExpr) probe(rd *intern.Reader, regs []intern.ID) (id intern.ID, ok bool, arithErr bool) {
	switch e.kind {
	case vConst:
		if e.arithGround {
			return 0, false, true
		}
		return e.id, true, false
	case vReg:
		id := regs[e.reg]
		if rd.HasArith() {
			nid, found := idNormalize(rd, id, false)
			return nid, found, false
		}
		return id, true, false
	case vArith:
		v, numOK := e.numeric(rd, regs)
		if !numOK {
			return 0, false, true
		}
		id, found := rd.FindInt(v)
		return id, found, false
	case vComp:
		args := make([]intern.ID, len(e.args))
		for i := range e.args {
			aid, aok, aerr := e.args[i].probe(rd, regs)
			if aerr || !aok {
				return 0, aok, aerr
			}
			args[i] = aid
		}
		id, found := rd.FindCompound(e.functor, args)
		return id, found, false
	}
	return 0, false, false
}

// build evaluates the expression as a head argument, interning whatever it
// constructs. Arithmetic folds to an integer when both operands are numeric
// and otherwise stays an uninterpreted compound, exactly like ast.EvalArith
// applied to the substituted head.
func (e *valExpr) build(rd *intern.Reader, regs []intern.ID) intern.ID {
	switch e.kind {
	case vConst:
		return e.id
	case vReg:
		id := regs[e.reg]
		if rd.HasArith() {
			id, _ = idNormalize(rd, id, true)
		}
		return id
	case vArith:
		if v, ok := e.numeric(rd, regs); ok {
			return rd.InternInt(v)
		}
		functor := ast.FunctorAdd
		if e.mul {
			functor = ast.FunctorMul
		}
		return rd.InternCompound(functor, []intern.ID{e.args[0].build(rd, regs), e.args[1].build(rd, regs)})
	case vComp:
		args := make([]intern.ID, len(e.args))
		for i := range e.args {
			args[i] = e.args[i].build(rd, regs)
		}
		return rd.InternCompound(e.functor, args)
	}
	panic("eval: invalid valExpr kind")
}

// affKind discriminates the affine-program nodes.
type affKind uint8

const (
	afConst affKind = iota // integer literal
	afReg                  // statically bound variable: contributes its value
	afVar                  // the (statically unbound) variable being solved for
	afFail                 // a leaf that can never be part of an affine form
	afAdd
	afMul
)

// affNode is the compiled form of ast.affineForm: it evaluates a pattern to
// a·x + b over at most one unbound variable x, with the bound-variable
// contributions read from registers at run time.
type affNode struct {
	kind affKind
	c    int64
	reg  int
	l, r *affNode
}

// eval computes the affine form. varReg is the register of the unbound
// variable (-1 when the pattern folds to a constant); ok=false means the
// pattern is not affine in at most one variable under the current registers.
func (n *affNode) eval(rd *intern.Reader, regs []intern.ID) (varReg int, a, b int64, ok bool) {
	switch n.kind {
	case afConst:
		return -1, 0, n.c, true
	case afReg:
		v, numOK := idNumeric(rd, regs[n.reg])
		if !numOK {
			return 0, 0, 0, false
		}
		return -1, 0, v, true
	case afVar:
		return n.reg, 1, 0, true
	case afFail:
		return 0, 0, 0, false
	}
	lv, la, lb, lok := n.l.eval(rd, regs)
	rv, ra, rb, rok := n.r.eval(rd, regs)
	if !lok || !rok {
		return 0, 0, 0, false
	}
	if n.kind == afAdd {
		switch {
		case lv < 0 && rv < 0:
			return -1, 0, lb + rb, true
		case lv < 0:
			return rv, ra, lb + rb, true
		case rv < 0:
			return lv, la, lb + rb, true
		case lv == rv:
			return lv, la + ra, lb + rb, true
		default:
			return 0, 0, 0, false
		}
	}
	// Multiplication: one side must be constant.
	switch {
	case lv < 0 && rv < 0:
		return -1, 0, lb * rb, true
	case lv < 0:
		return rv, ra * lb, rb * lb, true
	case rv < 0:
		return lv, la * rb, lb * rb, true
	default:
		return 0, 0, 0, false
	}
}

// patKind discriminates the pattern nodes matched against stored IDs.
type patKind uint8

const (
	// pConst tests equality with a pre-interned ground term.
	pConst patKind = iota
	// pBind stores the target ID into a register (first occurrence of a
	// variable).
	pBind
	// pTest compares the target ID with a register (repeated occurrence).
	pTest
	// pComp destructures a compound target.
	pComp
	// pArith matches an interpreted-arithmetic pattern: affine solving
	// against an integer target, structural matching against a compound.
	pArith
)

// patNode matches one (sub)pattern against a stored ID, binding registers.
type patNode struct {
	kind    patKind
	id      intern.ID // pConst
	reg     int       // pBind/pTest
	functor string    // pComp, pArith (structural branch)
	args    []patNode // structural children
	aff     *affNode  // pArith affine program
	// preFolded marks a pArith whose variables were all bound before the
	// literal was reached: the term-space oracle folds such a subpattern
	// to an integer when it instantiates the literal (s.ApplyAtom followed
	// by EvalArith), so a compound target can never match it structurally.
	// Variables bound within the literal (by an earlier argument or
	// subterm) are not substituted at instantiation time, so those patterns
	// keep their structural branch.
	preFolded bool
}

// match replicates ast.Match over IDs. Registers bound by a failed match are
// left as they are: every later read of a register is dominated by a bind on
// the current candidate path, so stale values can never be observed.
func (p *patNode) match(rd *intern.Reader, regs []intern.ID, target intern.ID) bool {
	switch p.kind {
	case pConst:
		return target == p.id
	case pBind:
		regs[p.reg] = target
		return true
	case pTest:
		if regs[p.reg] == target {
			return true
		}
		if rd.HasArith() {
			// The bound value may fold to the target (e.g. a register
			// holding (1+2) against a stored 3), exactly as ast.MatchAtom's
			// ground match would.
			return idGroundMatch(rd, regs[p.reg], target)
		}
		return false
	case pComp:
		return p.matchStruct(rd, regs, target)
	case pArith:
		varReg, a, b, ok := p.aff.eval(rd, regs)
		if v, isInt := rd.IntValue(target); isInt {
			if !ok {
				return false
			}
			if varReg < 0 {
				return b == v
			}
			diff := v - b
			if a == 0 || diff%a != 0 {
				return false
			}
			x := diff / a
			if x < 0 {
				return false
			}
			regs[varReg] = rd.InternInt(x)
			return true
		}
		if p.preFolded && ok && varReg < 0 {
			// Instantiation folded the pattern to an integer before
			// matching; a non-integer target cannot match it.
			return false
		}
		return p.matchStruct(rd, regs, target)
	}
	return false
}

func (p *patNode) matchStruct(rd *intern.Reader, regs []intern.ID, target intern.ID) bool {
	functor, args, ok := rd.CompoundParts(target)
	if !ok || functor != p.functor || len(args) != len(p.args) {
		return false
	}
	for i := range p.args {
		if !p.args[i].match(rd, regs, args[i]) {
			return false
		}
	}
	return true
}

// exclusion skips rows present in `in` (unless also present in `unless`,
// which DRed uses for "still-dead deletion candidates"). Nil relations make
// the exclusion inert.
type exclusion struct {
	in     *database.Relation
	unless *database.Relation
}

// relView is the source of one pipeline step: the union of the include
// relations (pairwise disjoint; nil entries are empty) minus the excluded
// rows. Filtering by membership lets maintenance present a relation's state
// before or after a batch without copying it.
type relView struct {
	include []*database.Relation
	exclude []exclusion
}

func (v *relView) excluded(row []intern.ID) bool {
	for _, ex := range v.exclude {
		if ex.in != nil && ex.in.ContainsRow(row) {
			if ex.unless == nil || !ex.unless.ContainsRow(row) {
				return true
			}
		}
	}
	return false
}

// empty reports whether the view has no relation at all to read.
func (v *relView) empty() bool {
	for _, rel := range v.include {
		if rel != nil {
			return false
		}
	}
	return true
}

// step is one literal lowered into the pipeline: a probe (or scan) of one
// view plus the pattern ops for its unbound columns.
type step struct {
	// lit is the original literal, kept for error messages.
	lit ast.Atom
	key string
	// pos is the literal's body position; the head guard of a rescue variant
	// (compileRule) has position len(body). Maintenance assigns views by it.
	pos int
	// fromDelta routes the step to the delta store instead of the main one;
	// the semi-naive scheduler picks the variant compiled for the occurrence
	// it is driving.
	fromDelta bool
	// cols are the bound columns (sorted ascending), probed through the
	// relation's hash index on that column mask; vals produce the probe IDs.
	cols []int
	vals []valExpr
	// free are the remaining columns, matched per candidate row by ops.
	free []int
	ops  []patNode
}

// matchRow runs the free-column pattern ops against a candidate row.
func (st *step) matchRow(rd *intern.Reader, regs []intern.ID, row []intern.ID) bool {
	for k, col := range st.free {
		if !st.ops[k].match(rd, regs, row[col]) {
			return false
		}
	}
	return true
}

// pipeline is one fully compiled rule variant: the ordered body steps and
// the head constructor. A pipeline is immutable once compiled — all
// run-time state lives in a pipeScratch — so one compiled instance is
// shared by every (possibly concurrent) evaluation of its Prepared program.
type pipeline struct {
	ruleIdx int
	rule    ast.Rule
	steps   []step

	headKey   string
	headArity int
	head      []valExpr
	// headOK is false when the head contains a variable not bound by the
	// body: firing the rule is ErrNonGroundFact.
	headOK bool
	// boundRegs maps statically bound variable names to registers, used only
	// to materialize the offending head for the non-ground error message.
	boundRegs map[string]int

	nregs int
}

// pipeScratch is the per-evaluation mutable state of one pipeline: the
// register file, the source view and probe buffer of each step, and the
// head-row buffer. rels backs the one-relation views of the evaluator.
type pipeScratch struct {
	regs    []intern.ID
	headRow []intern.ID
	probes  [][]intern.ID
	views   []relView
	rels    []*database.Relation
}

// newScratch allocates scratch buffers sized for the pipeline.
func (pl *pipeline) newScratch() *pipeScratch {
	sc := &pipeScratch{
		regs:    make([]intern.ID, pl.nregs),
		headRow: make([]intern.ID, pl.headArity),
		probes:  make([][]intern.ID, len(pl.steps)),
		views:   make([]relView, len(pl.steps)),
		rels:    make([]*database.Relation, len(pl.steps)),
	}
	for i := range pl.steps {
		sc.probes[i] = make([]intern.ID, len(pl.steps[i].cols))
	}
	return sc
}

// fromStores points every step at one relation of main, or of delta for the
// step compiled as the delta occurrence: the sources of every evaluator pass.
// The relations are resolved once per run, since the set of relations cannot
// change while a pipeline runs (derived relations are pre-created and delta
// rounds write to the next round's store).
func (sc *pipeScratch) fromStores(pl *pipeline, main, delta *database.Store) *pipeScratch {
	for i := range pl.steps {
		st := &pl.steps[i]
		if st.fromDelta {
			sc.rels[i] = delta.Existing(st.key)
		} else {
			sc.rels[i] = main.Existing(st.key)
		}
		sc.views[i] = relView{include: sc.rels[i : i+1]}
	}
	return sc
}

// run executes the pipeline over the step views in sc, invoking emit with
// the head ID row for every successful body instantiation. The emitted slice
// is reused across firings; emit must copy it if it retains it (Relation.
// InsertRow does).
func (pl *pipeline) run(ctx *evalContext, sc *pipeScratch, emit func(row []intern.ID) error) error {
	rd := &ctx.reader
	regs := sc.regs
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(pl.steps) {
			return pl.fire(ctx, sc, rd, emit)
		}
		st := &pl.steps[i]
		v := &sc.views[i]
		if v.empty() {
			return nil
		}
		if len(st.cols) == 0 {
			ctx.stats.OpScans++
			for _, rel := range v.include {
				if rel == nil {
					continue
				}
				n := rel.Len() // snapshot: rows inserted during the scan belong to the next pass
				for pos := 0; pos < n; pos++ {
					ctx.stats.JoinProbes++
					ctx.stats.ScanRows++
					row := rel.Row(pos)
					if len(v.exclude) > 0 && v.excluded(row) {
						continue
					}
					if st.matchRow(rd, regs, row) {
						if err := rec(i + 1); err != nil {
							return err
						}
					}
				}
			}
			return nil
		}
		// Evaluate every probe column before acting on a miss: the
		// term-space oracle checks all ground arguments for the
		// uninterpreted-arithmetic error before it looks anything up, so an
		// unfindable value in an earlier column must not mask the error of a
		// later one.
		miss := false
		probeIDs := sc.probes[i]
		for k := range st.cols {
			id, ok, arithErr := st.vals[k].probe(rd, regs)
			if arithErr {
				return fmt.Errorf("eval: argument %d of %s contains uninterpreted arithmetic after grounding", st.cols[k], st.lit)
			}
			if !ok {
				miss = true
				continue
			}
			probeIDs[k] = id
		}
		if miss {
			return nil
		}
		ctx.stats.OpProbes++
		for _, rel := range v.include {
			if rel == nil {
				continue
			}
			positions := rel.LookupIDs(st.cols, probeIDs)
			ctx.stats.IndexProbes++
			ctx.stats.IndexHits += int64(len(positions))
			for _, pos := range positions {
				ctx.stats.JoinProbes++
				row := rel.Row(pos)
				if len(v.exclude) > 0 && v.excluded(row) {
					continue
				}
				if st.matchRow(rd, regs, row) {
					if err := rec(i + 1); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	return rec(0)
}

// fire records the successful body instantiation, builds the head row and
// emits it.
func (pl *pipeline) fire(ctx *evalContext, sc *pipeScratch, rd *intern.Reader, emit func(row []intern.ID) error) error {
	if !pl.headOK {
		return fmt.Errorf("%w: rule %d (%s) produced %s", ErrNonGroundFact, pl.ruleIdx, pl.rule, pl.materializeHead(sc, rd))
	}
	ctx.stats.addFiring(pl.ruleIdx)
	if ctx.opts.MaxDerivations > 0 && ctx.stats.Derivations > ctx.opts.MaxDerivations {
		return fmt.Errorf("%w: more than %d derivations", ErrLimitExceeded, ctx.opts.MaxDerivations)
	}
	if err := ctx.derivationTick(); err != nil {
		return err
	}
	for i := range pl.head {
		sc.headRow[i] = pl.head[i].build(rd, sc.regs)
	}
	return emit(sc.headRow)
}

// materializeHead rebuilds the instantiated head atom for the non-ground
// error message, substituting the bound registers back into the head terms.
func (pl *pipeline) materializeHead(sc *pipeScratch, rd *intern.Reader) ast.Atom {
	s := ast.NewSubst()
	for name, reg := range pl.boundRegs {
		s[name] = rd.Term(sc.regs[reg])
	}
	head := s.ApplyAtom(pl.rule.Head)
	for i, arg := range head.Args {
		head.Args[i] = ast.EvalArith(arg)
	}
	return head
}
