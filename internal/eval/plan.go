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
// The pattern programs replicate the semantics of ast.Match exactly: a
// compound pattern destructures a stored compound through the symbol
// table's ID-level parts, which is also how the semijoin-optimized counting
// rules of Section 8 recover a parent's indices from a child's s(I),
// k(K, i) and h(H, j).
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
	// vComp constructs (or looks up) a compound term from its children.
	vComp
)

// valExpr evaluates to an interned ID under the current register file. It is
// used for bound probe columns (probe mode: a compound that was never
// interned means no match) and for head arguments (build mode: new
// compounds are interned).
type valExpr struct {
	kind    valKind
	id      intern.ID // vConst
	reg     int       // vReg
	functor string    // vComp
	args    []valExpr // vComp children
}

// probe evaluates the expression as a bound probe value. ok=false means the
// value cannot occur in any stored tuple (the probe has no matches).
func (e *valExpr) probe(rd *intern.Reader, regs []intern.ID) (intern.ID, bool) {
	switch e.kind {
	case vConst:
		return e.id, true
	case vReg:
		return regs[e.reg], true
	}
	args := make([]intern.ID, len(e.args))
	for i := range e.args {
		aid, ok := e.args[i].probe(rd, regs)
		if !ok {
			return 0, false
		}
		args[i] = aid
	}
	return rd.FindCompound(e.functor, args)
}

// build evaluates the expression as a head argument, interning whatever it
// constructs.
func (e *valExpr) build(rd *intern.Reader, regs []intern.ID) intern.ID {
	switch e.kind {
	case vConst:
		return e.id
	case vReg:
		return regs[e.reg]
	}
	args := make([]intern.ID, len(e.args))
	for i := range e.args {
		args[i] = e.args[i].build(rd, regs)
	}
	return rd.InternCompound(e.functor, args)
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
)

// patNode matches one (sub)pattern against a stored ID, binding registers.
type patNode struct {
	kind    patKind
	id      intern.ID // pConst
	reg     int       // pBind/pTest
	functor string    // pComp
	args    []patNode // pComp children
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
		return regs[p.reg] == target
	}
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
		probeIDs := sc.probes[i]
		for k := range st.cols {
			id, ok := st.vals[k].probe(rd, regs)
			if !ok {
				return nil
			}
			probeIDs[k] = id
		}
		ctx.stats.OpProbes++
		for _, rel := range v.include {
			if rel == nil {
				continue
			}
			ctx.stats.IndexProbes++
			cur := rel.Probe(st.cols, probeIDs)
			for pos := cur.Next(); pos >= 0; pos = cur.Next() {
				ctx.stats.IndexHits++
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
	ctx.stats.Derivations++
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
	return s.ApplyAtom(pl.rule.Head)
}
