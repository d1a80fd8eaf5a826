package eval

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/database"
	"repro/internal/depgraph"
	"repro/internal/intern"
)

// This file implements incremental maintenance of a materialized program:
// given the exact delta of one committed batch (the facts actually removed
// and added, captured by database.Store.ApplyDelta), the Maintainer updates
// the program's IDB relations in the store without recomputing them from
// scratch. The batch is the Δ unit of the paper's semi-naive discussion: work
// is proportional to the consequences of the delta, not to the database.
//
// Two algorithms are combined, chosen per strongly connected component of
// the dependency graph:
//
//   - Counting (Gupta–Mumick), for non-recursive components: every stored
//     tuple carries the number of rule-body instantiations currently
//     deriving it (database.Relation derivation counts). A deletion
//     decrements; the tuple disappears only when its count reaches zero, so
//     no rederivation search is ever needed.
//   - DRed (delete and rederive), for recursive components, where counts
//     diverge on cyclic derivations: deletions are over-approximated by
//     propagating forward from the delta, then every candidate that still
//     has an alternative derivation in the shrunken database is rescued and
//     its consequences restored.
//
// Correctness of the counting updates rests on enumerating each rule-body
// instantiation exactly once per batch. For a rule with body positions
// 1..n and a delta touching some of them, the maintainer runs one pass per
// position i with the view assignment
//
//	positions < i : NEW state      positions > i : OLD state      i : Δ
//
// so an instantiation whose delta-touched positions are D is counted exactly
// once — at i = min(D) for deletions and i = max(D) for insertions. The
// naive alternative (Δ at i, the current full store elsewhere) overcounts:
// inserting two facts in one batch would add 2 to a head derived from their
// join, but deleting one of them later removes only 1, and the tuple would
// survive with a phantom count. OLD and NEW states are reconstructed without
// copying relations, as views over the live store plus the captured delta
// ("include these relations, skip rows present in those"), so a pass costs
// O(consequences of Δ), never O(EDB).
//
// Every join runs on the evaluator's compiled pipelines (plan.go). A pass is
// the rule's delta-led variant, with each step's view set to the state its
// body position is assigned; the argument above is positional, so the join
// order the compiler picks changes the cost of a pass, never the
// instantiations it finds. DRed's rescue check is one run of the rule's
// head-led variant over all still-dead candidates at once.

// MaintainStats records the work done by one maintenance run (one committed
// batch, or the initial materialization).
type MaintainStats struct {
	// Rounds counts semi-naive delta rounds across all components and both
	// phases (deletion and insertion).
	Rounds int
	// Increments and Decrements count derivation-count adjustments applied
	// to counting-maintained predicates.
	Increments, Decrements int64
	// Added and Deleted count set-level IDB facts that appeared in and
	// disappeared from the store.
	Added, Deleted int
	// Rederived counts tuples the DRed phase rescued: deletion candidates
	// that still had an alternative derivation.
	Rederived int
	// CountRows is the number of stored rows carrying a derivation count
	// after the run (4 bytes each — the memory cost of counting maintenance).
	CountRows int
}

// Maintainer incrementally maintains the IDB of one prepared program inside
// a base store. All maintenance state (the derivation counts) lives in the
// store's relations; the Maintainer keeps only a reusable evaluation context,
// so runs must be serialized by the caller like any other store write (the
// transaction layer runs them under the database write lock).
type Maintainer struct {
	pp *Prepared
	// counting maps each derived predicate to its maintenance algorithm:
	// true for counting (non-recursive component), false for DRed.
	counting map[string]bool
	// ctx runs the compiled pipelines; it keeps the pipelines runs have used
	// with their scratch buffers.
	ctx *evalContext
}

// NewMaintainer builds a maintainer for the prepared program.
func NewMaintainer(pp *Prepared) *Maintainer {
	counting := make(map[string]bool, len(pp.derived))
	for _, comp := range pp.plan.Components {
		for _, p := range comp.Preds {
			counting[p] = !comp.Recursive
		}
	}
	ctx := &evalContext{
		prep:  pp,
		ctx:   context.Background(),
		bound: make(map[variantKey]*runPipe),
		stats: &Stats{},
	}
	return &Maintainer{pp: pp, counting: counting, ctx: ctx}
}

// Prepared returns the prepared program the maintainer maintains.
func (m *Maintainer) Prepared() *Prepared { return m.pp }

// Counting reports whether the derived predicate is maintained by counting
// (as opposed to DRed).
func (m *Maintainer) Counting(pred string) bool { return m.counting[pred] }

// Materialize computes the program's IDB from scratch into the store,
// creating (and, for counting predicates, count-enabling) one relation per
// derived predicate. It is the insertion phase of Maintain with every base
// relation as its own insertion delta: the OLD state is empty, so the
// resulting derivation counts are exact. Options limits apply as in
// evaluation: MaxIterations per component, MaxFacts and MaxDerivations.
func (m *Maintainer) Materialize(store *database.Store, opts Options) (*MaintainStats, error) {
	none := database.NewStoreWith(store.Table())
	return m.run(store, none, none, true, opts)
}

// Maintain updates the program's IDB in the store after one committed batch
// whose effective delta was captured by Store.ApplyDelta: minus holds the
// facts actually removed, plus the facts actually added. The store must
// already reflect the batch (Apply has run). On error the IDB relations are
// in an undefined state and the caller must drop the materialization.
func (m *Maintainer) Maintain(store, minus, plus *database.Store, opts Options) (*MaintainStats, error) {
	return m.run(store, minus, plus, false, opts)
}

// maintPhase distinguishes the two halves of a maintenance run.
type maintPhase int

const (
	phaseDelete maintPhase = iota // transition S -> S \ Δ⁻
	phaseInsert                   // transition S' -> S' ∪ Δ⁺
)

// emitFunc receives a derived head row; the row is only valid during the
// call.
type emitFunc func(key string, row []intern.ID) error

// maintRun is the per-batch state of one maintenance run.
type maintRun struct {
	m     *Maintainer
	pp    *Prepared
	store *database.Store
	ctx   *evalContext
	// minusE and plusE hold the batch's captured EDB delta.
	minusE, plusE *database.Store
	// idbMinus and idbPlus accumulate the set-level IDB deltas computed by
	// the current phase; they are applied to the store at the end of each
	// phase (the views account for them while pending).
	idbMinus, idbPlus map[string]*database.Relation
	// dec and inc accumulate pending derivation-count changes for counting
	// predicates, as counted side relations.
	dec, inc map[string]*database.Relation
	initial  bool
	stats    *MaintainStats
}

func (m *Maintainer) run(store, minus, plus *database.Store, initial bool, opts Options) (*MaintainStats, error) {
	if store.Table() != m.pp.tab {
		return nil, fmt.Errorf("eval: maintain: store interns into a different symbol table than the prepared program")
	}
	if initial {
		for key := range m.pp.derived {
			rel, err := store.Relation(key, m.pp.arities[key])
			if err != nil {
				return nil, fmt.Errorf("eval: maintain: %w", err)
			}
			if m.counting[key] {
				rel.EnableCounts()
			}
		}
	}
	ctx := m.ctx
	ctx.store, ctx.opts, ctx.reader = store, opts, store.Table().Reader()
	*ctx.stats = Stats{}
	mr := &maintRun{
		m:        m,
		pp:       m.pp,
		store:    store,
		ctx:      ctx,
		minusE:   minus,
		plusE:    plus,
		idbMinus: make(map[string]*database.Relation),
		idbPlus:  make(map[string]*database.Relation),
		dec:      make(map[string]*database.Relation),
		inc:      make(map[string]*database.Relation),
		initial:  initial,
		stats:    &MaintainStats{},
	}
	if minus.TotalFacts() > 0 {
		if err := mr.deletionPhase(); err != nil {
			return mr.stats, err
		}
	}
	if plus.TotalFacts() > 0 || initial {
		if err := mr.insertionPhase(); err != nil {
			return mr.stats, err
		}
	}
	for key, counted := range m.counting {
		if counted {
			mr.stats.CountRows += store.FactCount(key)
		}
	}
	return mr.stats, nil
}

// side returns (creating if needed) the named per-predicate side relation of
// the given map.
func (mr *maintRun) side(mp map[string]*database.Relation, key string, arity int) *database.Relation {
	if r, ok := mp[key]; ok {
		return r
	}
	r := database.NewRelationWith(mr.store.Table(), key, arity)
	mp[key] = r
	return r
}

// fact renders a row for an error message.
func (mr *maintRun) fact(key string, row []intern.ID) string {
	return key + database.AppendTerms(nil, &mr.ctx.reader, row).String()
}

// delta returns a body predicate's change in the phase: the captured EDB
// delta for base predicates (on initial materialization, the whole base
// relation), the pending set-level IDB delta for derived ones.
func (mr *maintRun) delta(ph maintPhase, key string) *database.Relation {
	derived := mr.pp.derived[key]
	switch {
	case derived && ph == phaseDelete:
		return mr.idbMinus[key]
	case derived:
		return mr.idbPlus[key]
	case ph == phaseDelete:
		return mr.minusE.Existing(key)
	case mr.initial:
		return mr.store.Existing(key)
	default:
		return mr.plusE.Existing(key)
	}
}

// state returns a body predicate's state before (OLD) or after (NEW) the
// phase's transition. During deletion the store already holds the batch's
// asserted EDB rows (Apply ran retracts and asserts together), so both
// states skip them and OLD adds the removed rows back; IDB deletions are
// still pending, so the store relation is their OLD state as is. During
// insertion OLD skips the asserted rows — on initial materialization there
// is no OLD state at all — and NEW adds the pending IDB additions.
func (mr *maintRun) state(ph maintPhase, isNew bool, key string) relView {
	base := mr.store.Existing(key)
	if mr.pp.derived[key] {
		switch {
		case !isNew:
			return union(nil, base)
		case ph == phaseDelete:
			return union(mr.idbMinus[key], base)
		default:
			return union(nil, base, mr.idbPlus[key])
		}
	}
	asserted := mr.plusE.Existing(key)
	switch {
	case ph == phaseDelete && !isNew:
		return union(asserted, base, mr.minusE.Existing(key))
	case ph == phaseDelete:
		return union(asserted, base)
	case isNew:
		return union(nil, base)
	case mr.initial:
		return relView{}
	default:
		return union(asserted, base)
	}
}

// union is the view of the given relations minus the rows of skip, if any.
func union(skip *database.Relation, include ...*database.Relation) relView {
	v := relView{include: include}
	if skip != nil {
		v.exclude = []exclusion{{in: skip}}
	}
	return v
}

// fire runs rule ri through its compiled variant led by body position lead
// (len(body): the head-led rescue variant; -1: a body-less rule). The lead
// step reads leadView and every other step view(pos, key); each derived head
// row goes to emit.
func (mr *maintRun) fire(ri, lead int, leadView relView, view func(pos int, key string) relView, emit emitFunc) error {
	rp := mr.ctx.variant(variantKey{rule: ri, lead: lead, fromDelta: true})
	pl, sc := rp.pl, rp.sc
	for i := range pl.steps {
		if st := &pl.steps[i]; st.pos == lead {
			sc.views[i] = leadView
		} else {
			sc.views[i] = view(st.pos, st.key)
		}
	}
	err := pl.run(mr.ctx, sc, func(row []intern.ID) error { return emit(pl.headKey, row) })
	clear(sc.views) // the scratch outlives this run; its batch relations need not
	return err
}

// deltaPass fires every rule of the component once per body position i
// outside the component whose phase delta is non-empty: the lead at i reads
// that delta, every other position pos reads view(i, pos, key). A body-less
// rule fires once, on initial materialization (its one derivation never
// changes with the EDB). Over a non-recursive component, with view assigning
// NEW left of i and OLD right of it, this is the exactly-once enumeration.
func (mr *maintRun) deltaPass(comp depgraph.Component, ph maintPhase, view func(i, pos int, key string) relView, emit emitFunc) error {
	for _, ri := range comp.Rules {
		body := mr.pp.program.Rules[ri].Body
		if len(body) == 0 && ph == phaseInsert && mr.initial {
			if err := mr.fire(ri, -1, relView{}, nil, emit); err != nil {
				return err
			}
		}
		for i, lit := range body {
			d := mr.delta(ph, lit.PredKey())
			if d == nil || d.Len() == 0 || slices.Contains(comp.DeltaPositions[ri], i) {
				continue
			}
			rest := func(pos int, key string) relView { return view(i, pos, key) }
			if err := mr.fire(ri, i, union(nil, d), rest, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// exactlyOnce is the view assignment of a counting pass led by position i.
func (mr *maintRun) exactlyOnce(ph maintPhase) func(i, pos int, key string) relView {
	return func(i, pos int, key string) relView { return mr.state(ph, pos < i, key) }
}

// seed is the first pass of a recursive component's phase: deltaPass with
// every position but the lead reading view.
func (mr *maintRun) seed(comp depgraph.Component, ph maintPhase, view func(key string) relView) func(emit emitFunc) error {
	return func(emit emitFunc) error {
		return mr.deltaPass(comp, ph, func(_, _ int, key string) relView { return view(key) }, emit)
	}
}

// rounds runs a recursive component's semi-naive loop: seed is the first
// pass, and then, while the last pass produced rows, each round fires every
// rule once per body position of the component's own predicates, led by the
// rows of the previous pass and reading view(key) everywhere else. isNew
// decides whether a head row is new; new rows feed the next round.
func (mr *maintRun) rounds(comp depgraph.Component, seed func(emit emitFunc) error, view func(key string) relView, isNew func(key string, row []intern.ID) (bool, error)) error {
	round := database.NewStoreWith(mr.store.Table())
	next := database.NewStoreWith(mr.store.Table())
	emit := func(key string, row []intern.ID) error {
		if fresh, err := isNew(key, row); err != nil || !fresh {
			return err
		}
		rel, err := next.Relation(key, len(row))
		if err == nil {
			_, err = rel.InsertRow(row)
		}
		return err
	}
	rest := func(pos int, key string) relView { return view(key) }
	if err := seed(emit); err != nil {
		return err
	}
	for n := 1; next.TotalFacts() > 0; n++ {
		round, next = next, round
		next.Reset()
		mr.stats.Rounds++
		if max := mr.ctx.opts.MaxIterations; max > 0 && n > max {
			return fmt.Errorf("%w: more than %d maintenance rounds", ErrLimitExceeded, max)
		}
		for _, ri := range comp.Rules {
			body := mr.pp.program.Rules[ri].Body
			for _, pos := range comp.DeltaPositions[ri] {
				d := round.Existing(body[pos].PredKey())
				if d == nil || d.Len() == 0 {
					continue
				}
				if err := mr.fire(ri, pos, union(nil, d), rest, emit); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// deletionPhase computes and applies the IDB consequences of the batch's
// retracts, one component at a time in dependency order: counting
// components decrement, recursive ones run DRed.
func (mr *maintRun) deletionPhase() error {
	for _, comp := range mr.pp.plan.Components {
		var err error
		if comp.Recursive {
			err = mr.deleteDRed(comp)
		} else {
			err = mr.deltaPass(comp, phaseDelete, mr.exactlyOnce(phaseDelete), mr.decrement)
		}
		if err != nil {
			return err
		}
	}
	return mr.applyDeletions()
}

// decrement records one dead derivation of a counting predicate's row. Every
// dead instantiation is counted exactly once, so the pending decrements
// mirror the derivation counts; a row whose decrements reach its stored
// count becomes a set-level deletion feeding later components.
func (mr *maintRun) decrement(key string, row []intern.ID) error {
	rel := mr.store.Existing(key)
	pos := -1
	if rel != nil {
		pos = rel.RowPos(row)
	}
	if pos < 0 {
		return fmt.Errorf("eval: maintain: retract consequence %s is not stored (derivation counts out of sync)", mr.fact(key, row))
	}
	pending, _, err := mr.side(mr.dec, key, len(row)).IncRow(row, 1)
	if err != nil {
		return err
	}
	mr.stats.Decrements++
	stored := rel.CountAt(pos)
	if pending > stored {
		return fmt.Errorf("eval: maintain: %s decremented below zero (derivation counts out of sync)", mr.fact(key, row))
	}
	if pending == stored {
		mr.side(mr.idbMinus, key, len(row)).InsertRow(row)
		mr.stats.Deleted++
	}
	return nil
}

// deleteDRed runs delete-and-rederive for a recursive component. The
// overestimate propagates the deletion forward over OLD views: any
// derivation that used a deleted fact marks its head a candidate. The
// rescue then keeps every candidate that still has a derivation in the
// post-deletion state with the still-dead candidates excluded: first each
// rule's head-led variant checks all candidates at once, then the rescued
// rows, which come back into view as they are found, propagate
// semi-naively. What remains dead becomes the component's set-level deletion.
func (mr *maintRun) deleteDRed(comp depgraph.Component) error {
	tab := mr.store.Table()
	cand := make(map[string]*database.Relation)
	redone := make(map[string]*database.Relation)
	for _, p := range comp.Preds {
		cand[p] = database.NewRelationWith(tab, p, mr.pp.arities[p])
		redone[p] = database.NewRelationWith(tab, p, mr.pp.arities[p])
	}

	old := func(key string) relView { return mr.state(phaseDelete, false, key) }
	err := mr.rounds(comp, mr.seed(comp, phaseDelete, old), old, func(key string, row []intern.ID) (bool, error) {
		// An over-approximated derivation can combine facts that never
		// coexisted; a head that is not stored cannot be deleted.
		if rel := mr.store.Existing(key); rel == nil || !rel.ContainsRow(row) {
			return false, nil
		}
		return cand[key].InsertRow(row)
	})
	if err != nil {
		return err
	}

	cur := func(key string) relView {
		v := mr.state(phaseDelete, true, key)
		if c, ok := cand[key]; ok {
			v.exclude = append(v.exclude, exclusion{in: c, unless: redone[key]})
		}
		return v
	}
	check := func(emit emitFunc) error {
		for _, ri := range comp.Rules {
			r := mr.pp.program.Rules[ri]
			key := r.Head.PredKey()
			guard := union(redone[key], cand[key])
			if err := mr.fire(ri, len(r.Body), guard, func(_ int, key string) relView { return cur(key) }, emit); err != nil {
				return err
			}
		}
		return nil
	}
	err = mr.rounds(comp, check, cur, func(key string, row []intern.ID) (bool, error) {
		if !cand[key].ContainsRow(row) {
			return false, nil
		}
		added, err := redone[key].InsertRow(row)
		if added {
			mr.stats.Rederived++
		}
		return added, err
	})
	if err != nil {
		return err
	}

	// Whatever was not rescued is truly dead.
	for _, p := range comp.Preds {
		c := cand[p]
		for pos := 0; pos < c.Len(); pos++ {
			row := c.Row(pos)
			if redone[p].ContainsRow(row) {
				continue
			}
			if added, err := mr.side(mr.idbMinus, p, c.Arity).InsertRow(row); err != nil {
				return err
			} else if added {
				mr.stats.Deleted++
			}
		}
	}
	return nil
}

// applyDeletions writes the deletion phase's results into the store: pending
// decrements on surviving rows of counting predicates, then the set-level
// row deletions, one compaction per touched relation.
func (mr *maintRun) applyDeletions() error {
	for key, decRel := range mr.dec {
		rel, err := mr.store.Relation(key, decRel.Arity)
		if err != nil {
			return fmt.Errorf("eval: maintain: %w", err)
		}
		dead := mr.idbMinus[key]
		for pos := 0; pos < decRel.Len(); pos++ {
			row := decRel.Row(pos)
			if dead != nil && dead.ContainsRow(row) {
				continue // deleted below, no need to decrement
			}
			spos := rel.RowPos(row)
			if spos < 0 {
				return fmt.Errorf("eval: maintain: decrement target %s missing", mr.fact(key, row))
			}
			rel.AddAt(spos, -decRel.CountAt(pos))
		}
	}
	for key, deadRel := range mr.idbMinus {
		if deadRel.Len() == 0 {
			continue
		}
		rel, err := mr.store.Relation(key, deadRel.Arity)
		if err != nil {
			return fmt.Errorf("eval: maintain: %w", err)
		}
		rows := make([][]intern.ID, deadRel.Len())
		for pos := range rows {
			rows[pos] = deadRel.Row(pos)
		}
		rel.DeleteRows(rows)
	}
	clear(mr.dec)
	return nil
}

// insertionPhase computes and applies the IDB consequences of the batch's
// asserts (or, on initial materialization, of the whole EDB), one component
// at a time in dependency order: counting components increment, recursive
// ones run a plain semi-naive insertion — counts are not kept there (they
// diverge on cycles), so duplicate derivations are harmless and every
// position but the lead reads the NEW state.
func (mr *maintRun) insertionPhase() error {
	cur := func(key string) relView { return mr.state(phaseInsert, true, key) }
	for _, comp := range mr.pp.plan.Components {
		var err error
		if comp.Recursive {
			err = mr.rounds(comp, mr.seed(comp, phaseInsert, cur), cur, mr.insertDRed)
		} else {
			err = mr.deltaPass(comp, phaseInsert, mr.exactlyOnce(phaseInsert), mr.increment)
		}
		if err != nil {
			return err
		}
	}
	return mr.applyInsertions()
}

// increment accumulates one derivation-count increment for a counting
// predicate's row and records a set-level addition the first time an
// unstored row appears.
func (mr *maintRun) increment(key string, row []intern.ID) error {
	if _, _, err := mr.side(mr.inc, key, len(row)).IncRow(row, 1); err != nil {
		return err
	}
	mr.stats.Increments++
	if rel := mr.store.Existing(key); rel != nil && rel.ContainsRow(row) {
		return nil
	}
	added, err := mr.side(mr.idbPlus, key, len(row)).InsertRow(row)
	if err != nil || !added {
		return err
	}
	return mr.countAdded()
}

// insertDRed records a row derived for a recursive predicate, reporting
// whether it is new to the store.
func (mr *maintRun) insertDRed(key string, row []intern.ID) (bool, error) {
	if rel := mr.store.Existing(key); rel != nil && rel.ContainsRow(row) {
		return false, nil
	}
	added, err := mr.side(mr.idbPlus, key, len(row)).InsertRow(row)
	if err != nil || !added {
		return false, err
	}
	return true, mr.countAdded()
}

// countAdded counts one set-level IDB addition against Options.MaxFacts.
func (mr *maintRun) countAdded() error {
	mr.stats.Added++
	if max := mr.ctx.opts.MaxFacts; max > 0 && mr.stats.Added > max {
		return fmt.Errorf("%w: more than %d facts", ErrLimitExceeded, max)
	}
	return nil
}

// applyInsertions writes the insertion phase's results into the store:
// pending increments merge into the counting relations (inserting unstored
// rows with their accumulated count), and DRed-maintained additions are
// plain row inserts.
func (mr *maintRun) applyInsertions() error {
	for key, incRel := range mr.inc {
		rel, err := mr.store.Relation(key, incRel.Arity)
		if err != nil {
			return fmt.Errorf("eval: maintain: %w", err)
		}
		for pos := 0; pos < incRel.Len(); pos++ {
			row := incRel.Row(pos)
			if spos := rel.RowPos(row); spos >= 0 {
				rel.AddAt(spos, incRel.CountAt(pos))
			} else if _, _, err := rel.IncRow(row, incRel.CountAt(pos)); err != nil {
				return err
			}
		}
	}
	for key, plusRel := range mr.idbPlus {
		if mr.m.counting[key] {
			continue // merged through inc above
		}
		rel, err := mr.store.Relation(key, plusRel.Arity)
		if err != nil {
			return fmt.Errorf("eval: maintain: %w", err)
		}
		for pos := 0; pos < plusRel.Len(); pos++ {
			if _, err := rel.InsertRow(plusRel.Row(pos)); err != nil {
				return err
			}
		}
	}
	return nil
}
