package eval

import (
	"fmt"

	"repro/internal/ast"
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
// a base store. It is stateless between runs — all maintenance state (the
// derivation counts) lives in the store's relations — so a Maintainer may be
// shared, but runs must be serialized by the caller like any other store
// write (the transaction layer runs them under the database write lock).
type Maintainer struct {
	pp *Prepared
	// counting maps each derived predicate to its maintenance algorithm:
	// true for counting (non-recursive component), false for DRed.
	counting map[string]bool
}

// NewMaintainer builds a maintainer for the prepared program.
func NewMaintainer(pp *Prepared) *Maintainer {
	counting := make(map[string]bool, len(pp.derived))
	for _, comp := range pp.plan.Components {
		for _, p := range comp.Preds {
			counting[p] = !comp.Recursive
		}
	}
	return &Maintainer{pp: pp, counting: counting}
}

// Prepared returns the prepared program the maintainer maintains.
func (m *Maintainer) Prepared() *Prepared { return m.pp }

// Counting reports whether the derived predicate is maintained by counting
// (as opposed to DRed).
func (m *Maintainer) Counting(pred string) bool { return m.counting[pred] }

// Materialize computes the program's IDB from scratch into the store,
// creating (and, for counting predicates, count-enabling) one relation per
// derived predicate. It is the insertion phase of Maintain run with the
// whole existing EDB as the insertion delta: the "old" state is empty, so
// the resulting derivation counts are exact. Options limits (MaxIterations
// per component, MaxFacts) apply as in evaluation.
func (m *Maintainer) Materialize(store *database.Store, opts Options) (*MaintainStats, error) {
	if store.Table() != m.pp.tab {
		return nil, fmt.Errorf("eval: maintain: store interns into a different symbol table than the prepared program")
	}
	for key := range m.pp.derived {
		rel, err := store.Relation(key, m.pp.arities[key])
		if err != nil {
			return nil, fmt.Errorf("eval: maintain: %w", err)
		}
		if m.counting[key] {
			rel.EnableCounts()
		}
	}
	// Present the whole EDB as the insertion delta through a side store that
	// attaches (not copies) the base relations; the views then make the old
	// state empty (store minus plus) and the new state the store itself.
	plus := database.NewStoreWith(store.Table())
	for _, name := range store.Names() {
		if !m.pp.derived[name] {
			plus.Attach(store.Existing(name))
		}
	}
	return m.run(store, database.NewStoreWith(store.Table()), plus, true, opts)
}

// Maintain updates the program's IDB in the store after one committed batch
// whose effective delta was captured by Store.ApplyDelta: minus holds the
// facts actually removed, plus the facts actually added. The store must
// already reflect the batch (Apply has run). On error the IDB relations are
// in an undefined state and the caller must drop the materialization.
func (m *Maintainer) Maintain(store, minus, plus *database.Store, opts Options) (*MaintainStats, error) {
	if store.Table() != m.pp.tab {
		return nil, fmt.Errorf("eval: maintain: store interns into a different symbol table than the prepared program")
	}
	return m.run(store, minus, plus, false, opts)
}

// exclusion skips rows present in `in` (unless also present in `unless`,
// which DRed uses for "still-dead deletion candidates"). Nil relations make
// the exclusion inert.
type exclusion struct {
	in     *database.Relation
	unless *database.Relation
}

// relView presents one body predicate in one of its batch states (OLD, NEW
// or Δ) as a virtual relation: the union of the include relations (which
// must be pairwise disjoint) minus the excluded rows. Membership filtering
// over the captured delta keeps view enumeration O(Δ-consequences) without
// ever copying a base relation.
type relView struct {
	include []*database.Relation
	exclude []exclusion
}

func (v relView) excluded(row []intern.ID) bool {
	for _, ex := range v.exclude {
		if ex.in != nil && ex.in.ContainsRow(row) {
			if ex.unless == nil || !ex.unless.ContainsRow(row) {
				return true
			}
		}
	}
	return false
}

// maintPhase distinguishes the two halves of a maintenance run.
type maintPhase int

const (
	phaseDelete maintPhase = iota // transition S -> S \ Δ⁻
	phaseInsert                   // transition S' -> S' ∪ Δ⁺
)

// maintRun is the per-batch state of one maintenance run.
type maintRun struct {
	m     *Maintainer
	pp    *Prepared
	store *database.Store
	tab   *intern.Table
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
	opts     Options
	stats    *MaintainStats
}

func (m *Maintainer) run(store, minus, plus *database.Store, initial bool, opts Options) (*MaintainStats, error) {
	mr := &maintRun{
		m:        m,
		pp:       m.pp,
		store:    store,
		tab:      store.Table(),
		minusE:   minus,
		plusE:    plus,
		idbMinus: make(map[string]*database.Relation),
		idbPlus:  make(map[string]*database.Relation),
		dec:      make(map[string]*database.Relation),
		inc:      make(map[string]*database.Relation),
		initial:  initial,
		opts:     opts,
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
	// Restore the term-backed invariant: every maintained base relation must
	// be fully materialized before the commit returns, so a concurrent
	// snapshot reader's Tuple call is never a mutating lazy fill.
	for key := range m.pp.derived {
		if rel := store.Existing(key); rel != nil {
			rel.MaterializeTuples()
			if m.counting[key] {
				mr.stats.CountRows += rel.Len()
			}
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
	r := database.NewRelationWith(mr.tab, key, arity)
	mp[key] = r
	return r
}

// rowOf interns the ground head atom's arguments into an ID row.
func (mr *maintRun) rowOf(head ast.Atom) []intern.ID {
	row := make([]intern.ID, len(head.Args))
	for i, a := range head.Args {
		row[i] = mr.tab.Intern(a)
	}
	return row
}

// minusOf returns the deletion delta of a body predicate: the captured EDB
// retract for base predicates, the pending set-level IDB deletions for
// derived ones.
func (mr *maintRun) minusOf(key string) *database.Relation {
	if mr.pp.derived[key] {
		return mr.idbMinus[key]
	}
	return mr.minusE.Existing(key)
}

// plusOf is minusOf for the insertion delta.
func (mr *maintRun) plusOf(key string) *database.Relation {
	if mr.pp.derived[key] {
		return mr.idbPlus[key]
	}
	return mr.plusE.Existing(key)
}

// oldView returns the body predicate's state before the phase's transition.
// During deletion the store still holds the asserted EDB facts (Apply ran
// retracts and asserts together), so OLD adds the removed rows back and
// skips the added ones; IDB deletions are pending, so the store relation is
// the old state as is. During insertion the EDB old state skips the added
// rows and IDB additions are pending.
func (mr *maintRun) oldView(ph maintPhase, key string) relView {
	base := mr.store.Existing(key)
	if mr.pp.derived[key] {
		return relView{include: []*database.Relation{base}}
	}
	switch ph {
	case phaseDelete:
		return relView{
			include: []*database.Relation{base, mr.minusE.Existing(key)},
			exclude: []exclusion{{in: mr.plusE.Existing(key)}},
		}
	default:
		return relView{
			include: []*database.Relation{base},
			exclude: []exclusion{{in: mr.plusE.Existing(key)}},
		}
	}
}

// newView returns the body predicate's state after the phase's transition,
// with pending IDB deltas folded in.
func (mr *maintRun) newView(ph maintPhase, key string) relView {
	base := mr.store.Existing(key)
	if mr.pp.derived[key] {
		if ph == phaseDelete {
			return relView{
				include: []*database.Relation{base},
				exclude: []exclusion{{in: mr.idbMinus[key]}},
			}
		}
		return relView{include: []*database.Relation{base, mr.idbPlus[key]}}
	}
	if ph == phaseDelete {
		return relView{
			include: []*database.Relation{base},
			exclude: []exclusion{{in: mr.plusE.Existing(key)}},
		}
	}
	return relView{include: []*database.Relation{base}}
}

// matchView enumerates the substitutions extending s that satisfy the body
// literal against the view: the literal's ground arguments under s select the
// candidate tuples, the rest are matched against each.
func (mr *maintRun) matchView(lit ast.Atom, v relView, s ast.Subst, yield func(ast.Subst) error) error {
	inst := s.ApplyAtom(lit)
	var cols []int
	var vals []ast.Term
	for i, arg := range inst.Args {
		arg = ast.EvalArith(arg)
		inst.Args[i] = arg
		if ast.IsGround(arg) {
			if ast.ContainsArith(arg) {
				return fmt.Errorf("eval: maintain: argument %d of %s contains uninterpreted arithmetic after grounding", i, lit)
			}
			cols = append(cols, i)
			vals = append(vals, arg)
		}
	}
	for _, rel := range v.include {
		if rel == nil || rel.Len() == 0 {
			continue
		}
		for _, pos := range rel.Lookup(cols, vals) {
			if v.excluded(rel.Row(pos)) {
				continue
			}
			s2 := s.Clone()
			if ast.MatchAtom(inst, rel.Tuple(pos), s2) {
				if err := yield(s2); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// fireRule enumerates the rule body with the literal at deltaPos matched
// against deltaView and every other literal against viewAt's choice, calling
// onHead for each derived ground head.
//
// The enumeration starts at the delta position and then greedily picks the
// most-bound remaining literal: the delta is the small side of every
// maintenance join, so driving the walk from it is what bounds a pass by the
// consequences of Δ instead of the size of the base relations (a left-to-
// right walk would scan a whole base relation whenever the delta sits to the
// right of an unbound literal). The exactly-once counting argument is
// positional — each body position keeps the OLD/NEW/Δ view assigned by its
// index in the rule, whatever order the positions are enumerated in — so
// reordering changes the join cost, never the set of instantiations found.
func (mr *maintRun) fireRule(ri, deltaPos int, deltaView relView, viewAt func(pos int, key string) relView, onHead func(ast.Atom) error) error {
	r := mr.pp.program.Rules[ri]
	viewOf := func(i int) relView {
		if i == deltaPos {
			return deltaView
		}
		return viewAt(i, r.Body[i].PredKey())
	}
	remaining := make([]int, 0, len(r.Body))
	for i := range r.Body {
		if i != deltaPos {
			remaining = append(remaining, i)
		}
	}
	boundArgs := func(lit ast.Atom, s ast.Subst) int {
		n := 0
		for _, arg := range s.ApplyAtom(lit).Args {
			if ast.IsGround(ast.EvalArith(arg)) {
				n++
			}
		}
		return n
	}
	var walk func(rem []int, s ast.Subst) error
	walk = func(rem []int, s ast.Subst) error {
		if len(rem) == 0 {
			return mr.emitHead(ri, r, s, onHead)
		}
		// Pick the literal with the most ground arguments under the current
		// substitution; ties resolve to rule order.
		best := 0
		if len(rem) > 1 {
			bestScore := boundArgs(r.Body[rem[0]], s)
			for j := 1; j < len(rem); j++ {
				if score := boundArgs(r.Body[rem[j]], s); score > bestScore {
					best, bestScore = j, score
				}
			}
		}
		i := rem[best]
		rest := make([]int, 0, len(rem)-1)
		rest = append(rest, rem[:best]...)
		rest = append(rest, rem[best+1:]...)
		return mr.matchView(r.Body[i], viewOf(i), s, func(s2 ast.Subst) error { return walk(rest, s2) })
	}
	return mr.matchView(r.Body[deltaPos], deltaView, ast.NewSubst(), func(s ast.Subst) error {
		return walk(remaining, s)
	})
}

func (mr *maintRun) emitHead(ri int, r ast.Rule, s ast.Subst, onHead func(ast.Atom) error) error {
	head := s.ApplyAtom(r.Head)
	for j, arg := range head.Args {
		head.Args[j] = ast.EvalArith(arg)
	}
	if !ast.IsGroundAtom(head) {
		return fmt.Errorf("%w: rule %d (%s) produced %s", ErrNonGroundFact, ri, r, head)
	}
	return onHead(head)
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
			err = mr.deleteCounting(comp)
		}
		if err != nil {
			return err
		}
	}
	return mr.applyDeletions()
}

// deleteCounting runs the exactly-once deletion enumeration for a
// non-recursive component: for each rule and each body position i with a
// non-empty deletion delta, positions left of i see the NEW (post-deletion)
// state, i sees Δ⁻, and positions right of i see the OLD state. Every dead
// instantiation is counted at exactly one i, so the pending decrements
// mirror the derivation counts exactly; a tuple whose decrements reach its
// stored count becomes a set-level deletion feeding later components.
func (mr *maintRun) deleteCounting(comp depgraph.Component) error {
	viewLeft := func(pos int, key string) relView { return mr.newView(phaseDelete, key) }
	onHead := func(head ast.Atom) error {
		key := head.PredKey()
		row := mr.rowOf(head)
		rel := mr.store.Existing(key)
		pos := -1
		if rel != nil {
			pos = rel.RowPos(row)
		}
		if pos < 0 {
			return fmt.Errorf("eval: maintain: retract consequence %s is not stored (derivation counts out of sync)", head)
		}
		decRel := mr.side(mr.dec, key, len(head.Args))
		pending, _, err := decRel.IncRow(row, 1)
		if err != nil {
			return err
		}
		mr.stats.Decrements++
		stored := rel.CountAt(pos)
		if pending > stored {
			return fmt.Errorf("eval: maintain: %s decremented below zero (derivation counts out of sync)", head)
		}
		if pending == stored {
			mr.side(mr.idbMinus, key, len(head.Args)).InsertRow(row)
			mr.stats.Deleted++
		}
		return nil
	}
	for _, ri := range comp.Rules {
		r := mr.pp.program.Rules[ri]
		for i := range r.Body {
			d := mr.minusOf(r.Body[i].PredKey())
			if d == nil || d.Len() == 0 {
				continue
			}
			deltaView := relView{include: []*database.Relation{d}}
			viewAt := func(pos int, key string) relView {
				if pos < i {
					return viewLeft(pos, key)
				}
				return mr.oldView(phaseDelete, key)
			}
			if err := mr.fireRule(ri, i, deltaView, viewAt, onHead); err != nil {
				return err
			}
		}
	}
	return nil
}

// deleteDRed runs delete-and-rederive for a recursive component: first the
// deletion candidates are over-approximated by propagating forward from the
// delta over OLD views (any derivation that used a deleted fact marks its
// head), then candidates with a surviving alternative derivation are rescued
// and their consequences restored by a semi-naive forward pass; what remains
// dead becomes the component's set-level deletion.
func (mr *maintRun) deleteDRed(comp depgraph.Component) error {
	inComp := make(map[string]bool, len(comp.Preds))
	for _, p := range comp.Preds {
		inComp[p] = true
	}
	cand := make(map[string]*database.Relation)
	redone := make(map[string]*database.Relation)
	for _, p := range comp.Preds {
		cand[p] = database.NewRelationWith(mr.tab, p, mr.pp.arities[p])
		redone[p] = database.NewRelationWith(mr.tab, p, mr.pp.arities[p])
	}

	oldAt := func(pos int, key string) relView { return mr.oldView(phaseDelete, key) }

	// Overestimation. Round 0 seeds from the deltas of base and
	// earlier-component predicates; later rounds propagate through the
	// component's own predicates (the candidate sets are the delta).
	round := database.NewStoreWith(mr.tab)
	next := database.NewStoreWith(mr.tab)
	overHead := func(head ast.Atom) error {
		key := head.PredKey()
		if !inComp[key] {
			return fmt.Errorf("eval: maintain: rule of component %v derived %s", comp.Preds, head)
		}
		row := mr.rowOf(head)
		rel := mr.store.Existing(key)
		if rel == nil || !rel.ContainsRow(row) {
			// An over-approximated derivation can combine facts that never
			// coexisted; a head that is not stored cannot be deleted.
			return nil
		}
		if added, err := cand[key].InsertRow(row); err != nil {
			return err
		} else if added {
			if _, err := must2(next.Relation(key, len(head.Args))).InsertRow(row); err != nil {
				return err
			}
		}
		return nil
	}
	for _, ri := range comp.Rules {
		r := mr.pp.program.Rules[ri]
		for i := range r.Body {
			key := r.Body[i].PredKey()
			if inComp[key] {
				continue // same-component deltas are handled by the rounds below
			}
			d := mr.minusOf(key)
			if d == nil || d.Len() == 0 {
				continue
			}
			if err := mr.fireRule(ri, i, relView{include: []*database.Relation{d}}, oldAt, overHead); err != nil {
				return err
			}
		}
	}
	rounds := 0
	for next.TotalFacts() > 0 {
		round, next = next, round
		next.Reset()
		rounds++
		mr.stats.Rounds++
		if mr.opts.MaxIterations > 0 && rounds > mr.opts.MaxIterations {
			return fmt.Errorf("%w: more than %d deletion rounds", ErrLimitExceeded, mr.opts.MaxIterations)
		}
		for _, ri := range comp.Rules {
			r := mr.pp.program.Rules[ri]
			for _, pos := range comp.DeltaPositions[ri] {
				d := round.Existing(r.Body[pos].PredKey())
				if d == nil || d.Len() == 0 {
					continue
				}
				if err := mr.fireRule(ri, pos, relView{include: []*database.Relation{d}}, oldAt, overHead); err != nil {
					return err
				}
			}
		}
	}

	// Rederivation. curAt is the post-deletion state with still-dead
	// candidates excluded: rescued rows (redone) come back into view as they
	// are found, so support may flow through them.
	curAt := func(pos int, key string) relView {
		v := mr.newView(phaseDelete, key)
		if inComp[key] {
			v.exclude = append(v.exclude, exclusion{in: cand[key], unless: redone[key]})
		}
		return v
	}
	// Seed pass: every candidate that matches some rule head and whose body
	// is satisfiable in the candidate-excluded state has an alternative
	// derivation.
	round.Reset()
	next.Reset()
	errSupported := fmt.Errorf("supported")
	supported := func(key string, tuple database.Tuple) (bool, error) {
		for _, ri := range comp.Rules {
			r := mr.pp.program.Rules[ri]
			if r.Head.PredKey() != key {
				continue
			}
			s := ast.NewSubst()
			if !ast.MatchAtom(r.Head, tuple, s) {
				continue
			}
			var walk func(i int, s ast.Subst) error
			walk = func(i int, s ast.Subst) error {
				if i == len(r.Body) {
					return errSupported
				}
				return mr.matchView(r.Body[i], curAt(i, r.Body[i].PredKey()), s, func(s2 ast.Subst) error {
					return walk(i+1, s2)
				})
			}
			switch err := walk(0, s); err {
			case nil:
				continue
			case errSupported:
				return true, nil
			default:
				return false, err
			}
		}
		return false, nil
	}
	for _, p := range comp.Preds {
		c := cand[p]
		for pos := 0; pos < c.Len(); pos++ {
			ok, err := supported(p, c.Tuple(pos))
			if err != nil {
				return err
			}
			if ok {
				if _, err := redone[p].InsertRow(c.Row(pos)); err != nil {
					return err
				}
				if _, err := must2(next.Relation(p, c.Arity)).InsertRow(c.Row(pos)); err != nil {
					return err
				}
				mr.stats.Rederived++
			}
		}
	}
	// Propagate rescues semi-naively: a rescued tuple can support other
	// candidates one derivation step away.
	rescueHead := func(head ast.Atom) error {
		key := head.PredKey()
		if !inComp[key] {
			return nil
		}
		row := mr.rowOf(head)
		if !cand[key].ContainsRow(row) || redone[key].ContainsRow(row) {
			return nil
		}
		if _, err := redone[key].InsertRow(row); err != nil {
			return err
		}
		mr.stats.Rederived++
		_, err := must2(next.Relation(key, len(head.Args))).InsertRow(row)
		return err
	}
	for next.TotalFacts() > 0 {
		round, next = next, round
		next.Reset()
		mr.stats.Rounds++
		for _, ri := range comp.Rules {
			r := mr.pp.program.Rules[ri]
			for _, pos := range comp.DeltaPositions[ri] {
				d := round.Existing(r.Body[pos].PredKey())
				if d == nil || d.Len() == 0 {
					continue
				}
				if err := mr.fireRule(ri, pos, relView{include: []*database.Relation{d}}, curAt, rescueHead); err != nil {
					return err
				}
			}
		}
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
				return fmt.Errorf("eval: maintain: decrement target %s%s missing", key, decRel.Tuple(pos))
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
// at a time in dependency order.
func (mr *maintRun) insertionPhase() error {
	for _, comp := range mr.pp.plan.Components {
		var err error
		if comp.Recursive {
			err = mr.insertRecursive(comp)
		} else {
			err = mr.insertCounting(comp)
		}
		if err != nil {
			return err
		}
	}
	return mr.applyInsertions()
}

// countingInsertHead accumulates one derivation-count increment for the
// derived head and records a set-level addition the first time an unstored
// tuple appears.
func (mr *maintRun) countingInsertHead(head ast.Atom) error {
	key := head.PredKey()
	row := mr.rowOf(head)
	incRel := mr.side(mr.inc, key, len(head.Args))
	if _, _, err := incRel.IncRow(row, 1); err != nil {
		return err
	}
	mr.stats.Increments++
	if rel := mr.store.Existing(key); rel != nil && rel.ContainsRow(row) {
		return nil
	}
	added, err := mr.side(mr.idbPlus, key, len(head.Args)).InsertRow(row)
	if err != nil {
		return err
	}
	if added {
		mr.stats.Added++
		if mr.opts.MaxFacts > 0 && mr.stats.Added > mr.opts.MaxFacts {
			return fmt.Errorf("%w: more than %d facts", ErrLimitExceeded, mr.opts.MaxFacts)
		}
	}
	return nil
}

// insertCounting runs the exactly-once insertion enumeration for a
// non-recursive component: positions left of the delta see the NEW state,
// the delta position sees Δ⁺, positions right of it see the OLD
// (pre-insertion) state, so each new instantiation increments exactly once
// — at i = max of its delta-touched positions. Empty-body rules fire once,
// during initial materialization only (their single derivation never
// changes with the EDB).
func (mr *maintRun) insertCounting(comp depgraph.Component) error {
	for _, ri := range comp.Rules {
		r := mr.pp.program.Rules[ri]
		if len(r.Body) == 0 {
			if mr.initial {
				if err := mr.emitHead(ri, r, ast.NewSubst(), mr.countingInsertHead); err != nil {
					return err
				}
			}
			continue
		}
		for i := range r.Body {
			d := mr.plusOf(r.Body[i].PredKey())
			if d == nil || d.Len() == 0 {
				continue
			}
			deltaView := relView{include: []*database.Relation{d}}
			viewAt := func(pos int, key string) relView {
				if pos < i {
					return mr.newView(phaseInsert, key)
				}
				return mr.oldView(phaseInsert, key)
			}
			if err := mr.fireRule(ri, i, deltaView, viewAt, mr.countingInsertHead); err != nil {
				return err
			}
		}
	}
	return nil
}

// insertRecursive runs a plain semi-naive insertion for a recursive
// component: counts are not kept (they diverge on cycles), so duplicate
// derivations are harmless and every non-delta position can use the NEW
// view. Round 0 seeds from base and earlier-component deltas; later rounds
// propagate through the component's own delta positions.
func (mr *maintRun) insertRecursive(comp depgraph.Component) error {
	newAt := func(pos int, key string) relView { return mr.newView(phaseInsert, key) }
	round := database.NewStoreWith(mr.tab)
	next := database.NewStoreWith(mr.tab)
	onHead := func(head ast.Atom) error {
		key := head.PredKey()
		row := mr.rowOf(head)
		if rel := mr.store.Existing(key); rel != nil && rel.ContainsRow(row) {
			return nil
		}
		plusRel := mr.side(mr.idbPlus, key, len(head.Args))
		added, err := plusRel.InsertRow(row)
		if err != nil {
			return err
		}
		if added {
			mr.stats.Added++
			if mr.opts.MaxFacts > 0 && mr.stats.Added > mr.opts.MaxFacts {
				return fmt.Errorf("%w: more than %d facts", ErrLimitExceeded, mr.opts.MaxFacts)
			}
			if _, err := must2(next.Relation(key, len(head.Args))).InsertRow(row); err != nil {
				return err
			}
		}
		return nil
	}
	for _, ri := range comp.Rules {
		r := mr.pp.program.Rules[ri]
		if len(r.Body) == 0 {
			if mr.initial {
				if err := mr.emitHead(ri, r, ast.NewSubst(), onHead); err != nil {
					return err
				}
			}
			continue
		}
		for i := range r.Body {
			key := r.Body[i].PredKey()
			var d *database.Relation
			if inSlice(comp.Preds, key) {
				// The component's own predicates gained tuples in this phase
				// only through idbPlus, which round 0 has not produced yet;
				// pending additions from this very loop are picked up by the
				// delta rounds below.
				continue
			}
			d = mr.plusOf(key)
			if d == nil || d.Len() == 0 {
				continue
			}
			if err := mr.fireRule(ri, i, relView{include: []*database.Relation{d}}, newAt, onHead); err != nil {
				return err
			}
		}
	}
	rounds := 0
	for next.TotalFacts() > 0 {
		round, next = next, round
		next.Reset()
		rounds++
		mr.stats.Rounds++
		if mr.opts.MaxIterations > 0 && rounds > mr.opts.MaxIterations {
			return fmt.Errorf("%w: more than %d insertion rounds", ErrLimitExceeded, mr.opts.MaxIterations)
		}
		for _, ri := range comp.Rules {
			r := mr.pp.program.Rules[ri]
			for _, pos := range comp.DeltaPositions[ri] {
				d := round.Existing(r.Body[pos].PredKey())
				if d == nil || d.Len() == 0 {
					continue
				}
				if err := mr.fireRule(ri, pos, relView{include: []*database.Relation{d}}, newAt, onHead); err != nil {
					return err
				}
			}
		}
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

func inSlice(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// must2 unwraps a side-store relation accessor that cannot fail (fresh
// stores, consistent arities).
func must2(r *database.Relation, err error) *database.Relation {
	if err != nil {
		panic(fmt.Sprintf("eval: maintain: side relation access failed: %v", err))
	}
	return r
}
