// Prepared queries: the serving layer of the engine.
//
// The paper's division of labor is that adornment and rewriting happen once
// per query *form* — a predicate plus a binding pattern — while evaluation
// cost varies with the data and the bound constants. PreparedQuery is that
// division made operational: Snapshot.Prepare runs parse → adorn → rewrite →
// simplify → compile exactly once and keeps the result; PreparedQuery.Run
// re-instantiates only the seed facts and the answer selection for each
// call's constants and evaluates the precompiled pipelines against a
// copy-on-write overlay of the snapshot's store. Snapshot.Query uses the
// same machinery transparently through the program's LRU of query forms.
package datalog

import (
	"container/list"
	"context"
	"fmt"
	"iter"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/rewrite"
)

// preparedForm holds the per-form artifacts shared by every PreparedQuery
// handle of one query form: everything that depends only on the predicate,
// the binding pattern and the form-shaping options — never on a particular
// call's constants or runtime limits.
type preparedForm struct {
	rewriting      *rewrite.Rewriting // rewriting strategies
	prepared       *eval.Prepared     // the original or the rewritten program
	safety         *SafetyReport
	rewrittenSrc   string
	rewrittenRules int
	// derivedKeys/auxKeys split the evaluated program's derived predicates
	// for the per-run fact counting (aux = the rewriting's magic/sup/cnt
	// predicates), precomputed so Run does not re-walk the program.
	derivedKeys []string
	auxKeys     []string
	// divergenceFallback records that a counting strategy was requested but
	// the form was prepared with the equivalent magic rewriting because the
	// Theorem 10.3 analysis proved counting divergent (see
	// Options.OnDivergence); surfaced as Stats.DivergenceFallback.
	divergenceFallback bool
}

// PreparedQuery is a query form compiled once for repeated evaluation: the
// rewriting and the bottom-up join pipelines are built at Prepare time and
// shared by every Run — including concurrent ones — while each Run supplies
// its own bound constants and reads the snapshot the handle was prepared on
// (Snapshot.Prepare), which pins facts and program together. The handle itself additionally carries the
// constants of the prepared query text (the defaults of Run()) and the
// caller's runtime limits, so two Prepare calls sharing a form still run
// with their own constants and limits. To read a later commit version,
// prepare the same form on that version's snapshot: the form is cached on
// the program, so this compiles nothing (Stats.PlanCacheHit).
type PreparedQuery struct {
	// snap is where runs read their facts; snap.prog is the program the form
	// was prepared from (the materialized-view fast path matches it by
	// pointer against the snapshot's registration).
	snap *Snapshot
	opts Options
	// atom is the parsed query atom; its ground arguments are the default
	// bound constants of Run().
	atom ast.Atom
	// boundPos lists the positions of the atom's ground arguments, in
	// order; Run's arguments replace them positionally.
	boundPos []int
	// form is the shared per-form preparation (cached on the program).
	form *preparedForm
}

// normalizeOptions validates the options (see Options.Validate) and
// resolves the zero values of the form-shaping ones to their documented
// defaults, so equivalent option sets share one cached form ({} and
// {Strategy: MagicSets, Sip: SipFull} are the same form).
func normalizeOptions(opts *Options) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	if opts.Strategy == "" {
		opts.Strategy = MagicSets
	}
	if opts.Sip == "" {
		opts.Sip = SipFull
	}
	if opts.OnDivergence == "" {
		opts.OnDivergence = DivergenceFallback
	}
	return nil
}

// Run evaluates the prepared query against its snapshot. It is RunCtx with
// a background context.
func (pq *PreparedQuery) Run(args ...any) (*Result, error) {
	return pq.RunCtx(context.Background(), args...)
}

// RunCtx evaluates the prepared query against its snapshot, under the
// caller's context: a deadline or cancellation interrupts the evaluation
// and the returned error wraps ctx.Err(), distinct from ErrLimitExceeded.
// With no arguments the constants of the prepared query text are used; with
// arguments, they replace the query's bound constants positionally (strings
// become symbolic constants, int/int64 become integers, exactly as in
// Database.Assert). RunCtx is safe for concurrent use, also with other
// queries on the same snapshot and with commits to the database.
func (pq *PreparedQuery) RunCtx(ctx context.Context, args ...any) (*Result, error) {
	bound, err := pq.resolveArgs(args)
	if err != nil {
		return nil, err
	}
	return pq.runMaterialized(ctx, bound, pq.opts, true)
}

// Stream evaluates the prepared query and returns a cursor over its
// answers: an iterator yielding one typed Row per answer, in discovery
// order, without ever rendering values to strings. Combined with
// Options.FirstN the evaluation itself is cut off as soon as enough answers
// exist, so the time to the first yielded row of a point query is the time
// to derive one answer, not the whole answer set. Evaluation has finished
// before the first yield, so a consumer may process rows at its own pace
// (the yielded values remain valid indefinitely).
//
// Evaluation errors — a context cancellation, an exceeded limit — are
// yielded as the final (nil, err) pair after the sound answers found before
// the interruption; a break inside the loop simply abandons the rest.
func (pq *PreparedQuery) Stream(ctx context.Context, args ...any) iter.Seq2[Row, error] {
	return func(yield func(Row, error) bool) {
		bound, err := pq.resolveArgs(args)
		if err != nil {
			yield(nil, err)
			return
		}
		_, rows, err := pq.runCore(ctx, bound, pq.opts, true)
		for _, row := range rows {
			if !yield(row, nil) {
				return
			}
		}
		if err != nil {
			yield(nil, err)
		}
	}
}

// resolveArgs maps RunCtx/Stream arguments onto the query form's bound
// constants, defaulting to the constants of the prepared query text.
func (pq *PreparedQuery) resolveArgs(args []any) ([]ast.Term, error) {
	if len(args) == 0 {
		return pq.boundConstants(), nil
	}
	terms, err := constantTerms(args)
	if err != nil {
		return nil, err
	}
	if len(terms) != len(pq.boundPos) {
		return nil, fmt.Errorf("datalog: query form %s has %d bound argument(s), got %d",
			pq.atom.Pred, len(pq.boundPos), len(terms))
	}
	return terms, nil
}

// boundConstants returns the ground arguments of the prepared query atom.
func (pq *PreparedQuery) boundConstants() []ast.Term {
	out := make([]ast.Term, len(pq.boundPos))
	for k, pos := range pq.boundPos {
		out[k] = pq.atom.Args[pos]
	}
	return out
}

// atomWith returns the query atom with the bound positions replaced by the
// given constants.
func (pq *PreparedQuery) atomWith(bound []ast.Term) ast.Atom {
	args := append([]ast.Term(nil), pq.atom.Args...)
	for k, pos := range pq.boundPos {
		args[pos] = bound[k]
	}
	return ast.Atom{Pred: pq.atom.Pred, Adorn: pq.atom.Adorn, Args: args}
}

// termOf converts one Assert/Run-style constant argument to a term — the
// single definition of the public argument-conversion contract, shared by
// the one-shot converter (constantTerms) and the transaction buffer
// (Txn.bufTerms).
func termOf(a any) (ast.Term, error) {
	switch v := a.(type) {
	case string:
		return ast.S(v), nil
	case int:
		return ast.I(int64(v)), nil
	case int64:
		return ast.I(v), nil
	default:
		return nil, fmt.Errorf("datalog: unsupported argument type %T", a)
	}
}

// constantTerms converts Assert/Run-style constant arguments to terms.
func constantTerms(args []any) ([]ast.Term, error) {
	terms := make([]ast.Term, len(args))
	for i, a := range args {
		t, err := termOf(a)
		if err != nil {
			return nil, err
		}
		terms[i] = t
	}
	return terms, nil
}

// formKey encodes the query form — everything that determines the prepared
// artifacts: evaluation options that shape the rewriting, the predicate and
// the binding pattern. The constants themselves are deliberately absent:
// forms differing only in constants share one preparation. SemiNaive
// prepares the whole unrewritten program, which is independent of the query
// entirely, so every SemiNaive query shares one preparation.
func formKey(q ast.Query, opts Options) string {
	if opts.Strategy == SemiNaive {
		return string(opts.Strategy) + "|direct"
	}
	var b strings.Builder
	b.WriteString(string(opts.Strategy))
	b.WriteByte('|')
	b.WriteString(string(opts.Sip))
	b.WriteByte('|')
	if opts.Semijoin {
		b.WriteByte('j')
	}
	if opts.KeepAllGuards {
		b.WriteByte('g')
	}
	if opts.Simplify {
		b.WriteByte('s')
	}
	if opts.Strategy == Counting || opts.Strategy == SupplementaryCounting {
		// The divergence policy changes what gets prepared for the counting
		// strategies (fallback swaps in the magic rewriting); other
		// strategies ignore it, and including it there would only split
		// their caches.
		b.WriteByte('|')
		b.WriteString(string(opts.OnDivergence))
	}
	b.WriteByte('|')
	b.WriteString(q.Atom.Pred)
	b.WriteByte('/')
	for _, arg := range q.Atom.Args {
		if ast.IsGround(arg) {
			b.WriteByte('b')
		} else {
			b.WriteByte('f')
		}
	}
	return b.String()
}

// planCacheCap bounds the number of prepared query forms a planCache keeps;
// beyond it the least recently used form is evicted (a workload usually has
// few forms, so the cap only guards against unbounded ad-hoc query shapes).
const planCacheCap = 128

// planCache is a program's LRU of prepared query forms (per symbol table,
// see Program.plans), with a
// single-flight on cold misses: concurrent first queries of one form share
// a single build instead of each paying the full
// parse/adorn/rewrite/compile pipeline.
type planCache struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	building map[string]*buildSlot
}

type cacheEntry struct {
	key  string
	form *preparedForm
}

// buildSlot is one in-flight form build; losers of the insert race wait on
// the winner's once instead of rebuilding.
type buildSlot struct {
	once sync.Once
	form *preparedForm
	err  error
}

func newPlanCache() *planCache {
	return &planCache{
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		building: make(map[string]*buildSlot),
	}
}

// getOrBuild returns the cached form for key, or runs build exactly once
// (across concurrent callers) and caches its result. hit reports whether
// this caller reused an existing or in-flight preparation rather than
// performing the build itself. Failed builds are not cached: the next
// caller wave retries.
func (c *planCache) getOrBuild(key string, build func() (*preparedForm, error)) (form *preparedForm, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.mu.Unlock()
		return el.Value.(*cacheEntry).form, true, nil
	}
	slot, waiting := c.building[key]
	if !waiting {
		slot = &buildSlot{}
		c.building[key] = slot
	}
	c.mu.Unlock()

	slot.once.Do(func() { slot.form, slot.err = build() })

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.building[key] == slot {
		delete(c.building, key)
		if slot.err == nil {
			if _, ok := c.entries[key]; !ok {
				c.entries[key] = c.order.PushFront(&cacheEntry{key: key, form: slot.form})
				for c.order.Len() > planCacheCap {
					oldest := c.order.Back()
					c.order.Remove(oldest)
					delete(c.entries, oldest.Value.(*cacheEntry).key)
				}
			}
		}
	}
	return slot.form, waiting, slot.err
}

// runMaterialized evaluates the prepared form and fills Result.Answers from
// the answer rows. Streaming goes through runCore directly.
func (pq *PreparedQuery) runMaterialized(ctx context.Context, bound []ast.Term, opts Options, cacheHit bool) (*Result, error) {
	res, rows, err := pq.runCore(ctx, bound, opts, cacheHit)
	if res != nil {
		res.Answers = answersFromRows(rows)
	}
	return res, err
}

// runCore evaluates the prepared form for one set of bound constants and
// returns the result shell (stats, rewriting echo, safety) alongside the
// typed answer rows. opts carries the caller's run-time limits; its
// form-shaping fields are the ones the form was prepared with. cacheHit is
// surfaced as Stats.PlanCacheHit.
func (pq *PreparedQuery) runCore(ctx context.Context, bound []ast.Term, opts Options, cacheHit bool) (*Result, []Row, error) {
	if pq.snap.store.Released() {
		return nil, nil, ErrReleased
	}
	for i, t := range bound {
		if !ast.IsGround(t) {
			return nil, nil, fmt.Errorf("datalog: bound argument %d (%s) is not ground", i, t)
		}
	}
	if res, rows, ok := pq.runLookup(bound, opts, cacheHit); ok {
		return res, rows, nil
	}
	return pq.runBottomUp(ctx, bound, opts, cacheHit)
}

// runLookup is the materialized-view fast path: when the snapshot pinned a
// materialization of exactly this query's program (Database.Materialize)
// covering the queried predicate, the answer is read straight out of the
// stored IDB relation — a pure index lookup, no evaluation — and ok reports
// that the result is final. Any mismatch (no registration, a different
// program, a base predicate, Options.NoMaterialize) falls through to
// evaluation with ok=false. The whole-strategy semantics are
// preserved because the maintained IDB is, by the maintenance invariant,
// exactly the fixpoint a from-scratch evaluation would compute.
func (pq *PreparedQuery) runLookup(bound []ast.Term, opts Options, cacheHit bool) (*Result, []Row, bool) {
	mat := pq.snap.mat
	if opts.NoMaterialize || mat == nil || mat.prog != pq.snap.prog {
		return nil, nil, false
	}
	atom := pq.atomWith(bound)
	key := atom.PredKey()
	if !mat.derived[key] {
		return nil, nil, false
	}
	mat.hits.Add(1)
	res := &Result{Safety: pq.form.safetyCopy()}
	pq.stampStats(res, cacheHit, false)
	res.Stats.MaterializedHit = true
	res.Stats.DerivedFacts = pq.snap.store.FactCount(key)
	return res, pq.answerRows(pq.snap.store, key, atom, opts.FirstN), true
}

// stopAfterN builds the StopEarly predicate for Options.FirstN: evaluation
// is cut off once the answer relation holds N tuples matching the answer
// pattern. Counting probes the relation's bound-column index, so the
// between-rounds check is a hash lookup, not a scan.
func stopAfterN(n int, predKey string, pattern ast.Atom) func(*database.Store) bool {
	if n <= 0 {
		return nil
	}
	return func(s *database.Store) bool {
		return eval.CountAnswers(s, predKey, pattern) >= n
	}
}

// stampStats fills the option-echo fields of a result's stats.
func (pq *PreparedQuery) stampStats(res *Result, cacheHit bool, withSip bool) {
	res.Stats.Strategy = pq.opts.Strategy
	res.Stats.PlanCacheHit = cacheHit
	res.Stats.DivergenceFallback = pq.form.divergenceFallback
	if withSip {
		res.Stats.Sip = pq.opts.Sip // normalized at prepare time, never ""
	}
}

// safetyCopy returns a fresh copy of the cached safety report, so callers
// mutating one Result cannot affect later results of the same form.
func (f *preparedForm) safetyCopy() *SafetyReport {
	if f.safety == nil {
		return nil
	}
	s := *f.safety
	return &s
}

// answerRows reads the typed answer rows out of an evaluated store, capped
// at limit when positive.
func (pq *PreparedQuery) answerRows(store *database.Store, predKey string, pattern ast.Atom, limit int) []Row {
	rd := store.Table().Reader()
	return rowsFromIDs(&rd, eval.AnswerRows(store, predKey, pattern, limit))
}

// runBottomUp is the one evaluation run. SemiNaive evaluates the unrewritten
// program without seeds and selects the answers matching the instantiated
// query atom; a rewriting strategy evaluates the precompiled rewritten
// program with the seed facts re-instantiated for this call's constants and
// reads the rewriting's answer predicate. Either way the evaluation writes
// to a copy-on-write overlay of the snapshot's store.
func (pq *PreparedQuery) runBottomUp(ctx context.Context, bound []ast.Term, opts Options, cacheHit bool) (*Result, []Row, error) {
	form := pq.form
	var (
		seeds   []ast.Atom
		pattern ast.Atom
		predKey string
	)
	if rw := form.rewriting; rw != nil {
		var err error
		if seeds, pattern, err = rw.Parameterize(bound); err != nil {
			return nil, nil, fmt.Errorf("datalog: %w", err)
		}
		predKey = rw.AnswerPred
	} else {
		pattern = pq.atomWith(bound)
		predKey = pattern.PredKey()
	}
	evalOpts := evalOptions(opts)
	evalOpts.StopEarly = stopAfterN(opts.FirstN, predKey, pattern)
	store, stats, err := form.prepared.EvaluateCtx(ctx, pq.snap.store, seeds, evalOpts)

	res := &Result{RewrittenProgram: form.rewrittenSrc, Safety: form.safetyCopy()}
	pq.stampStats(res, cacheHit, form.rewriting != nil)
	res.Stats.RewrittenRules = form.rewrittenRules
	for _, s := range seeds {
		res.Seeds = append(res.Seeds, s.String())
	}
	if stats != nil {
		res.Stats.Counters = stats.Counters
	}
	var rows []Row
	if store != nil {
		for _, key := range form.derivedKeys {
			res.Stats.DerivedFacts += store.FactCount(key)
		}
		for _, key := range form.auxKeys {
			res.Stats.AuxFacts += store.FactCount(key)
		}
		rows = pq.answerRows(store, predKey, pattern, opts.FirstN)
	}
	return res, rows, wrapLimit(err)
}
