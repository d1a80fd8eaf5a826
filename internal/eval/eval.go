// Package eval implements bottom-up (fixpoint) evaluation of Horn-clause
// programs over a database. A program is prepared once (Prepare) and then
// evaluated semi-naively (Prepared.EvaluateCtx), firing rules through
// compiled join pipelines. The evaluator runs the components of the
// program's dependency graph one at a time, in plan order, on the calling
// goroutine, through one loop (runComponent, fixpoint.go); only a large
// delta round fans out to shards, which are joined at the round barrier.
//
// Bottom-up evaluation is the control strategy the paper's rewritings target
// (Sections 4-8): the rewritten program is evaluated by plain fixpoint
// iteration, and the sideways information passing chosen at rewrite time is
// what restricts the facts computed.
//
// No functor is interpreted: terms match by structure alone. The counting
// rewritings' index fields are ordinary compounds such as s(I) and k(K, 2),
// built in rule heads and destructured in bodies like any other term.
package eval

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/depgraph"
	"repro/internal/intern"
)

// ErrLimitExceeded is returned when evaluation exceeds the configured
// iteration or fact limit before reaching a fixpoint. The partially computed
// store and statistics are still returned; callers use this to observe the
// divergence of the counting methods on cyclic data (Theorem 10.3) without
// hanging.
var ErrLimitExceeded = errors.New("eval: limit exceeded before reaching a fixpoint")

// ErrNonGroundFact is returned when a rule derives a non-ground head, i.e.
// the program is unsafe for bottom-up evaluation (for example the raw list
// append program before magic rewriting).
var ErrNonGroundFact = errors.New("eval: rule derived a non-ground fact (unsafe program)")

// Options configure an evaluation.
type Options struct {
	// MaxIterations bounds the number of fixpoint iterations (0 = unlimited).
	// The bound applies per strongly connected component (the unit within
	// which a diverging program loops), so a wide stratified program with
	// many components does not trip it.
	MaxIterations int
	// MaxFacts bounds the total number of derived facts (0 = unlimited).
	// Evaluation stops with ErrLimitExceeded when the bound is hit.
	MaxFacts int
	// MaxDerivations bounds the total number of rule firings, successful or
	// duplicate (0 = unlimited).
	MaxDerivations int64
	// StopEarly, when non-nil, is consulted between fixpoint rounds (before
	// the first pass of every component and before every delta round). A true
	// result truncates the evaluation: the store computed so far is returned
	// with no error and Stats.StoppedEarly set. The facade uses it for
	// first-N answer streaming — evaluation stops as soon as the answer
	// relation holds enough tuples, instead of running the fixpoint to
	// completion.
	StopEarly func(store *database.Store) bool
	// Parallelism is the shard count of the evaluator's large delta rounds: a
	// round of a recursive component whose delta holds at least
	// partitionThreshold (256) rows is hash-partitioned across this many
	// goroutines, which the round barrier joins. Components always run one at
	// a time, in plan order, on the calling goroutine. 0 means GOMAXPROCS; 1
	// partitions no round; values above maxParallelism (64) are clamped to
	// it. Every setting derives the same store, and an evaluation whose
	// rounds all stay below the threshold reports the same Stats at every
	// setting; under MaxDerivations the point at which the limit error
	// surfaces may differ by a bounded overshoot when rounds are partitioned
	// (the shards' counts are enforced globally at round barriers and every
	// ctxCheckInterval firings).
	Parallelism int
}

// maxParallelism caps the shard count. The value reaches the evaluator from
// network requests, and a partitioned round starts one goroutine and three
// stores per shard, so an unbounded count is a way to exhaust the process.
const maxParallelism = 64

// parallelism resolves Options.Parallelism to a shard count in
// [1, maxParallelism].
func (o Options) parallelism() int {
	p := o.Parallelism
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return min(max(p, 1), maxParallelism)
}

// Counters are the work counters of one bottom-up evaluation that are
// reported unchanged all the way out: Stats embeds them here, the public
// datalog.Stats embeds them again, and the json tags are the wire names of
// cmd/datalogd responses — the one declaration of each. The fact and
// derivation counters are the quantities the paper's optimality discussion
// (Section 9) and the performance study it cites ([5]) reason about.
type Counters struct {
	// Derivations is the number of successful rule instantiations, including
	// ones that re-derive an already known fact.
	Derivations int64 `json:"derivations"`
	// Iterations is the number of fixpoint iterations.
	Iterations int `json:"iterations"`
	// JoinProbes counts tuple match attempts during body evaluation: every
	// candidate tuple the executor tested against a body literal, whether it
	// came from an indexed probe or a scan and whether or not the post-probe
	// filtering on the literal's free positions accepted it. It is the
	// executor-level proxy for the join work the Section 9 cost model counts;
	// for a compiled evaluation it is exactly IndexHits + ScanRows.
	JoinProbes int64 `json:"join_probes,omitempty"`
	// Strata is the number of strongly connected components of the
	// derived-predicate dependency graph the evaluator scheduled.
	Strata int `json:"strata,omitempty"`
	// IndexProbes is the number of bound-column index lookups the evaluation
	// performed against the store (main and delta sides); IndexHits is the
	// number of tuples those lookups returned. A JoinProbes match attempt fed
	// by a scan appears in neither. Both are counted by the evaluation that
	// issued the lookup, so they stay exact when several evaluations probe
	// the same base relations concurrently.
	IndexProbes int64 `json:"index_probes,omitempty"`
	IndexHits   int64 `json:"index_hits,omitempty"`
	// CompiledPlans counts the join pipelines compiled during this
	// evaluation (one per rule and leading-literal variant executed for the
	// first time), and PlanOps the total number of pipeline ops across them
	// (one per body step plus one head constructor each). An evaluation that
	// reuses a Prepared program's already compiled pipelines reports 0 for
	// both — which is how callers observe that the compile work was
	// amortized away.
	CompiledPlans int `json:"compiled_plans,omitempty"`
	PlanOps       int `json:"plan_ops,omitempty"`
	// OpProbes counts executed pipeline probe ops (index-driven steps) and
	// OpScans executed scan ops (steps with no bound column). Together they
	// describe how often the compiled executor could drive a join through an
	// index versus falling back to scanning a relation.
	OpProbes int64 `json:"op_probes,omitempty"`
	OpScans  int64 `json:"op_scans,omitempty"`
	// ScanRows is the number of rows visited by scan ops. OpScans counts
	// such ops, ScanRows their cost: it grows with the size of the scanned
	// relations, so for a magic-rewritten program it shows directly whether
	// evaluation touched only the relevant facts or the whole EDB.
	ScanRows int64 `json:"scan_rows,omitempty"`
	// StoppedEarly reports that Options.StopEarly (the public Options.FirstN)
	// truncated the evaluation before it reached a fixpoint: the store holds
	// a sound but possibly incomplete set of derived facts.
	StoppedEarly bool `json:"stopped_early,omitempty"`
	// WorkerRounds counts the per-shard round executions of hash-partitioned
	// delta rounds: a partitioned round with K shards adds K, a
	// non-partitioned round adds nothing, so the counter being positive is
	// how callers observe that intra-round partitioning actually engaged.
	WorkerRounds int64 `json:"worker_rounds,omitempty"`
}

// Stats records the work done by an evaluation: the shared Counters plus
// the bookkeeping only this package's callers read.
type Stats struct {
	Counters
	// NewFacts is the number of distinct derived facts added to the store.
	NewFacts int
	// DeltaRuleEvals counts rule evaluations performed in delta iterations;
	// SkippedRuleEvals counts the rule evaluations the scheduler skipped
	// without running: a delta occurrence whose predicate had an empty delta
	// or belonged to an already completed stratum, or a full-store pass over
	// a body with an empty relation.
	DeltaRuleEvals   int64
	SkippedRuleEvals int64
}

// merge folds a shard context's Stats into the root's at the end of a run.
// Each shard of a partitioned round counts into its own Stats with the
// ordinary unsynchronized paths, and merge runs after the last round's
// barrier, so no counter is ever touched by two goroutines at once. A shard's
// NewFacts is zero: the barrier's merge into the main store counts the rows
// it adds on the root.
func (s *Stats) merge(w *Stats) {
	s.Iterations += w.Iterations
	s.Derivations += w.Derivations
	s.NewFacts += w.NewFacts
	s.JoinProbes += w.JoinProbes
	s.IndexProbes += w.IndexProbes
	s.IndexHits += w.IndexHits
	s.ScanRows += w.ScanRows
	s.DeltaRuleEvals += w.DeltaRuleEvals
	s.SkippedRuleEvals += w.SkippedRuleEvals
	s.CompiledPlans += w.CompiledPlans
	s.PlanOps += w.PlanOps
	s.OpProbes += w.OpProbes
	s.OpScans += w.OpScans
	s.WorkerRounds += w.WorkerRounds
}

// variantKey identifies one compiled pipeline variant of a program: a rule
// index, the body position leading the join, and whether that literal reads
// the delta store (a semi-naive delta round) or the main store like the rest
// of the body (a full-store pass, led by its smallest relation). lead is -1
// only for a body-less rule, and len(body) only for maintenance's head-led
// rescue variant (compileRule), so a rule has at most 2·|body| + 2 variants.
type variantKey struct {
	rule      int
	lead      int
	fromDelta bool
}

// ruleShape is what the scheduler needs to know about a rule each time it
// fires, computed once per program.
type ruleShape struct {
	// bodyKeys holds the predicate key of each body literal, ground its
	// number of ground arguments (the literal's cover score before anything
	// is bound).
	bodyKeys []string
	ground   []int
}

// Prepared is the reusable compiled form of a program for bottom-up
// evaluation: the arity and derived-predicate maps, the dependency-graph
// schedule, and the ID-space join pipelines, computed once and shared by
// any number of evaluations — including concurrent ones — over stores that
// intern into the same symbol table. It is the unit a serving layer caches
// per query form so the compile work runs once while evaluation runs per
// call.
type Prepared struct {
	program *ast.Program
	arities map[string]int
	derived map[string]bool
	plan    *depgraph.Plan
	tab     *intern.Table
	shapes  []ruleShape // parallel to program.Rules
	own     bool        // derived relations start empty (PrepareWith)

	mu       sync.Mutex
	variants map[variantKey]*pipeline
}

// Prepare analyzes and readies a program for repeated evaluation over
// stores interning into tab. Pipelines are compiled lazily, on first
// execution of each rule variant, and then shared across evaluations.
func Prepare(p *ast.Program, tab *intern.Table) (*Prepared, error) {
	return PrepareWith(p, tab, nil, false)
}

// PrepareWith is Prepare with a precomputed dependency-graph plan for p: a
// caller that has already stratified the program (datalog.Compile analyzes a
// program once, at compile time) passes the plan in so preparing the same
// program for another symbol table does not re-run the SCC analysis. A nil
// plan is computed here, making Prepare a special case. own marks a
// rewritten program (package rewrite), whose derived relations are its own:
// each evaluation starts them empty instead of copying stored relations of
// the same keys, such as a user's sup_2_2.
func PrepareWith(p *ast.Program, tab *intern.Table, plan *depgraph.Plan, own bool) (*Prepared, error) {
	arities, err := p.Arities()
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	if plan == nil {
		plan = depgraph.Analyze(p)
	}
	shapes := make([]ruleShape, len(p.Rules))
	for i, r := range p.Rules {
		keys := make([]string, len(r.Body))
		ground := make([]int, len(r.Body))
		for j, lit := range r.Body {
			keys[j] = lit.PredKey()
			for _, arg := range lit.Args {
				if ast.IsGround(arg) {
					ground[j]++
				}
			}
		}
		shapes[i] = ruleShape{bodyKeys: keys, ground: ground}
	}
	return &Prepared{
		program:  p,
		arities:  arities,
		derived:  p.DerivedPredicates(),
		plan:     plan,
		tab:      tab,
		shapes:   shapes,
		own:      own,
		variants: make(map[variantKey]*pipeline),
	}, nil
}

// Program returns the prepared program.
func (pp *Prepared) Program() *ast.Program { return pp.program }

// pipelineVariant returns the compiled pipeline for one rule variant,
// compiling it on first use; fresh reports whether this call performed the
// compilation (so per-evaluation stats count only new compile work).
func (pp *Prepared) pipelineVariant(key variantKey) (pl *pipeline, fresh bool) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pl, ok := pp.variants[key]; ok {
		return pl, false
	}
	pl = compileRule(pp, key)
	pp.variants[key] = pl
	return pl, true
}

// runPipe pairs a shared compiled pipeline with this evaluation's private
// scratch state (register file, probe and head-row buffers), so concurrent
// evaluations can execute the same pipeline.
type runPipe struct {
	pl *pipeline
	sc *pipeScratch
}

// evalContext carries the machinery of one evaluation, one shard of it, or
// one maintenance run.
type evalContext struct {
	prep  *Prepared
	store *database.Store
	opts  Options
	stats *Stats
	// ctx is the caller's cancellation context. It is checked at every
	// fixpoint round and, through derivationTick, once every
	// ctxCheckInterval rule firings, so deadlines interrupt even a divergent
	// fixpoint whose individual rounds are long.
	ctx context.Context
	// bound memoizes, per pipeline variant, the shared pipeline paired with
	// this evaluation's scratch buffers.
	bound map[variantKey]*runPipe
	// reader is the lock-free view of the store's symbol table the compiled
	// pipelines execute against.
	reader intern.Reader
	// fp links a shard context back to the run's global derivation counter.
	// nil in the root context, which flushes its count at round barriers.
	fp *fixpoint
	// flushedDerivations is the portion of this context's Derivations already
	// published to the run's global counter by fixpoint.tick; the next flush
	// publishes only the difference.
	flushedDerivations int64
}

// fork derives a shard context sharing the run's immutable machinery (store,
// prepared program, reader — which self-refreshes per copy) but with private
// pipeline scratch, private Stats, and a link to the run's global
// derivation counter. Shards only read the shared store and write their private shard
// stores, which is what makes the shared *database.Store safe without
// locking.
func (ctx *evalContext) fork(fp *fixpoint) *evalContext {
	w := *ctx
	w.bound = make(map[variantKey]*runPipe)
	w.stats = &Stats{}
	w.fp = fp
	w.flushedDerivations = 0
	return &w
}

func newContext(c context.Context, pp *Prepared, edb *database.Store, seeds []ast.Atom, opts Options) (*evalContext, error) {
	if edb.Table() != pp.tab {
		return nil, fmt.Errorf("eval: store interns into a different symbol table than the prepared program")
	}
	if c == nil {
		c = context.Background()
	}
	ctx := &evalContext{
		prep:  pp,
		store: edb.Overlay(),
		opts:  opts,
		ctx:   c,
		bound: make(map[variantKey]*runPipe),
		stats: &Stats{},
	}
	ctx.reader = ctx.store.Table().Reader()
	// Pre-create relations for every derived predicate so lookups during
	// body matching never fail on missing relations. On the overlay this is
	// also the copy-on-write point: every relation evaluation writes to
	// becomes private here, so the shared base store is never mutated.
	for key := range pp.derived {
		if pp.own {
			ctx.store.Fresh(key, pp.arities[key])
		} else if _, err := ctx.store.Relation(key, pp.arities[key]); err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
	}
	// Seed facts (the magic/counting seeds derived from a query's bound
	// constants) go straight into the overlay; like the pre-seeded stores of
	// the old clone-based API they are not counted as derived facts.
	for _, seed := range seeds {
		if _, err := ctx.store.AddFact(seed); err != nil {
			return nil, fmt.Errorf("eval: seed %s: %w", seed, err)
		}
	}
	return ctx, nil
}

// pipelineFor returns the runnable pipeline for the rule with the body
// literal at deltaPos (if >= 0) matched against the delta store. A full-store
// pass (deltaPos < 0) has its leading literal chosen here, from the sizes the
// body relations have right now; nil means one of them is empty, so the rule
// cannot fire and need not run.
func (ctx *evalContext) pipelineFor(ruleIdx, deltaPos int) *runPipe {
	key := variantKey{rule: ruleIdx, lead: deltaPos, fromDelta: true}
	if deltaPos < 0 {
		lead, ok := ctx.fullStoreLead(ruleIdx)
		if !ok {
			ctx.stats.SkippedRuleEvals++
			return nil
		}
		key = variantKey{rule: ruleIdx, lead: lead}
	}
	return ctx.variant(key)
}

// variant returns the runnable pipeline of one variant, fetching (or
// compiling) the shared pipeline and binding it to this evaluation's scratch
// buffers on first use.
func (ctx *evalContext) variant(key variantKey) *runPipe {
	if rp, ok := ctx.bound[key]; ok {
		return rp
	}
	pl, fresh := ctx.prep.pipelineVariant(key)
	if fresh {
		ctx.stats.CompiledPlans++
		ctx.stats.PlanOps += len(pl.steps) + 1 // body steps plus the head op
	}
	rp := &runPipe{pl: pl, sc: pl.newScratch()}
	ctx.bound[key] = rp
	return rp
}

// fullStoreLead picks the literal that leads a rule fired against the full
// store (compile.go, "Join order", says why). Nothing is bound yet, so only
// constants in the rule text can make a literal an index probe rather than a
// scan: the literal with the most ground arguments leads, and among equals —
// in a rewritten rule, which has no constants, among all — the one over the
// smallest relation, the first such in textual order. ok is false when some
// body relation is empty. The choice reads nothing but relation sizes at the
// moment the rule fires, and within a component rules fire in a fixed order
// against relations that only this component writes, so it is the same at
// every Parallelism.
func (ctx *evalContext) fullStoreLead(ruleIdx int) (lead int, ok bool) {
	shape := &ctx.prep.shapes[ruleIdx]
	lead, fewest := -1, 0
	for pos, key := range shape.bodyKeys {
		n := ctx.store.FactCount(key)
		if n == 0 {
			return -1, false
		}
		if lead >= 0 {
			g, best := shape.ground[pos], shape.ground[lead]
			if g < best || g == best && n >= fewest {
				continue
			}
		}
		lead, fewest = pos, n
	}
	return lead, true
}

// insertRow adds a derived ID row to the target store and reports whether it
// was new there.
func (ctx *evalContext) insertRow(target *database.Store, key string, arity int, row []intern.ID) (bool, error) {
	rel, err := target.Relation(key, arity)
	if err != nil {
		return false, fmt.Errorf("eval: %w", err)
	}
	added, err := rel.InsertRow(row)
	if err != nil {
		return false, fmt.Errorf("eval: %w", err)
	}
	return added, nil
}

// fireRule evaluates one rule through its compiled join pipeline, with the
// body literal at deltaPos (if >= 0) matched against the delta store. Every
// derived fact is inserted into the main store; new facts are additionally
// inserted into aux (if non-nil, the next delta store). A full-store pass that
// cannot fire (pipelineFor returns nil) does nothing.
func (ctx *evalContext) fireRule(ruleIdx int, deltaPos int, delta *database.Store, aux *database.Store) error {
	rp := ctx.pipelineFor(ruleIdx, deltaPos)
	if rp == nil {
		return nil
	}
	pl := rp.pl
	return pl.run(ctx, rp.sc.fromStores(pl, ctx.store, delta), func(row []intern.ID) error {
		added, err := ctx.insertRow(ctx.store, pl.headKey, pl.headArity, row)
		if err != nil {
			return err
		}
		if added {
			ctx.stats.NewFacts++
			if aux != nil {
				if _, err := ctx.insertRow(aux, pl.headKey, pl.headArity, row); err != nil {
					return err
				}
			}
		}
		return ctx.checkFactLimit()
	})
}

// fireRuleInto is the shard-local variant of fireRule used by partitioned
// delta rounds: the rule fires with the body literal at deltaPos matched
// against a private delta shard, and every derived row that the (frozen) main
// relation does not already hold goes into the private out store — nothing
// shared is written, so K shards run concurrently. ContainsRow moves the
// duplicate filtering, which dominates the late rounds of a transitive
// closure, into the parallel phase; the serial round barrier then only has to
// merge the out shards into the main relation.
func (ctx *evalContext) fireRuleInto(ruleIdx, deltaPos int, delta, out *database.Store) error {
	rp := ctx.pipelineFor(ruleIdx, deltaPos)
	pl := rp.pl
	main := ctx.store.Existing(pl.headKey)
	outRel, err := out.Relation(pl.headKey, pl.headArity)
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	return pl.run(ctx, rp.sc.fromStores(pl, ctx.store, delta), func(row []intern.ID) error {
		if main.ContainsRow(row) {
			return nil
		}
		_, err := outRel.InsertRow(row)
		return err
	})
}

func (ctx *evalContext) checkFactLimit() error {
	if ctx.opts.MaxFacts > 0 && ctx.stats.NewFacts > ctx.opts.MaxFacts {
		return fmt.Errorf("%w: more than %d facts", ErrLimitExceeded, ctx.opts.MaxFacts)
	}
	return nil
}

// ctxCheckInterval is how many rule firings may pass between two context
// checks inside a fixpoint round. It trades check overhead (one ctx.Err call
// per interval) against cancellation latency; at typical derivation rates an
// interval of 1024 keeps the latency well under a millisecond.
const ctxCheckInterval = 1024

// ctxErr returns the caller's cancellation, wrapped with the evaluator's
// prefix. ctx.Err() (not context.Cause) is wrapped so the documented
// errors.Is contract against context.Canceled / context.DeadlineExceeded
// holds even under context.WithCancelCause; it is deliberately NOT an
// ErrLimitExceeded: hitting a configured limit and being cancelled are
// different outcomes.
func (ctx *evalContext) ctxErr() error {
	if err := ctx.ctx.Err(); err != nil {
		return fmt.Errorf("eval: evaluation interrupted: %w", err)
	}
	return nil
}

// derivationTick is the per-N-derivation cancellation check, called on every
// rule firing next to the MaxDerivations limit check. In a shard context it
// additionally flushes the local count to the run's global counter.
func (ctx *evalContext) derivationTick() error {
	if ctx.stats.Derivations%ctxCheckInterval == 0 {
		if ctx.fp != nil {
			if err := ctx.fp.tick(ctx); err != nil {
				return err
			}
		}
		return ctx.ctxErr()
	}
	return nil
}

// stopRequested consults Options.StopEarly between fixpoint rounds.
func (ctx *evalContext) stopRequested() bool {
	if ctx.opts.StopEarly != nil && ctx.opts.StopEarly(ctx.store) {
		ctx.stats.StoppedEarly = true
		return true
	}
	return false
}

// EvaluateCtx runs the semi-naive strategy over a copy-on-write overlay of
// edb extended with the seed facts: the base store's facts are shared, not
// copied, and only the derived (and seeded) relations are private to this
// evaluation. It is safe to call concurrently from multiple goroutines over
// the same base store, provided nothing mutates the base while evaluations
// are in flight; the compiled pipelines are shared, each evaluation gets its
// own register scratch.
//
// The program is evaluated one strongly connected component of its
// derived-predicate dependency graph at a time (see internal/depgraph),
// callees before callers, so every predicate a component reads from another
// is complete when it runs. The calling goroutine runs every component in
// plan order through runComponent (fixpoint.go); only a delta round of at
// least partitionThreshold rows is split across Options.Parallelism shards,
// and the round barrier joins them before the next check.
//
// The context is checked before every component pass and every delta round,
// and once every ctxCheckInterval rule firings within a round, so request
// deadlines interrupt divergent fixpoints promptly; the wrapped context error
// is distinct from ErrLimitExceeded and returned together with the partially
// computed store. Options.StopEarly is likewise consulted between rounds.
func (pp *Prepared) EvaluateCtx(c context.Context, edb *database.Store, seeds []ast.Atom, opts Options) (*database.Store, *Stats, error) {
	root, err := newContext(c, pp, edb, seeds, opts)
	if err != nil {
		return nil, nil, err
	}
	root.stats.Strata = pp.plan.Strata()
	err = newFixpoint(root, pp.plan, opts.parallelism()).run()
	return root.store, root.stats, err
}

// answerSelection locates the tuples of the given relation that match the
// query atom (whose ground arguments act as selections), returning the
// relation, a cursor over the matching positions in insertion order, and
// the query's free positions. A nil relation means no answers.
func answerSelection(store *database.Store, predKey string, query ast.Atom) (*database.Relation, database.Cursor, []int) {
	rel := store.Existing(predKey)
	if rel == nil {
		return nil, database.Cursor{}, nil
	}
	var cols []int
	var vals []ast.Term
	var freePos []int
	for i, arg := range query.Args {
		if ast.IsGround(arg) {
			cols = append(cols, i)
			vals = append(vals, arg)
		} else {
			freePos = append(freePos, i)
		}
	}
	return rel, rel.Lookup(cols, vals), freePos
}

// Answers selects from the store the tuples of the given relation that match
// the query atom (whose ground arguments act as selections) and returns them
// projected onto the query's free positions, in insertion order. It is used
// to read query answers out of an evaluated store.
func Answers(store *database.Store, predKey string, query ast.Atom) []database.Tuple {
	rd := store.Table().Reader()
	var out []database.Tuple
	for _, row := range AnswerRows(store, predKey, query, 0) {
		out = append(out, database.AppendTerms(make(database.Tuple, 0, len(row)), &rd, row))
	}
	return out
}

// AnswerRows is Answers at the ID level: the matching tuples are returned as
// rows of interned IDs projected onto the query's free positions, without
// materializing any terms. The rows are copies, so they stay valid whatever
// happens to the relation later (the facade builds its typed values directly
// from these IDs, and the store's symbol table is append-only). limit > 0
// caps the number of rows returned.
func AnswerRows(store *database.Store, predKey string, query ast.Atom, limit int) [][]intern.ID {
	rel, cur, freePos := answerSelection(store, predKey, query)
	if rel == nil {
		return nil
	}
	out := [][]intern.ID{}
	for pos := cur.Next(); pos >= 0 && (limit <= 0 || len(out) < limit); pos = cur.Next() {
		row := rel.Row(pos)
		proj := make([]intern.ID, len(freePos))
		for j, p := range freePos {
			proj[j] = row[p]
		}
		out = append(out, proj)
	}
	return out
}

// CountAnswers returns the number of stored tuples matching the query atom,
// without materializing or projecting anything. It is the predicate the
// facade's first-N early termination evaluates between fixpoint rounds.
func CountAnswers(store *database.Store, predKey string, query ast.Atom) int {
	_, cur, _ := answerSelection(store, predKey, query)
	n := 0
	for cur.Next() >= 0 {
		n++
	}
	return n
}

// AnswerSet returns the answers as a set of canonical tuple keys, for
// order-independent comparison between strategies in tests and experiments.
func AnswerSet(store *database.Store, predKey string, query ast.Atom) map[string]bool {
	set := make(map[string]bool)
	for _, t := range Answers(store, predKey, query) {
		set[t.Key()] = true
	}
	return set
}
