// The semi-naive component loop (runComponent) and its two callers: runInline
// runs the SCC plan of a prepared program on the calling goroutine, runPool
// runs it on a bounded worker pool at two levels of concurrency.
//
// Level 1 (inter-component): a ready-set scheduler over the plan's
// dependency edges (depgraph.Plan.Deps/Dependents) runs every component
// whose dependency components have completed. Stratification is what makes
// this sound with no insert locking at all: components own disjoint derived
// relations (every relation is pre-created by newContext, so the overlay's
// relation map is never written during evaluation), a component's rules read
// only its own relations, relations of completed components, and the frozen
// base — so no relation is ever read and written by different goroutines at
// the same time.
//
// Level 2 (intra-round): a large delta round of a recursive component is
// hash-partitioned across K shards. Each shard scatters its slice of the
// delta (Relation.ScatterShard on the full-row hash), fires the component's
// delta rules through the compiled pipelines with a private evalContext, and
// collects derived rows into a private out store, pre-filtered against the
// frozen main relation (Relation.ContainsRow — duplicate suppression, which
// dominates the late rounds of a transitive closure, thus runs inside the
// parallel phase). The round barrier then serially merges the out shards
// into the main store (Relation.MergeFrom, copying row IDs), and the next
// partitioned round scatters directly from this round's out shards — the
// serial section is exactly the merge. Deferring the main-store insert to
// the barrier changes in-round visibility (a fact derived early in a round
// is not seen by later probes of the same round, only from the next round
// on), which can shift on which round a given derivation happens but not
// the fixpoint: the semi-naive invariant delta ⊆ main is maintained by the
// merge itself, so no derivation is lost, and rounds continue while the
// merge adds rows. Small rounds (below partitionThreshold) run inline, as
// every round does at Parallelism 1, so small evaluations report the same
// statistics at every Parallelism.
package eval

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/database"
	"repro/internal/depgraph"
)

// partitionThreshold is the minimum number of delta rows in a recursive
// round before the round is hash-partitioned across shards. Below it the
// round runs inline: scatter/merge overhead would dominate, and an inline
// round's statistics (Iterations, DeltaRuleEvals, insert order of derived
// relations) are those of a Parallelism=1 run.
const partitionThreshold = 256

// errStopParallel is the internal sentinel a worker returns when it observed
// the run's cooperative stop flag (set by StopEarly, an error, or
// cancellation elsewhere). It never escapes the evaluator: the pool filters
// it to nil, and the run's first real error (or nil) is what callers see.
var errStopParallel = errors.New("eval: parallel evaluation stopped")

// parRun is the shared state of one semi-naive evaluation. runInline uses
// only root, plan, p (1) and the stop flag; the rest serves runPool.
type parRun struct {
	root *evalContext
	plan *depgraph.Plan
	p    int // worker count (shard count for partitioned rounds)

	// Global limit counters: workers flush their local Derivations/NewFacts
	// deltas here every ctxCheckInterval firings and at round barriers, so
	// MaxDerivations/MaxFacts are enforced across workers with a bounded
	// overshoot.
	derivations atomic.Int64
	facts       atomic.Int64
	// stop asks every worker to unwind at its next check point (round
	// boundary, derivation tick, or component pickup).
	stop atomic.Bool

	mu        sync.Mutex
	ready     chan int // buffered to len(Components); senders never block
	closed    bool
	indeg     []int
	remaining int
	err       error // first real error, surfaced by runPool
	// owner is the component defining Options.StopEarlyPred (-1 if none —
	// then the probed predicate is frozen and anyone may consult StopEarly).
	// ownerDone flips when the owner completes; from then on the predicate
	// is frozen and any worker may consult the callback.
	owner     int
	ownerDone bool
}

// tick flushes the context's local counters to the global limit atomics,
// enforces the global limits, and observes the stop flag. Called from
// derivationTick (every ctxCheckInterval firings) and at round barriers.
func (pr *parRun) tick(ctx *evalContext) error {
	if d := ctx.stats.Derivations - ctx.flushedDerivations; d > 0 {
		pr.derivations.Add(d)
		ctx.flushedDerivations = ctx.stats.Derivations
	}
	if f := ctx.stats.NewFacts - ctx.flushedFacts; f > 0 {
		pr.facts.Add(int64(f))
		ctx.flushedFacts = ctx.stats.NewFacts
	}
	if max := ctx.opts.MaxDerivations; max > 0 && pr.derivations.Load() > max {
		return fmt.Errorf("%w: more than %d derivations", ErrLimitExceeded, max)
	}
	if max := ctx.opts.MaxFacts; max > 0 && pr.facts.Load() > int64(max) {
		return fmt.Errorf("%w: more than %d facts", ErrLimitExceeded, max)
	}
	if pr.stop.Load() {
		return errStopParallel
	}
	return nil
}

// stopSafe reports whether the given component may consult StopEarly: the
// probed predicate's relation must not be concurrently written, which holds
// for the owning component at its own round boundaries, for everyone once
// the owner has completed, and always when no component owns the predicate
// (a frozen base relation).
func (pr *parRun) stopSafe(ci int) bool {
	if pr.owner < 0 || ci == pr.owner {
		return true
	}
	pr.mu.Lock()
	done := pr.ownerDone
	pr.mu.Unlock()
	return done
}

// complete retires a component: on success its dependents' indegrees drop
// and newly ready components are enqueued; on error (or when the stop flag
// is up) the queue closes instead, and workers drain whatever is already
// buffered through their fast stop checks.
func (pr *parRun) complete(ci int, err error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.remaining--
	if err != nil {
		if pr.err == nil {
			pr.err = err
		}
		pr.stop.Store(true)
	}
	if ci == pr.owner {
		pr.ownerDone = true
	}
	if pr.stop.Load() {
		pr.closeReady()
		return
	}
	for _, di := range pr.plan.Dependents[ci] {
		pr.indeg[di]--
		if pr.indeg[di] == 0 && !pr.closed {
			pr.ready <- di
		}
	}
	if pr.remaining == 0 {
		pr.closeReady()
	}
}

// closeReady closes the ready channel exactly once. Caller holds pr.mu.
func (pr *parRun) closeReady() {
	if !pr.closed {
		pr.closed = true
		close(pr.ready)
	}
}

// collect folds a retiring worker's statistics into the root context.
// Serialized by pr.mu, so the unsynchronized per-worker Stats are only ever
// touched by one goroutine at a time.
func (pr *parRun) collect(wk *parWorker) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.root.stats.merge(wk.ctx.stats)
	for _, sc := range wk.shardCtxs {
		pr.root.stats.merge(sc.stats)
	}
}

// parWorker is what runs components: an evalContext (the root's own for
// runInline, a fork per pool worker) plus the two reusable delta stores of
// inline rounds and, allocated on first use, the shard machinery of
// partitioned rounds.
type parWorker struct {
	pr          *parRun
	ctx         *evalContext
	delta, next *database.Store

	// Shard machinery, lazily allocated by ensureShards: per-shard input
	// stores, per-shard evalContexts (private pipeline scratch and Stats),
	// and two banks of per-shard output stores. Banks alternate between
	// rounds because round R+1 scatters straight from round R's outputs: the
	// bank being read must not be the bank being refilled.
	shardIn   []*database.Store
	shardCtxs []*evalContext
	outBank   [2][]*database.Store
	bank      int
}

// newWorker allocates the two delta stores once; they are cleared and
// refilled across every round of every component the worker runs: delta holds
// the facts driving the current round, next collects the facts it derives,
// and the two swap roles at the end of the round. They share the main store's
// symbol table so compiled pipelines can move raw ID rows between them.
func (pr *parRun) newWorker(ctx *evalContext) *parWorker {
	tab := ctx.store.Table()
	return &parWorker{
		pr:    pr,
		ctx:   ctx,
		delta: database.NewStoreWith(tab),
		next:  database.NewStoreWith(tab),
	}
}

func (wk *parWorker) ensureShards(k int) {
	if len(wk.shardIn) == k {
		return
	}
	tab := wk.ctx.store.Table()
	wk.shardIn = make([]*database.Store, k)
	wk.shardCtxs = make([]*evalContext, k)
	wk.outBank[0] = make([]*database.Store, k)
	wk.outBank[1] = make([]*database.Store, k)
	for w := 0; w < k; w++ {
		wk.shardIn[w] = database.NewStoreWith(tab)
		wk.outBank[0][w] = database.NewStoreWith(tab)
		wk.outBank[1][w] = database.NewStoreWith(tab)
		wk.shardCtxs[w] = wk.ctx.fork(wk.pr)
	}
}

// runComponent evaluates one component to fixpoint. It is the only
// semi-naive loop: a first pass fires the component's rules against the full
// store (base facts, seeds, and everything earlier components derived), and a
// recursive component then iterates, firing each rule once per body
// occurrence of a same-component predicate with that occurrence restricted to
// the previous round's delta (every other predicate is complete). A round
// whose delta holds at least partitionThreshold rows goes to partitionedRound
// when more than one worker is configured; every other round runs inline.
func (wk *parWorker) runComponent(ci int) error {
	pr := wk.pr
	ctx := wk.ctx
	comp := &pr.plan.Components[ci]
	if err := ctx.ctxErr(); err != nil {
		return err
	}
	if pr.stop.Load() {
		return errStopParallel
	}
	if pr.stopSafe(ci) && ctx.stopRequested() {
		pr.stop.Store(true)
		return nil
	}
	// rounds counts this component's passes; MaxIterations bounds it per
	// component so the limit means "how long may a fixpoint loop run" rather
	// than scaling with the number of strata. The first pass can never trip
	// it (any positive bound admits one round), so only the delta loop checks.
	rounds := 1
	ctx.stats.Iterations++
	wk.delta.Reset()
	for _, ri := range comp.Rules {
		if err := ctx.fireRule(ri, -1, nil, wk.delta); err != nil {
			return err
		}
	}
	if err := pr.tick(ctx); err != nil {
		return err
	}
	if !comp.Recursive {
		return nil
	}

	// The current delta is in wk.delta after an inline round, and in shards
	// (non-nil) after a partitioned one: the K out stores, whose union is
	// exactly the set of rows the barrier added to the main store.
	var shards []*database.Store
	total := wk.delta.TotalFacts()
	for total > 0 {
		if err := ctx.ctxErr(); err != nil {
			return err
		}
		if pr.stop.Load() {
			return errStopParallel
		}
		if pr.stopSafe(ci) && ctx.stopRequested() {
			pr.stop.Store(true)
			return nil
		}
		rounds++
		ctx.stats.Iterations++
		if max := ctx.opts.MaxIterations; max > 0 && rounds > max {
			return fmt.Errorf("%w: more than %d iterations", ErrLimitExceeded, max)
		}
		if pr.p > 1 && total >= partitionThreshold {
			if shards == nil {
				shards = []*database.Store{wk.delta}
			}
			var err error
			if shards, total, err = wk.partitionedRound(comp, shards); err != nil {
				return err
			}
			continue
		}
		if shards != nil {
			// Back to an inline round: fold the out shards into the single
			// delta store.
			wk.delta.Reset()
			if err := foldInto(wk.delta, shards); err != nil {
				return err
			}
			shards = nil
		}
		wk.next.Reset()
		for _, ri := range comp.Rules {
			r := ctx.prep.program.Rules[ri]
			for _, pos := range comp.DeltaPositions[ri] {
				if wk.delta.FactCount(r.Body[pos].PredKey()) == 0 {
					ctx.stats.SkippedRuleEvals++
					continue
				}
				ctx.stats.DeltaRuleEvals++
				if err := ctx.fireRule(ri, pos, wk.delta, wk.next); err != nil {
					return err
				}
			}
		}
		wk.delta, wk.next = wk.next, wk.delta
		total = wk.delta.TotalFacts()
	}
	return nil
}

// partitionedRound runs one hash-partitioned delta round: K concurrent
// shards scatter + fire into private out stores, then the barrier merges the
// out shards into the main store. It returns the out shards (the next
// round's delta sources) and the number of rows the merge added.
func (wk *parWorker) partitionedRound(comp *depgraph.Component, srcs []*database.Store) ([]*database.Store, int, error) {
	pr := wk.pr
	ctx := wk.ctx
	k := pr.p
	wk.ensureShards(k)
	outs := wk.outBank[wk.bank]
	wk.bank = 1 - wk.bank

	var wg sync.WaitGroup
	errs := make([]error, k)
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = wk.runShard(comp, srcs, w, k, outs[w])
		}(w)
	}
	wg.Wait()
	var err error
	for _, e := range errs {
		if e != nil && !errors.Is(e, errStopParallel) {
			err = e
			break
		}
	}
	if err == nil {
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
	}
	if err != nil {
		return nil, 0, err
	}

	added := 0
	for _, out := range outs {
		for _, name := range out.Names() {
			rel := out.Existing(name)
			if rel == nil || rel.Len() == 0 {
				continue
			}
			main, merr := ctx.store.Relation(name, rel.Arity)
			if merr != nil {
				return nil, 0, fmt.Errorf("eval: %w", merr)
			}
			added += main.MergeFrom(rel)
		}
	}
	ctx.stats.NewFacts += added
	if err := ctx.checkFactLimit(); err != nil {
		return nil, 0, err
	}
	if err := pr.tick(ctx); err != nil {
		return nil, 0, err
	}
	return outs, added, nil
}

// runShard is one shard of a partitioned round: gather this shard's slice of
// the delta from the source stores, then fire every delta rule variant of
// the component against it, collecting fresh rows (not yet in the frozen
// main store) into the private out store.
func (wk *parWorker) runShard(comp *depgraph.Component, srcs []*database.Store, w, k int, out *database.Store) error {
	sc := wk.shardCtxs[w]
	in := wk.shardIn[w]
	in.Reset()
	out.Reset()
	for _, src := range srcs {
		for _, name := range src.Names() {
			rel := src.Existing(name)
			if rel == nil || rel.Len() == 0 {
				continue
			}
			dst, err := in.Relation(name, rel.Arity)
			if err != nil {
				return fmt.Errorf("eval: %w", err)
			}
			rel.ScatterShard(dst, w, k)
		}
	}
	sc.stats.WorkerRounds++
	for _, ri := range comp.Rules {
		r := sc.prep.program.Rules[ri]
		for _, pos := range comp.DeltaPositions[ri] {
			if in.FactCount(r.Body[pos].PredKey()) == 0 {
				sc.stats.SkippedRuleEvals++
				continue
			}
			sc.stats.DeltaRuleEvals++
			if err := sc.fireRuleInto(ri, pos, in, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// foldInto merges every relation of the source stores into dst (used when a
// component's delta shrinks below the partition threshold and the next round
// runs inline again).
func foldInto(dst *database.Store, srcs []*database.Store) error {
	for _, src := range srcs {
		for _, name := range src.Names() {
			rel := src.Existing(name)
			if rel == nil || rel.Len() == 0 {
				continue
			}
			d, err := dst.Relation(name, rel.Arity)
			if err != nil {
				return fmt.Errorf("eval: %w", err)
			}
			d.MergeFrom(rel)
		}
	}
	return nil
}

// runInline runs every component in plan order (callees before callers) on
// the calling goroutine: no pool, no channel, no goroutine, and the root
// context counts directly, so there is nothing to merge. Only a StopEarly hit
// raises the stop flag here, and it ends the run.
func (pr *parRun) runInline() error {
	wk := pr.newWorker(pr.root)
	for ci := range pr.plan.Components {
		if err := wk.runComponent(ci); err != nil || pr.stop.Load() {
			return err
		}
	}
	return nil
}

// runPool schedules the components over min(p, components) workers, each
// running runComponent on whatever component is ready, and returns the run's
// first real error. It is only entered with p > 1 and a StopEarly
// configuration the owner rule can keep exact (see Options.StopEarlyPred).
func (pr *parRun) runPool() error {
	root, plan, opts := pr.root, pr.plan, pr.root.opts
	n := len(plan.Components)
	if n == 0 {
		return nil
	}
	root.stats.ParallelComponents = n
	pr.ready = make(chan int, n)
	pr.indeg = make([]int, n)
	pr.remaining = n
	if opts.StopEarly != nil {
		if ci, ok := plan.PredComponent[opts.StopEarlyPred]; ok {
			pr.owner = ci
		}
	}
	for ci := range plan.Components {
		pr.indeg[ci] = len(plan.Deps[ci])
		if pr.indeg[ci] == 0 {
			pr.ready <- ci
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < min(pr.p, n); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := pr.newWorker(root.fork(pr))
			for ci := range pr.ready {
				err := wk.runComponent(ci)
				if errors.Is(err, errStopParallel) {
					err = nil
				}
				pr.complete(ci, err)
			}
			pr.collect(wk)
		}()
	}
	wg.Wait()

	// Final global limit check: per-worker counters below the limit can sum
	// above it without any tick having observed the total (the flush
	// granularity is ctxCheckInterval). The merged root stats hold the
	// exact totals, so enforce the limits once more before reporting
	// success — this keeps "errors if and only if the work exceeded the
	// limit" true at every Parallelism.
	if pr.err != nil || root.stats.StoppedEarly {
		return pr.err
	}
	if limit := opts.MaxDerivations; limit > 0 && root.stats.Derivations > limit {
		return fmt.Errorf("%w: more than %d derivations", ErrLimitExceeded, limit)
	}
	if limit := opts.MaxFacts; limit > 0 && root.stats.NewFacts > limit {
		return fmt.Errorf("%w: more than %d facts", ErrLimitExceeded, limit)
	}
	return nil
}
