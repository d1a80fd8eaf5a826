// Parallel semi-naive evaluation: the SCC plan of a prepared program is run
// by a bounded worker pool at two levels of concurrency.
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
// into the main store (Relation.MergeFrom, sharing row slices), and the next
// partitioned round scatters directly from this round's out shards — the
// serial section is exactly the merge. Deferring the main-store insert to
// the barrier changes in-round visibility (a fact derived early in a round
// is not seen by later probes of the same round, only from the next round
// on), which can shift on which round a given derivation happens but not
// the fixpoint: the semi-naive invariant delta ⊆ main is maintained by the
// merge itself, so no derivation is lost, and rounds continue while the
// merge adds rows. Small rounds (below partitionThreshold) run the exact
// sequential round code, so small evaluations report sequential-identical
// statistics.
package eval

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/depgraph"
)

// partitionThreshold is the minimum number of delta rows in a recursive
// round before the round is hash-partitioned across shards. Below it the
// exact sequential round code runs: scatter/merge overhead would dominate,
// and keeping small rounds on the sequential path keeps their statistics
// (Iterations, DeltaRuleEvals, insert order of derived relations) identical
// to a Parallelism=1 run.
const partitionThreshold = 256

// errStopParallel is the internal sentinel a worker returns when it observed
// the run's cooperative stop flag (set by StopEarly, an error, or
// cancellation elsewhere). It never escapes the evaluator: the pool filters
// it to nil, and the run's first real error (or nil) is what callers see.
var errStopParallel = errors.New("eval: parallel evaluation stopped")

// parRun is the shared state of one parallel evaluation.
type parRun struct {
	root *evalContext
	plan *depgraph.Plan
	p    int // configured parallelism (shard count for partitioned rounds)

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
	err       error // first real error, surfaced by evaluateParallel
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

// parWorker is one pool worker: a forked evalContext plus the reusable delta
// stores of the sequential round code and, allocated on first use, the shard
// machinery of partitioned rounds.
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

func (pr *parRun) newWorker() *parWorker {
	tab := pr.root.store.Table()
	return &parWorker{
		pr:    pr,
		ctx:   pr.root.fork(pr),
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

// runComponent evaluates one component to fixpoint, mirroring the sequential
// loop of EvaluateCtx (same first pass, same per-component MaxIterations
// meaning, same delta bookkeeping) with one addition: a recursive round
// whose delta holds at least partitionThreshold rows is dispatched to
// partitionedRound instead of running inline.
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
	rounds := 1
	ctx.stats.Iterations++
	wk.delta.Reset()
	for _, ri := range comp.Rules {
		if err := ctx.fireRule(ri, -1, nil, wk.delta, nil); err != nil {
			return err
		}
	}
	if err := pr.tick(ctx); err != nil {
		return err
	}
	if !comp.Recursive {
		return nil
	}

	// srcs holds the stores containing the current delta: the single
	// reusable delta store after a sequential round, or the K out shards
	// after a partitioned one (their union is exactly the set of rows the
	// barrier added to the main store). sharded tracks which shape it is.
	srcs := []*database.Store{wk.delta}
	total := wk.delta.TotalFacts()
	sharded := false
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
		if total >= partitionThreshold {
			outs, added, err := wk.partitionedRound(comp, srcs)
			if err != nil {
				return err
			}
			srcs, total, sharded = outs, added, true
			continue
		}
		if sharded {
			// Falling back to a sequential round: fold the out shards into
			// the single delta store.
			wk.delta.Reset()
			if err := foldInto(wk.delta, srcs); err != nil {
				return err
			}
			sharded = false
		}
		wk.next.Reset()
		for _, ri := range comp.Rules {
			r := ctx.program.Rules[ri]
			for _, pos := range comp.DeltaPositions[ri] {
				if wk.delta.FactCount(r.Body[pos].PredKey()) == 0 {
					ctx.stats.SkippedRuleEvals++
					continue
				}
				ctx.stats.DeltaRuleEvals++
				if err := ctx.fireRule(ri, pos, wk.delta, wk.next, nil); err != nil {
					return err
				}
			}
		}
		wk.delta, wk.next = wk.next, wk.delta
		srcs = []*database.Store{wk.delta}
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
		r := sc.program.Rules[ri]
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
// runs sequentially again).
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

// evaluateParallel is the parallel counterpart of the sequential loop in
// EvaluateCtx: the same per-component semantics, scheduled over a bounded
// worker pool. It is only entered with parallelism > 1 and a StopEarly
// configuration the owner rule can keep exact (see Options.StopEarlyPred).
func (pp *Prepared) evaluateParallel(c context.Context, edb *database.Store, seeds []ast.Atom, opts Options, p int) (*database.Store, *Stats, error) {
	root, err := newContext(c, pp, edb, seeds, opts, "semi-naive")
	if err != nil {
		return nil, nil, err
	}
	plan := pp.plan
	root.stats.Strata = plan.Strata()
	n := len(plan.Components)
	if n == 0 {
		return root.finish(nil)
	}
	root.stats.ParallelComponents = n

	pr := &parRun{
		root:      root,
		plan:      plan,
		p:         p,
		ready:     make(chan int, n),
		indeg:     make([]int, n),
		remaining: n,
		owner:     -1,
	}
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

	workers := p
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := pr.newWorker()
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
	// limit" aligned with the sequential evaluator.
	ferr := pr.err
	if ferr == nil && !root.stats.StoppedEarly {
		if max := opts.MaxDerivations; max > 0 && root.stats.Derivations > max {
			ferr = fmt.Errorf("%w: more than %d derivations", ErrLimitExceeded, max)
		}
		if max := opts.MaxFacts; ferr == nil && max > 0 && root.stats.NewFacts > max {
			ferr = fmt.Errorf("%w: more than %d facts", ErrLimitExceeded, max)
		}
	}
	return root.finish(ferr)
}
