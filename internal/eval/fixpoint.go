// The semi-naive fixpoint driver: fixpoint.run evaluates the SCC plan of a
// prepared program one component at a time, in plan order (callees before
// callers), on the calling goroutine, and runComponent is the one semi-naive
// loop every component goes through.
//
// Concurrency enters at one place only: a large delta round of a recursive
// component is hash-partitioned across K shards (Ganguly, Silberschatz &
// Tsur, SIGMOD 1990). Each shard scatters its slice of the delta
// (Relation.ScatterShard on the full-row hash), fires the component's delta
// rules through the compiled pipelines with a private evalContext, and
// collects derived rows into a private out store, pre-filtered against the
// frozen main relation (Relation.ContainsRow — duplicate suppression, which
// dominates the late rounds of a transitive closure, thus runs inside the
// parallel phase). The round barrier joins the shards and then serially
// merges the out shards into the main store (Relation.MergeFrom, copying row
// IDs), and the next partitioned round scatters directly from this round's
// out shards — the serial section is exactly the merge. Deferring the
// main-store insert to the barrier changes in-round visibility (a fact
// derived early in a round is not seen by later probes of the same round,
// only from the next round on), which can shift on which round a given
// derivation happens but not the fixpoint: the semi-naive invariant
// delta ⊆ main is maintained by the merge itself, so no derivation is lost,
// and rounds continue while the merge adds rows. Small rounds (below
// partitionThreshold) run inline, as every round does at Parallelism 1, so
// small evaluations report the same statistics at every Parallelism.
//
// The shards are the only goroutines an evaluation starts, and no goroutine
// outlives its round: StopEarly, cancellation and the limits are checked
// between rounds against a store nothing else is writing.
package eval

import (
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

// fixpoint is the state of one semi-naive evaluation: the root evalContext
// that runs every component, the two reusable delta stores of inline rounds
// and, allocated on first use, the shard machinery of partitioned rounds.
type fixpoint struct {
	ctx  *evalContext
	plan *depgraph.Plan
	p    int // shard count of partitioned rounds

	// derivations is the global MaxDerivations counter: shard contexts flush
	// their local Derivations here every ctxCheckInterval firings, and the
	// root context at round barriers, so the limit is enforced across shards
	// with a bounded overshoot. MaxFacts needs no such counter: only the root
	// counts NewFacts (a shard's rows are counted when the barrier merges
	// them), so the root's own check is exact.
	derivations atomic.Int64

	// delta holds the facts driving the current inline round, next collects
	// the facts it derives, and the two swap roles at the end of the round.
	// They share the main store's symbol table so compiled pipelines can move
	// raw ID rows between them.
	delta, next *database.Store

	// Shard machinery, allocated by ensureShards: per-shard input stores,
	// per-shard evalContexts (private pipeline scratch and Stats), and two
	// banks of per-shard output stores. Banks alternate between rounds
	// because round R+1 scatters straight from round R's outputs: the bank
	// being read must not be the bank being refilled.
	shardIn   []*database.Store
	shardCtxs []*evalContext
	outBank   [2][]*database.Store
	bank      int
}

func newFixpoint(ctx *evalContext, plan *depgraph.Plan, p int) *fixpoint {
	tab := ctx.store.Table()
	return &fixpoint{
		ctx:   ctx,
		plan:  plan,
		p:     p,
		delta: database.NewStoreWith(tab),
		next:  database.NewStoreWith(tab),
	}
}

// run evaluates every component in plan order until the last completes, an
// error occurs or StopEarly truncates the evaluation. The shard contexts'
// statistics are then folded into the root's, and MaxDerivations is checked
// once more against that exact total: shard counters below the limit can sum
// above it without any tick having observed the total (the flush granularity
// is ctxCheckInterval), and the final check keeps "errors if and only if the
// work exceeded the limit" true at every Parallelism.
func (fp *fixpoint) run() error {
	var err error
	for ci := range fp.plan.Components {
		var stopped bool
		if stopped, err = fp.runComponent(ci); err != nil || stopped {
			break
		}
	}
	stats, opts := fp.ctx.stats, fp.ctx.opts
	for _, sc := range fp.shardCtxs {
		stats.merge(sc.stats)
	}
	if err != nil || stats.StoppedEarly {
		return err
	}
	if limit := opts.MaxDerivations; limit > 0 && stats.Derivations > limit {
		return fmt.Errorf("%w: more than %d derivations", ErrLimitExceeded, limit)
	}
	return nil
}

// tick flushes the context's local Derivations to the global counter and
// enforces MaxDerivations against it. Called from a shard context's
// derivationTick (every ctxCheckInterval firings) and by the root at round
// barriers.
func (fp *fixpoint) tick(ctx *evalContext) error {
	if d := ctx.stats.Derivations - ctx.flushedDerivations; d > 0 {
		fp.derivations.Add(d)
		ctx.flushedDerivations = ctx.stats.Derivations
	}
	if max := ctx.opts.MaxDerivations; max > 0 && fp.derivations.Load() > max {
		return fmt.Errorf("%w: more than %d derivations", ErrLimitExceeded, max)
	}
	return nil
}

func (fp *fixpoint) ensureShards() {
	if fp.shardIn != nil {
		return
	}
	k, tab := fp.p, fp.ctx.store.Table()
	fp.shardIn = make([]*database.Store, k)
	fp.shardCtxs = make([]*evalContext, k)
	fp.outBank[0] = make([]*database.Store, k)
	fp.outBank[1] = make([]*database.Store, k)
	for w := 0; w < k; w++ {
		fp.shardIn[w] = database.NewStoreWith(tab)
		fp.outBank[0][w] = database.NewStoreWith(tab)
		fp.outBank[1][w] = database.NewStoreWith(tab)
		fp.shardCtxs[w] = fp.ctx.fork(fp)
	}
}

// runComponent evaluates one component to fixpoint. It is the only
// semi-naive loop: a first pass fires the component's rules against the full
// store (base facts, seeds, and everything earlier components derived), and a
// recursive component then iterates, firing each rule once per body
// occurrence of a same-component predicate with that occurrence restricted to
// the previous round's delta (every other predicate is complete). A round
// whose delta holds at least partitionThreshold rows goes to partitionedRound
// when more than one shard is configured; every other round runs inline.
// stopped reports that StopEarly truncated the evaluation.
func (fp *fixpoint) runComponent(ci int) (stopped bool, err error) {
	ctx := fp.ctx
	comp := &fp.plan.Components[ci]
	if err := ctx.ctxErr(); err != nil {
		return false, err
	}
	if ctx.stopRequested() {
		return true, nil
	}
	// rounds counts this component's passes; MaxIterations bounds it per
	// component so the limit means "how long may a fixpoint loop run" rather
	// than scaling with the number of strata. The first pass can never trip
	// it (any positive bound admits one round), so only the delta loop checks.
	rounds := 1
	ctx.stats.Iterations++
	fp.delta.Reset()
	for _, ri := range comp.Rules {
		if err := ctx.fireRule(ri, -1, nil, fp.delta); err != nil {
			return false, err
		}
	}
	if err := fp.tick(ctx); err != nil {
		return false, err
	}
	if !comp.Recursive {
		return false, nil
	}

	// The current delta is in fp.delta after an inline round, and in shards
	// (non-nil) after a partitioned one: the K out stores, whose union is
	// exactly the set of rows the barrier added to the main store.
	var shards []*database.Store
	total := fp.delta.TotalFacts()
	for total > 0 {
		if err := ctx.ctxErr(); err != nil {
			return false, err
		}
		if ctx.stopRequested() {
			return true, nil
		}
		rounds++
		ctx.stats.Iterations++
		if max := ctx.opts.MaxIterations; max > 0 && rounds > max {
			return false, fmt.Errorf("%w: more than %d iterations", ErrLimitExceeded, max)
		}
		if fp.p > 1 && total >= partitionThreshold {
			if shards == nil {
				shards = []*database.Store{fp.delta}
			}
			if shards, total, err = fp.partitionedRound(comp, shards); err != nil {
				return false, err
			}
			continue
		}
		if shards != nil {
			// Back to an inline round: fold the out shards into the single
			// delta store.
			fp.delta.Reset()
			if err := foldInto(fp.delta, shards); err != nil {
				return false, err
			}
			shards = nil
		}
		fp.next.Reset()
		for _, ri := range comp.Rules {
			r := ctx.prep.program.Rules[ri]
			for _, pos := range comp.DeltaPositions[ri] {
				if fp.delta.FactCount(r.Body[pos].PredKey()) == 0 {
					ctx.stats.SkippedRuleEvals++
					continue
				}
				ctx.stats.DeltaRuleEvals++
				if err := ctx.fireRule(ri, pos, fp.delta, fp.next); err != nil {
					return false, err
				}
			}
		}
		fp.delta, fp.next = fp.next, fp.delta
		total = fp.delta.TotalFacts()
	}
	return false, nil
}

// partitionedRound runs one hash-partitioned delta round: K concurrent
// shards scatter + fire into private out stores, then the barrier joins them
// and merges the out shards into the main store. It returns the out shards
// (the next round's delta sources) and the number of rows the merge added.
func (fp *fixpoint) partitionedRound(comp *depgraph.Component, srcs []*database.Store) ([]*database.Store, int, error) {
	ctx := fp.ctx
	k := fp.p
	fp.ensureShards()
	outs := fp.outBank[fp.bank]
	fp.bank = 1 - fp.bank

	var wg sync.WaitGroup
	errs := make([]error, k)
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fp.runShard(comp, srcs, w, k, outs[w])
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}

	added := 0
	for _, out := range outs {
		for _, name := range out.Names() {
			rel := out.Existing(name)
			if rel == nil || rel.Len() == 0 {
				continue
			}
			main, err := ctx.store.Relation(name, rel.Arity)
			if err != nil {
				return nil, 0, fmt.Errorf("eval: %w", err)
			}
			added += main.MergeFrom(rel)
		}
	}
	ctx.stats.NewFacts += added
	if err := ctx.checkFactLimit(); err != nil {
		return nil, 0, err
	}
	if err := fp.tick(ctx); err != nil {
		return nil, 0, err
	}
	return outs, added, nil
}

// runShard is one shard of a partitioned round: gather this shard's slice of
// the delta from the source stores, then fire every delta rule variant of
// the component against it, collecting fresh rows (not yet in the frozen
// main store) into the private out store.
func (fp *fixpoint) runShard(comp *depgraph.Component, srcs []*database.Store, w, k int, out *database.Store) error {
	sc := fp.shardCtxs[w]
	in := fp.shardIn[w]
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
