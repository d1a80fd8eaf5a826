package main

// durable_ingest, end to end: datalogd -data-dir … -fsync always with
// automatic checkpoints. Phase bulk loads 10,000-fact transactions over one
// connection, phase small commits 8-fact transactions over two, then the
// server is SIGKILLed and restarted on the same directory. Op counts are
// fixed per second of -seconds, so the final state — and with it the WAL
// bytes per fact — is a function of the seed and -seconds alone. Every
// acknowledgement was fsynced, so what SIGKILL leaves on disk must contain
// every acked commit; power loss is `make crashtest`'s business.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"
)

func runDurableIngest(e *env) (*runResult, error) {
	res := &runResult{Workload: "durable_ingest"}
	chk := &checker{}
	bulkTxns, smallPerConn := ingestCounts(e)
	rng := rand.New(rand.NewSource(e.seed))
	plan := newIngestPlan(rng, bulkTxns, smallPerConn)

	dir := filepath.Join(e.outDir, fmt.Sprintf("%s-data-%d", res.Workload, os.Getpid()))
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	cfg := daemonConfig{DataDir: dir, CheckpointEvery: e.sizes.CheckpointEvery}
	t, err := e.launch(cfg)
	if err != nil {
		return nil, err
	}
	crashed := false
	defer func() {
		if !crashed {
			t.crash()
		}
	}()

	// Phase bulk: one connection.
	c := newConn(t.url)
	defer c.close()
	var version uint64
	start := time.Now()
	bulk := summarize(timed(start, time.Time{}, len(plan.Bulk), func(i int) error {
		return commitOp(c, &plan.Bulk[i], &version)
	}, chk), e.sizes.MinBeyond)

	// Phase small: two connections, each with its own trees. Versions
	// interleave, so each connection only checks that its own go up.
	var (
		wg      sync.WaitGroup
		streams = make([][]sample, len(plan.Small))
	)
	start = time.Now()
	for j := range plan.Small {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			cj := newConn(t.url)
			defer cj.close()
			last := version
			streams[j] = timed(start, time.Time{}, len(plan.Small[j]), func(i int) error {
				return commitOp(cj, &plan.Small[j][i], &last)
			}, chk)
		}(j)
	}
	wg.Wait()
	var smallSamples []sample
	for _, s := range streams {
		smallSamples = append(smallSamples, s...)
	}
	small := summarize(smallSamples, e.sizes.MinBeyond)

	commits := uint64(bulkTxns + ingestConns*smallPerConn)
	facts := len(plan.Forest.Edges[:bulkTxns*bulkFacts+ingestConns*smallPerConn*smallFacts])
	st, err := waitCheckpoints(c, commits, uint64(e.sizes.CheckpointEvery))
	if err != nil {
		return nil, err
	}
	if st.Database.Version != commits || st.Database.TotalFacts != facts {
		chk.fail("before the kill: %d facts at version %d, acked %d at %d",
			st.Database.TotalFacts, st.Database.Version, facts, commits)
	}
	rss, err := t.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := checkRejected(c, chk); err != nil {
		return nil, err
	}
	t.crash()
	crashed = true

	// Recovery, several times over the same directory: nothing commits in
	// between, so every restart replays the same checkpoint and log suffix.
	var recoveries []float64
	for k := 0; k < e.sizes.Setups; k++ {
		start := time.Now()
		rt, err := e.launch(cfg)
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", k, err)
		}
		rc := newConn(rt.url)
		rst, err := rc.stats()
		if err != nil {
			rc.close()
			rt.crash()
			return nil, fmt.Errorf("restart %d: %w", k, err)
		}
		recoveries = append(recoveries, time.Since(start).Seconds())
		if rst.Database.Version != commits || rst.Database.TotalFacts != facts {
			chk.fail("restart %d: recovered %d facts at version %d, acked %d at %d",
				k, rst.Database.TotalFacts, rst.Database.Version, facts, commits)
		} else {
			chk.ok()
		}
		if k == e.sizes.Setups-1 {
			err = checkRecoveredReads(rc, rng, plan, facts, e.sizes.RecoverySamples, chk)
		}
		rc.close()
		rt.crash()
		if err != nil {
			return nil, err
		}
	}

	d := st.Durability
	res.Metrics = append(res.Metrics,
		gated("recovery_s", slotSetup, median(recoveries), "s", len(recoveries), spread(recoveries)),
		metric{Name: "boot_empty_s", Value: t.boot.Seconds(), Unit: "s", N: 1, Better: "lower"})
	res.Metrics = append(res.Metrics, commitMetrics(small, smallFacts, true)...)
	res.Metrics = append(res.Metrics,
		gated("bulk_txn_p50_ms", slotSideP50, bulk.P50, "ms", bulk.N, bulk.SpreadP50),
		gated("bulk_txns_per_s", slotSidePS, bulk.PerSec, "1/s", bulk.N, bulk.SpreadPerSec),
		metric{Name: "bulk_facts_per_s", Value: bulk.PerSec * bulkFacts, Unit: "1/s", N: bulk.N,
			Spread: bulk.SpreadPerSec, Better: "higher"},
		metric{Name: "wal_bytes_per_fact", Value: float64(d.BytesAppended) / float64(facts), Unit: "B",
			N: facts, Better: "lower", Exact: true},
		metric{Name: "wal_fsyncs_per_commit", Value: float64(d.Fsyncs) / float64(d.RecordsAppended), Unit: "ratio",
			N: int(d.RecordsAppended), Better: "lower"},
		gated("server_rss_mb", slotRSS, rss, "MB", 1, 0))
	chk.into(res)
	return res, nil
}

// waitCheckpoints polls /v1/stats until the background checkpoints have
// caught up with the commits and gone quiet, so that the kill never lands
// inside one and recovery starts from the newest generation. A checkpoint is
// due whenever the version is every or more past the last one, so they have
// caught up once the last one is within every of the final version; and
// since the server may still run one more that was signalled meanwhile, the
// frontier must also have stood still for a while.
func waitCheckpoints(c *conn, commits, every uint64) (*statsReply, error) {
	const quiet = 300 * time.Millisecond
	deadline := time.Now().Add(60 * time.Second)
	var (
		last  uint64
		since time.Time
	)
	for {
		st, err := c.stats()
		if err != nil {
			return nil, err
		}
		d := st.Durability
		if d == nil {
			return nil, fmt.Errorf("server reports no durability section")
		}
		if d.LastCheckpointError != "" {
			return nil, fmt.Errorf("background checkpoint failed: %s", d.LastCheckpointError)
		}
		if d.LastCheckpointVersion != last || since.IsZero() {
			last, since = d.LastCheckpointVersion, time.Now()
		}
		if last+every > commits && time.Since(since) >= quiet {
			return st, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("checkpoint at version %d of %d after 60s", last, commits)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkRecoveredReads runs point reads on the recovered server and compares
// each with the oracle over the acked facts: roots and depth-1 nodes of
// sampled trees, the last — possibly partly ingested — tree among them.
func checkRecoveredReads(c *conn, rng *rand.Rand, plan *ingestPlan, facts, samples int, chk *checker) error {
	if err := c.loadProgram(servedProgram); err != nil {
		return err
	}
	prepared, err := c.prepare(mainQuery)
	if err != nil {
		return err
	}
	f := plan.Forest
	pt := perTree(f.Depth)
	perTreeEdges := pt - 1
	ingestedTrees := (facts + perTreeEdges - 1) / perTreeEdges
	for s := 0; s < samples; s++ {
		tree := rng.Intn(ingestedTrees)
		if s == 0 {
			tree = ingestedTrees - 1
		}
		// Edges were ingested tree by tree, so the acked facts of the
		// sampled tree are its slice of the acked prefix; a fact of another
		// tree cannot be reachable from it.
		own := f.Facts(tree*perTreeEdges, min((tree+1)*perTreeEdges, facts))
		key := int32(tree*pt + s%3) // root, left child, right child
		want := map[string][]string{f.Names[key]: graphOf("par", own).Reachable(f.Names[key])}
		chk.check(readOp(c, prepared, f, key, want, true, nil))
	}
	return nil
}
