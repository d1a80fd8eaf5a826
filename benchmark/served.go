package main

// The served workloads, end to end: read_point, mixed_rw and durable_ingest
// against a datalogd, driven closed-loop over loopback HTTP. Each generator
// goroutine owns one connection and sends its next request only after it
// has read and checked the reply: these are application callers waiting for
// their answers, not independent arrivals. Never more than two goroutines:
// the box this is sized for has two cores, and the server needs one.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// env is what every workload gets from the command line.
type env struct {
	outDir  string
	launch  launcher
	seed    int64
	seconds float64
	sizes   sizes
}

// sizes are the knobs -smoke turns down; every real run uses fullSizes.
type sizes struct {
	ForestTrees  int
	ControlTrees int
	Setups       int // set-ups per run, the median is reported
	Warmup       int // checked ops per stream before timing starts
	Suite        suiteSizes
	// durable_ingest does a fixed amount of work per second of -seconds, so
	// its final state is a function of the seed and -seconds alone.
	BulkTxnsPerSec  float64
	SmallPerSec     float64 // per connection
	CheckpointEvery int
	RecoverySamples int // point reads checked after recovery
	TracedOps       int // ops the traced run replays
	ProbeReps       int // repetitions of each front-end probe
	MinBeyond       int // samples that must lie beyond a tail percentile
}

var fullSizes = sizes{
	ForestTrees: forestTrees, ControlTrees: controlTrees, Setups: 5, Warmup: 50,
	Suite:          fullSuite,
	BulkTxnsPerSec: 1.5, SmallPerSec: 750, CheckpointEvery: 6000, RecoverySamples: 12,
	TracedOps: 2000, ProbeReps: 200, MinBeyond: minBeyond,
}

var smokeSizes = sizes{
	ForestTrees: 4, ControlTrees: 1, Setups: 2, Warmup: 5,
	Suite:          smokeSuite,
	BulkTxnsPerSec: 10, SmallPerSec: 200, CheckpointEvery: 20, RecoverySamples: 4,
	TracedOps: 40, ProbeReps: 3,
}

// fullCheckEvery: every reply is checked for status and answer count, one
// in this many for set equality with the oracle.
const fullCheckEvery = 32

// forestInputs are the generated inputs of read_point and mixed_rw.
type forestInputs struct {
	forest, control *Forest
	keys, ckeys     []int32 // read keys, in send order
	writes          []Op    // mixed_rw writer stream, one lap of its cycle
	want            map[string][]string
}

// newForestInputs derives the inputs from the seed. Upper bounds on the op
// counts come from rates no server here reaches; a stream that does run out
// wraps around.
func newForestInputs(e *env) *forestInputs {
	rng := rand.New(rand.NewSource(e.seed))
	in := &forestInputs{
		forest:  NewForest(rng, "par", "n", 5, e.sizes.ForestTrees, forestDepth, true),
		control: NewForest(rng, "cpar", "c", 5, e.sizes.ControlTrees, forestDepth, true),
		want:    map[string][]string{},
	}
	n := int(e.seconds*1000) + e.sizes.Warmup + 1
	in.keys = readKeys(rng, in.forest.Depth1(), n)
	in.ckeys = readKeys(rng, in.control.Depth1(), 4*n)
	in.writes = scratchOps(rng)
	for _, f := range []*Forest{in.forest, in.control} {
		g := graphOf(f.Pred, f.Facts(0, len(f.Edges)))
		for _, k := range f.Depth1() {
			in.want[f.Names[k]] = g.Reachable(f.Names[k])
		}
	}
	return in
}

// handles are the prepared statements of one set-up.
type handles struct{ main, control string }

// forestServer is a server set up for the forest workloads, with the
// connection that set it up.
type forestServer struct {
	t *target
	c *conn
	h handles
	// setups are the seconds each set-up took; dirs the data directories
	// they used.
	setups []float64
	dirs   []string
}

// close stops the server and removes the data directories.
func (s *forestServer) close() {
	if s.t != nil {
		s.c.close()
		s.t.crash()
	}
	for _, d := range s.dirs {
		os.RemoveAll(d)
	}
}

// setup boots a server and brings it to the state both forest workloads
// start from: program loaded, both forests committed, both query forms
// prepared, both streams warmed up with checked reads.
func (s *forestServer) setup(e *env, cfg daemonConfig, in *forestInputs, chk *checker) error {
	var err error
	if s.t, err = e.launch(cfg); err != nil {
		return err
	}
	s.c = newConn(s.t.url)
	if err := s.c.loadProgram(servedProgram); err != nil {
		return err
	}
	for _, f := range []*Forest{in.forest, in.control} {
		facts := f.Facts(0, len(f.Edges))
		var reply txnReply
		if err := s.c.postJSON("/v1/txn", txnBody(facts, nil), &reply); err != nil {
			return err
		}
		if reply.Asserts != len(facts) {
			return fmt.Errorf("seeding %s: %d asserts acknowledged, sent %d", f.Pred, reply.Asserts, len(facts))
		}
	}
	if s.h.main, err = s.c.prepare(mainQuery); err != nil {
		return err
	}
	if s.h.control, err = s.c.prepare(controlQuery); err != nil {
		return err
	}
	for i := 0; i < e.sizes.Warmup; i++ {
		chk.check(readOp(s.c, s.h.main, in.forest, in.keys[i], in.want, true, nil))
		chk.check(readOp(s.c, s.h.control, in.control, in.ckeys[i], in.want, true, nil))
	}
	return nil
}

// newForestServer runs the set-up Setups times, each on a fresh server (and
// data directory, when durable), and keeps the last; the set-up time
// reported is the median, so one slow exec does not decide it.
func newForestServer(e *env, name string, durable bool, in *forestInputs, chk *checker) (*forestServer, error) {
	s := &forestServer{}
	for k := 0; k < e.sizes.Setups; k++ {
		if s.t != nil {
			s.c.close()
			s.t.crash()
			s.t = nil
		}
		cfg := daemonConfig{}
		if durable {
			dir := filepath.Join(e.outDir, fmt.Sprintf("%s-data-%d-%d", name, os.Getpid(), k))
			os.RemoveAll(dir)
			s.dirs = append(s.dirs, dir)
			cfg = daemonConfig{DataDir: dir, CheckpointEvery: e.sizes.CheckpointEvery}
		}
		start := time.Now()
		if err := s.setup(e, cfg, in, chk); err != nil {
			s.close()
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		s.setups = append(s.setups, time.Since(start).Seconds())
	}
	return s, nil
}

// readOp sends one prepared point read and checks the reply: status and
// answer count always, set equality with the oracle when full. lastVersion,
// when non-nil, also checks that snapshot versions never go backwards on
// this connection.
func readOp(c *conn, prepared string, f *Forest, key int32, want map[string][]string, full bool, lastVersion *uint64) error {
	name := f.Names[key]
	status, reply, err := c.post("/v1/query", queryBody(prepared, name))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("read %s: status %d: %s", name, status, reply)
	}
	var qr queryReply
	if err := json.Unmarshal(reply, &qr); err != nil {
		return fmt.Errorf("read %s: %w", name, err)
	}
	if len(qr.Results) != 1 || len(qr.Results[0].Answers) != len(want[name]) {
		return fmt.Errorf("read %s: %d results, want 1 with %d answers", name, len(qr.Results), len(want[name]))
	}
	if lastVersion != nil {
		if qr.Version < *lastVersion {
			return fmt.Errorf("read %s: version went back from %d to %d", name, *lastVersion, qr.Version)
		}
		*lastVersion = qr.Version
	}
	if full {
		got := make([]string, 0, len(qr.Results[0].Answers))
		for _, row := range qr.Results[0].Answers {
			if len(row) != 1 {
				return fmt.Errorf("read %s: row of %d values", name, len(row))
			}
			got = append(got, row[0])
		}
		if !sameSet(got, want[name]) {
			return fmt.Errorf("read %s: answers differ from the oracle's", name)
		}
	}
	return nil
}

// commitOp sends one transaction and checks the acknowledgement.
func commitOp(c *conn, op *Op, lastVersion *uint64) error {
	var reply txnReply
	if err := c.postJSON("/v1/txn", op.Body, &reply); err != nil {
		return err
	}
	if reply.Asserts != len(op.Asserts) || reply.Retracts != len(op.Retracts) {
		return fmt.Errorf("commit acknowledged %d asserts, %d retracts; sent %d, %d",
			reply.Asserts, reply.Retracts, len(op.Asserts), len(op.Retracts))
	}
	if reply.Version <= *lastVersion {
		return fmt.Errorf("commit version %d after %d", reply.Version, *lastVersion)
	}
	*lastVersion = reply.Version
	return nil
}

// timed runs ops in a closed loop until the deadline (or until n ops, when
// n > 0) and returns one sample per op.
func timed(phaseStart time.Time, deadline time.Time, n int, op func(i int) error, chk *checker) []sample {
	var out []sample
	for i := 0; n == 0 || i < n; i++ {
		start := time.Now()
		if n == 0 && !start.Before(deadline) {
			break
		}
		err := op(i)
		out = append(out, sample{start: start.Sub(phaseStart), dur: time.Since(start)})
		chk.check(err)
	}
	return out
}

// controlShare is the part of read_point's time spent on the control stream.
const controlShare = 0.2

// runReadPoint: a memory-only server, one connection, prepared magic
// anc(c, Y) with c drawn from the 400 depth-1 nodes of the forest; then the
// same query on the two-tree control relation.
func runReadPoint(e *env) (*runResult, error) {
	res := &runResult{Workload: "read_point"}
	chk := &checker{}
	in := newForestInputs(e)
	srv, err := newForestServer(e, res.Workload, false, in, chk)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	t, c, h, setups := srv.t, srv.c, srv.h, srv.setups

	w := e.sizes.Warmup
	phase := func(prepared string, f *Forest, keys []int32, d time.Duration) summary {
		start := time.Now()
		return summarize(timed(start, start.Add(d), 0, func(i int) error {
			return readOp(c, prepared, f, keys[(w+i)%len(keys)], in.want, i%fullCheckEvery == 0, nil)
		}, chk), e.sizes.MinBeyond)
	}
	total := time.Duration(e.seconds * float64(time.Second))
	side := time.Duration(float64(total) * controlShare)
	main := phase(h.main, in.forest, in.keys, total-side)
	ctl := phase(h.control, in.control, in.ckeys, side)

	rss, err := t.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := checkRejected(c, chk); err != nil {
		return nil, err
	}
	res.Metrics = append(res.Metrics,
		gated("setup_s", slotSetup, median(setups), "s", len(setups), spread(setups)))
	res.Metrics = append(res.Metrics, readMetrics(main)...)
	res.Metrics = append(res.Metrics,
		gated("control_read_p50_ms", slotSideP50, ctl.P50, "ms", ctl.N, ctl.SpreadP50),
		gated("control_read_ops_per_s", slotSidePS, ctl.PerSec, "1/s", ctl.N, ctl.SpreadPerSec),
		gated("server_rss_mb", slotRSS, rss, "MB", 1, 0))
	chk.into(res)
	return res, nil
}

// streamMetrics names one stream's summary — median, p95, p99 and rate —
// and binds the median, the p99 and the rate to the given BENCHMARK.json
// slots ("" = reported, not gated).
func streamMetrics(prefix, rateName string, s summary, p50Slot, p99Slot, rateSlot string) []metric {
	return []metric{
		gated(prefix+"_p50_ms", p50Slot, s.P50, "ms", s.N, s.SpreadP50),
		{Name: prefix + "_p95_ms", Value: s.P95, Unit: "ms", N: s.N, Spread: s.SpreadP95, Better: "lower"},
		gated(prefix+"_p99_ms", p99Slot, s.P99, "ms", s.N, 0),
		gated(rateName, rateSlot, s.PerSec, "1/s", s.N, s.SpreadPerSec),
	}
}

// readMetrics names the main read stream of read_point and mixed_rw.
func readMetrics(s summary) []metric {
	return streamMetrics("read", "read_ops_per_s", s, slotMainP50, slotMainP99, slotMainPS)
}

// checkRejected counts a failure for every request admission control
// refused: the workloads are sized so that none is.
func checkRejected(c *conn, chk *checker) error {
	st, err := c.stats()
	if err != nil {
		return err
	}
	for name, tn := range st.Tenants {
		for i := int64(0); i < tn.Rejected; i++ {
			chk.fail("tenant %s: request rejected by admission control", name)
		}
	}
	return nil
}

// runMixedRW: a durable server over the forest, two connections for the
// whole run. The reader does exactly read_point's op; the writer alternately
// asserts four par edges in a scratch region and retracts them. Every pinned
// read forces the next write to clone par, and every commit bumps the
// version under the reader.
func runMixedRW(e *env) (*runResult, error) {
	res := &runResult{Workload: "mixed_rw"}
	chk := &checker{}
	in := newForestInputs(e)
	srv, err := newForestServer(e, res.Workload, true, in, chk)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	t, c, h, setups := srv.t, srv.c, srv.h, srv.setups
	wc := newConn(t.url)
	defer wc.close()

	st, err := c.stats()
	if err != nil {
		return nil, err
	}
	var (
		wg            sync.WaitGroup
		reads, writes []sample
		w             = e.sizes.Warmup
		start         = time.Now()
		deadline      = start.Add(time.Duration(e.seconds * float64(time.Second)))
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		var version uint64
		reads = timed(start, deadline, 0, func(i int) error {
			return readOp(c, h.main, in.forest, in.keys[(w+i)%len(in.keys)], in.want, i%fullCheckEvery == 0, &version)
		}, chk)
	}()
	go func() {
		defer wg.Done()
		version := st.Database.Version
		writes = timed(start, deadline, 0, func(i int) error {
			return commitOp(wc, &in.writes[i%len(in.writes)], &version)
		}, chk)
	}()
	wg.Wait()
	// An odd number of writes leaves the last group asserted; the final
	// state check allows for it.
	wantFacts := len(in.forest.Edges) + len(in.control.Edges) + 4*(len(writes)%2)
	end, err := c.stats()
	if err != nil {
		return nil, err
	}
	if end.Database.TotalFacts != wantFacts || end.Database.Version != st.Database.Version+uint64(len(writes)) {
		chk.fail("final state: %d facts at version %d, want %d at %d", end.Database.TotalFacts,
			end.Database.Version, wantFacts, st.Database.Version+uint64(len(writes)))
	}
	rss, err := t.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := checkRejected(c, chk); err != nil {
		return nil, err
	}
	rs, ws := summarize(reads, e.sizes.MinBeyond), summarize(writes, e.sizes.MinBeyond)
	res.Metrics = append(res.Metrics,
		gated("setup_s", slotSetup, median(setups), "s", len(setups), spread(setups)))
	res.Metrics = append(res.Metrics, readMetrics(rs)...)
	res.Metrics = append(res.Metrics, commitMetrics(ws, 4, false)...)
	res.Metrics = append(res.Metrics, gated("server_rss_mb", slotRSS, rss, "MB", 1, 0))
	chk.into(res)
	return res, nil
}

// commitMetrics names a commit stream's summary, in the main slots or the
// side slots. The rate slot carries commits per second; facts per second is
// the same number scaled, reported under the issue's name.
func commitMetrics(s summary, factsPerCommit int, mainSlots bool) []metric {
	p50, p99, rate := slotSideP50, "", slotSidePS
	if mainSlots {
		p50, p99, rate = slotMainP50, slotMainP99, slotMainPS
	}
	return append(streamMetrics("commit", "commits_per_s", s, p50, p99, rate),
		metric{Name: "commit_facts_per_s", Value: s.PerSec * float64(factsPerCommit), Unit: "1/s", N: s.N,
			Spread: s.SpreadPerSec, Better: "higher"})
}
