package main

// The traced run of the served workloads. Five copies of the server state
// are brought up the same way and fed the same ops: U, the loopback round
// trip with tracing off; A, the same round trip under a span; B, the
// handler called without a socket; C, the library calls the handler makes;
// D, the calls into eval, database, rewrite and wal the library makes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/datalog"
	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/wal"
)

// servedStacks are the copies below the untraced one.
type servedStacks struct {
	ca, cu *conn // A and U
	ha, hu handles
	b      *target // B, driven through its handler
	hb     handles
	db     *datalog.Database // C
	prog   *datalog.Program
	dbDir  string
	logged int // facts C has logged
	core   *coreStack
}

// tracedOp is one op of the replay: a read of key, or a commit.
type tracedOp struct {
	read bool
	key  string
	want []string
	op   *Op
}

// respWriter is the least an http.Handler needs to write into.
type respWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *respWriter) Header() http.Header         { return w.header }
func (w *respWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *respWriter) WriteHeader(status int)      { w.status = status }

// serve calls B's handler with one request.
func (s *servedStacks) serve(path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	w := &respWriter{header: http.Header{}, status: http.StatusOK}
	s.b.inproc.handler.ServeHTTP(w, req)
	return w.status, w.body.Bytes(), nil
}

// tracedOps generates the ops the replay runs, and the facts committed
// before it: the end-to-end run's own inputs, cut down to TracedOps.
func tracedOps(e *env, workload string) (seed [][]wireFact, ops []tracedOp) {
	if workload == "durable_ingest" {
		bulkTxns, smallPerConn := ingestCounts(e)
		plan := newIngestPlan(rand.New(rand.NewSource(e.seed)), bulkTxns, smallPerConn)
		// Not a prefix but a sample in stream order — a few bulk
		// transactions, then small commits alternating between the two
		// connections' streams — so both phases are in the replay.
		for i := 0; i < len(plan.Bulk) && i < 4; i++ {
			ops = append(ops, tracedOp{op: &plan.Bulk[i]})
		}
		for i := 0; len(ops) < e.sizes.TracedOps && i < len(plan.Small[0]); i++ {
			ops = append(ops, tracedOp{op: &plan.Small[0][i]}, tracedOp{op: &plan.Small[1][i]})
		}
		return nil, ops
	}
	in := newForestInputs(e)
	seed = [][]wireFact{in.forest.Facts(0, len(in.forest.Edges)), in.control.Facts(0, len(in.control.Edges))}
	for i := 0; len(ops) < e.sizes.TracedOps; i++ {
		name := in.forest.Names[in.keys[(e.sizes.Warmup+i)%len(in.keys)]]
		ops = append(ops, tracedOp{read: true, key: name, want: in.want[name]})
		if workload == "mixed_rw" {
			// One goroutine, so reads and commits alternate: every read
			// pins, and the commit after it pays for the copy.
			ops = append(ops, tracedOp{op: &in.writes[i%len(in.writes)]})
		}
	}
	return seed, ops
}

// served runs the traced run of read_point, mixed_rw or durable_ingest.
func (r *tracedRun) served(workload string) error {
	e := r.e
	durable := workload != "read_point"
	base := filepath.Join(e.outDir, fmt.Sprintf("%s-trace-%d", workload, os.Getpid()))
	os.RemoveAll(base)
	defer os.RemoveAll(base)
	cfgFor := func(depth string) daemonConfig {
		if !durable {
			return daemonConfig{}
		}
		// No automatic checkpoints: they run on a goroutine of their own,
		// and this run is about what one goroutine does.
		return daemonConfig{DataDir: filepath.Join(base, depth)}
	}
	seed, ops := tracedOps(e, workload)

	var closers []func()
	defer func() {
		for _, f := range closers {
			f()
		}
	}()
	httpStack := func(depth string) (*target, *conn, handles, error) {
		var h handles
		t, err := launchInproc(cfgFor(depth))
		if err != nil {
			return nil, nil, h, err
		}
		c := newConn(t.url)
		closers = append(closers, func() { c.close(); t.crash() })
		if err := c.loadProgram(servedProgram); err != nil {
			return nil, nil, h, err
		}
		for _, facts := range seed {
			if err := c.postJSON("/v1/txn", txnBody(facts, nil), nil); err != nil {
				return nil, nil, h, err
			}
		}
		h.main, err = c.prepare(mainQuery)
		return t, c, h, err
	}
	var (
		s   servedStacks
		err error
	)
	if _, s.ca, s.ha, err = httpStack("a"); err != nil {
		return err
	}
	if _, s.cu, s.hu, err = httpStack("u"); err != nil {
		return err
	}
	if s.b, _, s.hb, err = httpStack("b"); err != nil {
		return err
	}

	s.dbDir = cfgFor("c").DataDir
	s.db = datalog.NewDatabase()
	if durable {
		if s.db, err = datalog.Open(s.dbDir, datalog.OpenOptions{Fsync: fsyncPolicy}); err != nil {
			return err
		}
	}
	closers = append(closers, func() { s.db.Close() })
	if s.prog, err = datalog.Compile(servedProgram); err != nil {
		return err
	}
	s.core = &coreStack{store: database.NewStore(), dir: cfgFor("d").DataDir}
	if durable {
		// SyncNone, because this depth calls Append and Sync itself: the
		// write and the fsync of one SyncAlways append, as two spans.
		if s.core.log, err = wal.Open(s.core.dir, wal.Options{Sync: wal.SyncNone}); err != nil {
			return err
		}
		closers = append(closers, func() { s.core.log.Close() })
	}
	for _, facts := range seed {
		if err := r.commitBelowHandler(0, 0, &s, &Op{Asserts: facts}); err != nil {
			return err
		}
	}
	if s.core.form, err = r.frontEnd(0, 0, 0, servedProgram, mainQuery, "magic", s.core.store.Table()); err != nil {
		return err
	}
	if len(seed) > 0 {
		// One read warms every copy: the first builds par's index.
		if err := r.readAllDepths(0, ops[0], &s); err != nil {
			return err
		}
	}
	if workload == "read_point" {
		// read_point never commits; what its EDB cost to apply is the
		// seeding's to tell.
		r.reset("database.apply_ns_per_fact", "database.apply_allocs_per_fact")
	} else {
		r.reset()
	}

	deadline := time.Now().Add(time.Duration(e.seconds * tracedShare * float64(time.Second)))
	done := 0
	for i, op := range ops {
		if time.Now().After(deadline) {
			break
		}
		if op.read {
			err = r.readAllDepths(i+1, op, &s)
		} else {
			err = r.commitAllDepths(i+1, op.op, &s)
		}
		if err != nil {
			return err
		}
		done++
	}
	if done == 0 {
		return fmt.Errorf("the traced run replayed no op within %.1fs", e.seconds*tracedShare)
	}
	if u := r.values["untraced_roundtrip_ns"]; len(u) > 0 {
		a := totalTimes(r.tr.spans)["datalogd.roundtrip"]
		r.add("trace.overhead_share", (median(a)-median(u))/median(u))
	}

	// Probes on the state the replay left behind.
	st, err := s.ca.stats()
	if err != nil {
		return err
	}
	rejected := 0.0
	for _, tn := range st.Tenants {
		rejected += float64(tn.Rejected)
	}
	r.add("server.rejected", rejected)
	for i := 0; i < e.sizes.Setups; i++ {
		t, err := e.launch(daemonConfig{})
		if err != nil {
			return err
		}
		r.add("datalogd.boot_ms", float64(t.boot)/1e6)
		t.crash()
	}
	if err := r.frontEndProbes(servedProgram, mainQuery, s.core.store.Table()); err != nil {
		return err
	}
	var edb []wireFact
	if len(seed) > 0 {
		edb = seed[0]
	}
	for _, op := range ops[:done] {
		if !op.read && len(edb) < 100000 {
			edb = append(edb, op.op.Asserts...)
		}
	}
	if err := r.storageProbes(s.core.store, "par", edb); err != nil {
		return err
	}
	var seq, par time.Duration
	for i := 0; i < done && i < 2*e.sizes.ProbeReps; i++ {
		if ops[i].read {
			a, b, err := parallelSpeedup(s.core.store, s.core.form, []ast.Term{ast.S(ops[i].key)})
			if err != nil {
				return err
			}
			seq, par = seq+a, par+b
		}
	}
	if par > 0 {
		r.add("eval.parallel_speedup", float64(seq)/float64(par))
	}
	if durable {
		return r.durabilityProbes(&s)
	}
	return nil
}

// inTurn runs the untraced and the traced form of one op, alternating which
// goes first, so that neither always finds the generator's side warm.
func inTurn(opID int, untraced, traced func()) {
	if opID%2 == 0 {
		untraced()
		traced()
	} else {
		traced()
		untraced()
	}
}

// answersIn counts the answers of a /v1/query reply, -1 if it has none to
// count.
func answersIn(status int, reply []byte, err error) int {
	var qr queryReply
	if err != nil || status != http.StatusOK || json.Unmarshal(reply, &qr) != nil || len(qr.Results) != 1 {
		return -1
	}
	return len(qr.Results[0].Answers)
}

// readAllDepths runs one read at every depth and checks the answer count at
// each.
func (r *tracedRun) readAllDepths(opID int, op tracedOp, s *servedStacks) error {
	check := func(depth string, n int) {
		if n != len(op.want) {
			r.chk.fail("traced read %s at depth %s: %d answers, want %d", op.key, depth, n, len(op.want))
		} else {
			r.chk.ok()
		}
	}
	// U, the round trip with tracing off, and A, the same under a span,
	// taking turns to go first.
	var (
		a      int
		status int
		reply  []byte
		err    error
	)
	untraced := func() {
		t0 := time.Now()
		status, reply, err := s.cu.post("/v1/query", queryBody(s.hu.main, op.key))
		r.add("untraced_roundtrip_ns", float64(time.Since(t0)))
		check("U", answersIn(status, reply, err))
	}
	traced := func() {
		a = r.call("datalogd.roundtrip", "datalogd", opID, 0, func() {
			status, reply, err = s.ca.post("/v1/query", queryBody(s.ha.main, op.key))
		})
		n := answersIn(status, reply, err)
		check("A", n)
		if n > 0 {
			r.add("server.resp_bytes_per_answer", float64(len(reply))/float64(n))
		}
	}
	inTurn(opID, untraced, traced)

	body := queryBody(s.hb.main, op.key)
	b := r.counted("server.query", "server", opID, a, func() { status, reply, err = s.serve("/v1/query", body) })
	check("B", answersIn(status, reply, err))

	// C: what handleQuery calls — Snapshot, Prepare (a cache hit), RunCtx.
	var (
		snap *datalog.Snapshot
		pq   *datalog.PreparedQuery
		res  *datalog.Result
	)
	snapSpan := r.call("datalog.snapshot", "datalog", opID, b, func() { snap = s.db.Snapshot() })
	r.call("datalog.prepare_hit", "datalog", opID, b, func() {
		pq, err = snap.With(s.prog).Prepare(mainQuery, datalog.Options{})
	})
	if err != nil {
		return err
	}
	runSpan := r.counted("datalog.run", "datalog", opID, b, func() { res, err = pq.RunCtx(context.Background(), op.key) })
	if err != nil {
		return err
	}
	check("C", len(res.Answers))
	r.evalStats(res.Stats, len(res.Answers))

	n, err := r.coreRead(opID, snapSpan, runSpan, s.core.store, s.core.form, []ast.Term{ast.S(op.key)})
	if err != nil {
		return err
	}
	check("D", n)
	return nil
}

// commitAllDepths runs one transaction at every depth.
func (r *tracedRun) commitAllDepths(opID int, op *Op, s *servedStacks) error {
	ack := func(depth string, status int, reply []byte, err error) {
		var tr txnReply
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, reply)
		}
		if err == nil {
			err = json.Unmarshal(reply, &tr)
		}
		if err == nil && (tr.Asserts != len(op.Asserts) || tr.Retracts != len(op.Retracts)) {
			err = fmt.Errorf("acknowledged %d asserts, %d retracts", tr.Asserts, tr.Retracts)
		}
		if err != nil {
			err = fmt.Errorf("traced commit at depth %s: %w", depth, err)
		}
		r.chk.check(err)
	}
	var (
		a      int
		status int
		reply  []byte
		err    error
	)
	inTurn(opID, func() {
		t0 := time.Now()
		status, reply, err := s.cu.post("/v1/txn", op.Body)
		r.add("untraced_roundtrip_ns", float64(time.Since(t0)))
		ack("U", status, reply, err)
	}, func() {
		a = r.call("datalogd.roundtrip", "datalogd", opID, 0, func() { status, reply, err = s.ca.post("/v1/txn", op.Body) })
		ack("A", status, reply, err)
	})

	b := r.counted("server.txn", "server", opID, a, func() { status, reply, err = s.serve("/v1/txn", op.Body) })
	ack("B", status, reply, err)

	return r.commitBelowHandler(opID, b, s, op)
}

// commitBelowHandler commits one batch at depths C and D.
func (r *tracedRun) commitBelowHandler(opID, handlerSpan int, s *servedStacks, op *Op) error {
	// C: Begin, buffer, Commit — what handleTxn does with the decoded body.
	var err error
	commitSpan := r.counted("datalog.commit", "datalog", opID, handlerSpan, func() {
		txn := s.db.Begin()
		for _, f := range op.Retracts {
			if err = txn.Retract(f.Pred, f.Args[0], f.Args[1]); err != nil {
				return
			}
		}
		for _, f := range op.Asserts {
			if err = txn.Assert(f.Pred, f.Args[0], f.Args[1]); err != nil {
				return
			}
		}
		err = txn.Commit()
	})
	if err != nil {
		return err
	}
	s.logged += len(op.Asserts) + len(op.Retracts)
	return r.coreCommit(s.core, opID, commitSpan, atomsOf(op.Retracts), atomsOf(op.Asserts))
}

// durabilityProbes measure what the log holds and what reopening costs:
// bytes and fsyncs per commit from the library's own counters, Open on the
// library's directory, a checkpoint, and a bare Replay of the core's log.
func (r *tracedRun) durabilityProbes(s *servedStacks) error {
	ds, ok := s.db.DurabilityStats()
	if !ok || ds.RecordsAppended == 0 {
		return fmt.Errorf("durability probes: the library database logged nothing")
	}
	r.add("wal.fsyncs_per_commit", float64(ds.Fsyncs)/float64(ds.RecordsAppended))
	r.add("wal.bytes_per_fact", float64(ds.BytesAppended)/float64(s.logged))
	if err := s.db.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	db, err := datalog.Open(s.dbDir, datalog.OpenOptions{Fsync: fsyncPolicy})
	if err != nil {
		return err
	}
	r.add("datalog.open_ms", float64(time.Since(t0))/1e6)
	s.db = db
	t0 = time.Now()
	if err := db.Checkpoint(); err != nil {
		return err
	}
	r.add("wal.checkpoint_ms", float64(time.Since(t0))/1e6)
	ckpts, err := filepath.Glob(filepath.Join(s.dbDir, "checkpoint-*.ckpt"))
	if err != nil || len(ckpts) == 0 {
		return fmt.Errorf("durability probes: no checkpoint file in %s", s.dbDir)
	}
	sort.Strings(ckpts)
	fi, err := os.Stat(ckpts[len(ckpts)-1])
	if err != nil {
		return err
	}
	r.add("wal.checkpoint_bytes_per_fact", float64(fi.Size())/float64(db.TotalFacts()))

	if err := s.core.log.Close(); err != nil {
		return err
	}
	if s.core.log, err = wal.Open(s.core.dir, wal.Options{Sync: wal.SyncNone}); err != nil {
		return err
	}
	before := mallocs()
	t0 = time.Now()
	info, err := s.core.log.Replay(0, func(wal.Record) error { return nil })
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	if info.Records == 0 {
		return fmt.Errorf("durability probes: replay found no record in %s", s.core.dir)
	}
	r.add("wal.replay_allocs_per_record", float64(mallocs()-before)/float64(info.Records))
	r.add("wal.replay_us_per_record", float64(elapsed)/1e3/float64(info.Records))
	return nil
}
