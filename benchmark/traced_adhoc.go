package main

// The traced run of adhoc_paper: cold-small ops and then one suite pass,
// each op at four depths — the whole cold query; Compile, Snapshot, Prepare
// and RunCtx; the front-end and evaluation calls those are made of; the
// overlay under the fixpoint. The deepest depth has stores of its own,
// loaded with the same facts.

import (
	"context"
	"time"

	"repro/datalog"
	"repro/internal/database"
	"repro/internal/parser"
)

// adhocTarget is what one cold op runs against: a program over a database,
// with the store that mirrors the database at the deepest depth.
type adhocTarget struct {
	src   string
	db    *datalog.Database
	store *database.Store
}

// storeOf loads facts given in source syntax into a store of its own.
func storeOf(factsSrc string) (*database.Store, error) {
	unit, err := parser.Parse(factsSrc)
	if err != nil {
		return nil, err
	}
	store := database.NewStore()
	_, _, err = store.Apply(nil, unit.Facts)
	return store, err
}

func (r *tracedRun) adhoc() error {
	e := r.e
	s, err := newAdhocState(e)
	if err != nil {
		return err
	}
	coldFacts := s.cold.Facts(0, len(s.cold.Edges))
	cold := adhocTarget{src: coldProgram, db: s.coldDB, store: database.NewStore()}
	if err := r.coreCommit(&coreStack{store: cold.store}, 0, 0, nil, atomsOf(coldFacts)); err != nil {
		return err
	}
	members := make([]adhocTarget, len(s.families))
	for i, f := range s.families {
		store, err := storeOf(f.Facts)
		if err != nil {
			return err
		}
		members[i] = adhocTarget{src: f.Program, db: s.dbs[i], store: store}
	}
	coldQuery := func(i int) (string, []string) {
		name := s.cold.Names[s.coldKeys[i%len(s.coldKeys)]]
		return "anc(" + name + ", Y)", s.coldWant[name]
	}

	// Warm every relation's index, then forget the warm-up — except what the
	// cold EDB cost to apply, which no op will tell.
	q, want := coldQuery(0)
	if _, err := r.adhocOp(0, cold, q, "magic", want, false); err != nil {
		return err
	}
	for i, f := range s.families {
		if _, err := r.adhocOp(0, members[i], f.Query, "magic", f.Want, false); err != nil {
			return err
		}
	}
	r.reset("database.apply_ns_per_fact", "database.apply_allocs_per_fact")

	// The suite pass comes first so that a short -seconds cannot squeeze it
	// out; the cold-small ops fill the rest of the replay's time.
	deadline := time.Now().Add(time.Duration(e.seconds * tracedShare * float64(time.Second)))
	op := 0
	var seq, par time.Duration
	for i, f := range s.families {
		for _, strategy := range suiteStrategies {
			op++
			fm, err := r.adhocOp(op, members[i], f.Query, strategy, f.Want, true)
			if err != nil {
				return err
			}
			// The same member's fixpoint on one worker and on the default,
			// outside the trace.
			a, b, err := parallelSpeedup(members[i].store, fm, fm.q.BoundConstants())
			if err != nil {
				return err
			}
			seq, par = seq+a, par+b
		}
	}
	r.add("eval.parallel_speedup", float64(seq)/float64(par))
	// The two phases stress different layers, and a median over both would
	// show only the more numerous ops: evaluation is read off the suite's
	// ops, the front end off the cold-small ops and the probes.
	suiteOps := op
	r.counts = func(s span) bool {
		evaluation := s.Layer == "eval" && s.Name != "eval.prepare" || s.Layer == "database" ||
			s.Name == "rewrite.parameterize" || s.Name == "datalog.run" || s.Name == "datalog.snapshot"
		return evaluation == (s.Op >= 1 && s.Op <= suiteOps)
	}
	for i := 0; i < e.sizes.TracedOps && time.Now().Before(deadline); i++ {
		op++
		q, want := coldQuery(e.sizes.Warmup + i)
		if _, err := r.adhocOp(op, cold, q, "magic", want, false); err != nil {
			return err
		}
	}
	if u := r.values["untraced_op_ns"]; len(u) > 0 {
		a := totalTimes(r.tr.spans)["adhoc.op"]
		r.add("trace.overhead_share", (median(a)-median(u))/median(u))
	}

	q, _ = coldQuery(0)
	if err := r.frontEndProbes(coldProgram, q, cold.store.Table()); err != nil {
		return err
	}
	return r.storageProbes(cold.store, "par", coldFacts)
}

// adhocOp runs one cold query at every depth and checks the answers at
// each; stats says whether the evaluation's counts are recorded. It returns
// the form the deepest depth prepared.
func (r *tracedRun) adhocOp(opID int, t adhocTarget, query, strategy string, want []string, stats bool) (*form, error) {
	opts := datalog.Options{Strategy: datalog.Strategy(strategy)}
	cold := func() (*datalog.Result, error) {
		prog, err := datalog.Compile(t.src)
		if err != nil {
			return nil, err
		}
		return t.db.Snapshot().With(prog).Query(query, opts)
	}
	check := func(depth string, res *datalog.Result, err error) {
		if err == nil {
			err = checkAnswers(res, want, true)
		}
		if err != nil {
			r.chk.fail("traced %s (%s) at depth %s: %v", query, strategy, depth, err)
		} else {
			r.chk.ok()
		}
	}
	// U, the whole op with tracing off, and A, the whole op under a span,
	// taking turns to go first.
	var a int
	untraced := func() {
		t0 := time.Now()
		res, err := cold()
		r.add("untraced_op_ns", float64(time.Since(t0)))
		check("U", res, err)
	}
	traced := func() {
		var res *datalog.Result
		var err error
		a = r.call("adhoc.op", "datalog", opID, 0, func() { res, err = cold() })
		check("A", res, err)
	}
	inTurn(opID, untraced, traced)

	// B: the library calls the op is made of.
	var snap *datalog.Snapshot
	snapSpan := r.call("datalog.snapshot", "datalog", opID, a, func() { snap = t.db.Snapshot() })
	pq, compileSpan, prepareSpan, err := r.coldLib(opID, a, snap, t.src, query, strategy)
	if err != nil {
		return nil, err
	}
	var res *datalog.Result
	runSpan := r.counted("datalog.run", "datalog", opID, a, func() { res, err = pq.RunCtx(context.Background()) })
	check("B", res, err)
	if err == nil && stats {
		r.evalStats(res.Stats, len(res.Answers))
	}

	// C and D: the calls those are made of.
	f, err := r.frontEnd(opID, compileSpan, prepareSpan, t.src, query, strategy, t.store.Table())
	if err != nil {
		return nil, err
	}
	n, err := r.coreRead(opID, snapSpan, runSpan, t.store, f, f.q.BoundConstants())
	if err != nil {
		return nil, err
	}
	if n != len(want) {
		r.chk.fail("traced %s (%s) at depth C: %d answers, want %d", query, strategy, n, len(want))
	} else {
		r.chk.ok()
	}
	return f, nil
}
