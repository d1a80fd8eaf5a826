package main

// adhoc_paper, end to end: the library path (repro/datalog in this process,
// one goroutine, default Parallelism), every query cold — datalog.Compile
// plus Snapshot.Query on a fresh Program, so parse, lint, adornment,
// rewriting and plan compilation are paid per op. Two phases: cold-small,
// where a 252-fact forest makes the front end nearly all of the op, and the
// suite, the paper's three program families under its four rewritings at
// sizes where the fixpoint is nearly all of it.

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/datalog"
)

// coldShare is the part of adhoc_paper's time spent on cold-small ops.
const coldShare = 0.4

// factCounts are the machine-independent measures of Section 9: facts
// computed for the rewritten program's derived and auxiliary predicates.
type factCounts struct{ Derived, Aux int }

// goldenCounts are the committed values for fullSuite, the same for every
// seed; a change to a rewriting or to the evaluator that alters them is a
// change in what the paper calls the work done, and must not pass silently.
var goldenCounts = map[string]factCounts{
	"ancestor/magic":                      {80200, 401},
	"ancestor/supplementary-magic":        {80200, 801},
	"ancestor/counting":                   {80200, 401},
	"ancestor/supplementary-counting":     {80200, 801},
	"nested-sg/magic":                     {2588, 2400},
	"nested-sg/supplementary-magic":       {2588, 4599},
	"nested-sg/counting":                  {2588, 2400},
	"nested-sg/supplementary-counting":    {2588, 4599},
	"list-reverse/magic":                  {861, 861},
	"list-reverse/supplementary-magic":    {861, 901},
	"list-reverse/counting":               {861, 861},
	"list-reverse/supplementary-counting": {861, 901},
}

// adhocState is one set-up of adhoc_paper: generated inputs loaded into
// databases. Programs are never part of it: every op compiles its own.
type adhocState struct {
	families []Family
	dbs      []*datalog.Database // one per family
	cold     *Forest
	coldDB   *datalog.Database
	coldKeys []int32
	coldWant map[string][]string
}

func newAdhocState(e *env) (*adhocState, error) {
	rng := rand.New(rand.NewSource(e.seed))
	s := &adhocState{families: newSuite(rng, e.sizes.Suite), coldWant: map[string][]string{}}
	for _, f := range s.families {
		db := datalog.NewDatabase()
		if err := db.AssertText(f.Facts); err != nil {
			return nil, fmt.Errorf("loading %s: %w", f.Name, err)
		}
		s.dbs = append(s.dbs, db)
	}
	s.cold = NewForest(rng, "par", "n", 5, e.sizes.Suite.ColdTrees, forestDepth, true)
	s.coldDB = datalog.NewDatabase()
	txn := s.coldDB.Begin()
	facts := s.cold.Facts(0, len(s.cold.Edges))
	for _, w := range facts {
		if err := txn.Assert(w.Pred, w.Args[0], w.Args[1]); err != nil {
			return nil, err
		}
	}
	if err := txn.Commit(); err != nil {
		return nil, err
	}
	g := graphOf("par", facts)
	for _, k := range s.cold.Depth1() {
		s.coldWant[s.cold.Names[k]] = g.Reachable(s.cold.Names[k])
	}
	s.coldKeys = readKeys(rng, s.cold.Depth1(), int(e.seconds*4000)+e.sizes.Warmup+1)
	return s, nil
}

// coldOp is one cold-small op: compile, pin, query, check.
func (s *adhocState) coldOp(i int) error {
	name := s.cold.Names[s.coldKeys[i%len(s.coldKeys)]]
	prog, err := datalog.Compile(coldProgram)
	if err != nil {
		return err
	}
	res, err := s.coldDB.Snapshot().With(prog).Query("anc("+name+", Y)", datalog.Options{})
	if err != nil {
		return err
	}
	return checkAnswers(res, s.coldWant[name], i%fullCheckEvery == 0)
}

// checkAnswers compares a library result with the oracle's sorted answers:
// the count always, the set when full.
func checkAnswers(res *datalog.Result, want []string, full bool) error {
	if len(res.Answers) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(res.Answers), len(want))
	}
	if !full {
		return nil
	}
	got := make([]string, len(res.Answers))
	for i, a := range res.Answers {
		if len(a.Vals) != 1 {
			return fmt.Errorf("answer of %d values", len(a.Vals))
		}
		got[i] = a.Vals[0].String()
	}
	if !sameSet(got, want) {
		return fmt.Errorf("answers differ from the oracle's")
	}
	return nil
}

// memberOp is one suite member: a family under a strategy, cold. It returns
// the fact counts the evaluation reported.
func (s *adhocState) memberOp(fam int, strategy string) (factCounts, error) {
	f := s.families[fam]
	prog, err := datalog.Compile(f.Program)
	if err != nil {
		return factCounts{}, err
	}
	res, err := s.dbs[fam].Snapshot().With(prog).Query(f.Query, datalog.Options{Strategy: datalog.Strategy(strategy)})
	if err != nil {
		return factCounts{}, fmt.Errorf("%s/%s: %w", f.Name, strategy, err)
	}
	if err := checkAnswers(res, f.Want, true); err != nil {
		return factCounts{}, fmt.Errorf("%s/%s: %w", f.Name, strategy, err)
	}
	return factCounts{res.Stats.DerivedFacts, res.Stats.AuxFacts}, nil
}

// suitePass runs every member once; golden, when non-nil, is what each
// member's fact counts must equal. Member times in ms are appended to times.
func (s *adhocState) suitePass(golden map[string]factCounts, chk *checker, times map[string][]float64) {
	for fam := range s.families {
		for _, st := range suiteStrategies {
			key := s.families[fam].Name + "/" + st
			t0 := time.Now()
			counts, err := s.memberOp(fam, st)
			times[key] = append(times[key], float64(time.Since(t0).Nanoseconds())/1e6)
			if err == nil && golden != nil && counts != golden[key] {
				err = fmt.Errorf("%s: %d derived and %d auxiliary facts, golden values are %d and %d",
					key, counts.Derived, counts.Aux, golden[key].Derived, golden[key].Aux)
			}
			chk.check(err)
		}
	}
}

func runAdhocPaper(e *env) (*runResult, error) {
	res := &runResult{Workload: "adhoc_paper"}
	chk := &checker{}
	// This process hosts the engine here, so its own peak RSS is the one
	// reported; forget the peak an earlier workload's generator left. (The
	// write fails on kernels without clear_refs; the peak is then the whole
	// process's, as it is when this workload runs first.)
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	golden := goldenCounts
	if e.sizes.Suite != fullSuite {
		golden = nil
	}
	var (
		s      *adhocState
		setups []float64
	)
	for k := 0; k < e.sizes.Setups; k++ {
		start := time.Now()
		var err error
		if s, err = newAdhocState(e); err != nil {
			return nil, err
		}
		// Warm-up: the first query on a relation builds its indexes, which
		// the database then keeps; one member per family and a few cold ops
		// pay that before timing starts.
		for fam := range s.families {
			_, err := s.memberOp(fam, suiteStrategies[0])
			chk.check(err)
		}
		for i := 0; i < e.sizes.Warmup; i++ {
			chk.check(s.coldOp(i))
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	total := time.Duration(e.seconds * float64(time.Second))
	coldFor := time.Duration(float64(total) * coldShare)
	start := time.Now()
	w := e.sizes.Warmup
	cold := summarize(timed(start, start.Add(coldFor), 0, func(i int) error { return s.coldOp(w + i) }, chk), e.sizes.MinBeyond)

	// Suite passes until the time is up; a pass that has begun completes.
	var passes []sample
	members := map[string][]float64{}
	start = time.Now()
	for deadline := start.Add(total - coldFor); len(passes) == 0 || time.Now().Before(deadline); {
		t0 := time.Now()
		s.suitePass(golden, chk, members)
		passes = append(passes, sample{start: t0.Sub(start), dur: time.Since(t0)})
	}
	suite := summarize(passes, e.sizes.MinBeyond)

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.Metrics = append(res.Metrics,
		gated("setup_s", slotSetup, median(setups), "s", len(setups), spread(setups)))
	res.Metrics = append(res.Metrics,
		streamMetrics("adhoc_cold", "adhoc_cold_ops_per_s", cold, slotMainP50, slotMainP99, slotMainPS)...)
	res.Metrics = append(res.Metrics,
		gated("adhoc_suite_pass_ms", slotSideP50, suite.P50, "ms", suite.N, suite.SpreadP50),
		gated("adhoc_suite_passes_per_s", slotSidePS, suite.PerSec, "1/s", suite.N, suite.SpreadPerSec),
		metric{Name: "adhoc_suite_s", Value: suite.P50 / 1000, Unit: "s", N: suite.N, Spread: suite.SpreadP50, Better: "lower"},
		gated("process_rss_mb", slotRSS, rss, "MB", 1, 0))
	for _, f := range s.families {
		for _, st := range suiteStrategies {
			key := f.Name + "/" + st
			res.Metrics = append(res.Metrics, metric{Name: "suite." + key + "_ms", Value: median(members[key]),
				Unit: "ms", N: len(members[key]), Spread: spread(members[key]), Better: "lower"})
		}
	}
	chk.into(res)
	return res, nil
}
