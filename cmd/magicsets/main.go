// Command magicsets rewrites and evaluates Horn-clause queries using the
// strategies of Beeri & Ramakrishnan, "On the Power of Magic".
//
// Usage:
//
//	magicsets -program prog.dl [-facts facts.dl] -query "anc(john, Y)" \
//	          [-strategy magic] [-sip full] [-semijoin] \
//	          [-show-rewrite] [-show-safety] [-stats] \
//	          [-max-iterations N] [-max-facts N] [-max-derivations N] \
//	          [-repeat N] [-timeout D] [-first-n N] [-parallelism N] [-stream]
//	          [-vet] [-vet-only]
//
// The program file contains rules (and optionally facts); the facts file
// contains ground facts only and is loaded in a single transaction — a
// malformed fact anywhere in the file loads nothing, and -stats reports the
// load time. The query is a single atom whose constant arguments are the
// bound positions. Answers are printed one per line as tuples of the
// query's free variables.
//
// With -repeat N (N > 1) the query is prepared once and run N times
// through the prepared-query serving layer, and the amortized per-run time
// is reported: the adorn/rewrite/compile work happens on the first run
// only, so this flag demonstrates the prepare-once/run-many cost profile
// of the engine.
//
// -timeout bounds the wall-clock time of the evaluation through a
// context.Context deadline (the reliable way to observe a divergent
// counting query without guessing iteration limits), -first-n stops the
// evaluation as soon as N answers exist, and -stream consumes the answers
// through the typed streaming cursor instead of the materialized result.
// -parallelism sets the shard count of the bottom-up fixpoint's large delta
// rounds (0 = GOMAXPROCS, 1 = no partitioning); under -stats a run whose
// rounds were partitioned reports how many shard rounds fired.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/datalog"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "magicsets:", err)
		os.Exit(1)
	}
}

// trimTuple strips exactly the outer parentheses of a rendered answer
// tuple. strings.Trim would eat trailing parens belonging to a compound
// value such as "(pair(a, b))".
func trimTuple(s string) string {
	s = strings.TrimPrefix(s, "(")
	return strings.TrimSuffix(s, ")")
}

// describeInterrupt dresses a deadline error with a hint that -timeout (not
// a bug) cut the evaluation off; other errors pass through.
func describeInterrupt(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("evaluation exceeded -timeout: %w", err)
	}
	return err
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("magicsets", flag.ContinueOnError)
	programPath := fs.String("program", "", "path to the program (rules, optionally facts)")
	factsPath := fs.String("facts", "", "path to an additional facts file")
	query := fs.String("query", "", "query atom, e.g. 'anc(john, Y)'")
	strategy := fs.String("strategy", "magic", "evaluation strategy: semi-naive, magic, supplementary-magic, counting, supplementary-counting")
	sipPolicy := fs.String("sip", "full", "sip policy for the rewriting strategies: full, partial or greedy")
	semijoin := fs.Bool("semijoin", false, "apply the semijoin optimization to the counting rewritings")
	keepGuards := fs.Bool("keep-guards", false, "keep all magic guards (disable the Proposition 4.3 simplification)")
	simplify := fs.Bool("simplify", false, "drop tautological and duplicate rules from the rewritten program")
	showRewrite := fs.Bool("show-rewrite", false, "print the rewritten program and its seed facts")
	showSafety := fs.Bool("show-safety", false, "print the Section 10 safety report")
	showStats := fs.Bool("stats", false, "print evaluation statistics")
	maxIterations := fs.Int("max-iterations", 0, "bound the number of bottom-up iterations (0 = unlimited)")
	maxFacts := fs.Int("max-facts", 0, "bound the number of derived facts (0 = unlimited)")
	maxDerivations := fs.Int64("max-derivations", 0, "bound the number of rule firings (0 = unlimited)")
	repeat := fs.Int("repeat", 1, "prepare the query once and run it N times, reporting the amortized per-run time")
	timeout := fs.Duration("timeout", 0, "bound the wall-clock evaluation time via a context deadline (0 = none)")
	firstN := fs.Int("first-n", 0, "stop the evaluation once N answers exist (0 = all answers)")
	parallelism := fs.Int("parallelism", 0, "shard count of large bottom-up delta rounds (0 = GOMAXPROCS, 1 = no partitioning)")
	stream := fs.Bool("stream", false, "consume the answers through the streaming cursor")
	vet := fs.Bool("vet", false, "print the static-analysis diagnostics for the program and query before evaluating")
	vetOnly := fs.Bool("vet-only", false, "print the diagnostics and exit without evaluating (implies -vet); non-zero exit when any are found")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *programPath == "" || *query == "" {
		fs.Usage()
		return fmt.Errorf("both -program and -query are required")
	}

	programSrc, err := os.ReadFile(*programPath)
	if err != nil {
		return err
	}
	prog, err := datalog.Compile(string(programSrc))
	if err != nil {
		return err
	}
	db := datalog.NewDatabase()
	if err := db.LoadFacts(prog); err != nil {
		return err
	}
	// The EDB file is loaded in a single transaction: one parse, one
	// validation pass and one atomic bulk commit, so a malformed fact
	// anywhere in the file loads nothing, and the load pays one write-lock
	// acquisition instead of one per fact. The wall-clock load time and fact
	// count are reported under -stats.
	var loadTime time.Duration
	var loadedFacts int
	if *factsPath != "" {
		factsSrc, err := os.ReadFile(*factsPath)
		if err != nil {
			return err
		}
		start := time.Now()
		txn := db.Begin()
		if err := txn.AssertText(string(factsSrc)); err != nil {
			return err
		}
		loadedFacts, _ = txn.Pending()
		if err := txn.Commit(); err != nil {
			return err
		}
		loadTime = time.Since(start)
	}

	// -vet surfaces the compile-time analysis before anything is evaluated:
	// the program's retained diagnostics (warnings and infos; error-level
	// findings already failed Compile above) plus the query-relative
	// passes for the form actually being asked. Positions in the program
	// diagnostics refer to the -program file; query diagnostics are
	// reported against the query text.
	if *vet || *vetOnly {
		diags := prog.Diagnostics()
		qdiags, err := prog.DiagnosticsFor(*query)
		if err != nil {
			return err
		}
		for _, d := range diags {
			fmt.Fprintf(out, "%s:%s: %s: %s [%s]\n", *programPath, d.Position, d.Severity, d.Message, d.Code)
		}
		for _, d := range qdiags {
			fmt.Fprintf(out, "query %s: %s: %s [%s]\n", *query, d.Severity, d.Message, d.Code)
		}
		if *vetOnly {
			if len(diags)+len(qdiags) > 0 {
				return fmt.Errorf("vet found %d diagnostic(s)", len(diags)+len(qdiags))
			}
			fmt.Fprintf(out, "%% vet: no diagnostics for %s with %s\n", *programPath, *query)
			return nil
		}
	}

	strat, err := datalog.ParseStrategy(*strategy)
	if err != nil {
		return err
	}
	opts := datalog.Options{
		Strategy:       strat,
		Sip:            datalog.SipPolicy(*sipPolicy),
		Semijoin:       *semijoin,
		KeepAllGuards:  *keepGuards,
		Simplify:       *simplify,
		MaxIterations:  *maxIterations,
		MaxFacts:       *maxFacts,
		MaxDerivations: *maxDerivations,
		FirstN:         *firstN,
		Parallelism:    *parallelism,
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Every read runs on one snapshot: the facts loaded above, pinned
	// together with the program.
	snap := db.Snapshot().With(prog)
	if *stream {
		if *showRewrite || *showSafety || *showStats || *repeat > 1 {
			return fmt.Errorf("-stream yields rows only; it cannot be combined with -show-rewrite, -show-safety, -stats or -repeat")
		}
		pq, err := snap.Prepare(*query, opts)
		if err != nil {
			return err
		}
		n := 0
		for row, err := range pq.Stream(ctx) {
			if err != nil {
				return describeInterrupt(err)
			}
			fmt.Fprintln(out, trimTuple(row.String()))
			n++
		}
		fmt.Fprintf(out, "%% %d answer(s) streamed for %s\n", n, *query)
		return nil
	}

	var res *datalog.Result
	if *repeat > 1 {
		pq, err := snap.Prepare(*query, opts)
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < *repeat; i++ {
			if res, err = pq.RunCtx(ctx); err != nil {
				return describeInterrupt(err)
			}
		}
		elapsed := time.Since(start)
		fmt.Fprintf(out, "%% prepared once, ran %d times: %.1f µs/run (%.2f ms total)\n",
			*repeat, float64(elapsed.Microseconds())/float64(*repeat), float64(elapsed.Microseconds())/1000)
	} else {
		var err error
		if res, err = snap.QueryCtx(ctx, *query, opts); err != nil {
			return describeInterrupt(err)
		}
	}

	if *showRewrite && res.RewrittenProgram != "" {
		fmt.Fprintln(out, "% rewritten program")
		fmt.Fprint(out, res.RewrittenProgram)
		for _, s := range res.Seeds {
			fmt.Fprintf(out, "%s.\n", s)
		}
		fmt.Fprintln(out)
	}
	if *showSafety && res.Safety != nil {
		fmt.Fprintln(out, "% safety report")
		fmt.Fprintf(out, "%%   datalog: %v\n", res.Safety.IsDatalog)
		fmt.Fprintf(out, "%%   magic safe: %v (%s)\n", res.Safety.MagicSafe, res.Safety.MagicSafeReason)
		fmt.Fprintf(out, "%%   counting safe on all data: %v\n", res.Safety.CountingSafe)
		fmt.Fprintf(out, "%%   counting diverges regardless of data: %v\n", res.Safety.CountingDivergesOnAllData)
		fmt.Fprintln(out)
	}

	fmt.Fprintf(out, "%% %d answer(s) to %s\n", len(res.Answers), *query)
	for _, a := range res.Answers {
		fmt.Fprintln(out, trimTuple(a.String()))
	}

	if *showStats {
		s := res.Stats
		fmt.Fprintln(out)
		fmt.Fprintln(out, "% statistics")
		if *factsPath != "" {
			fmt.Fprintf(out, "%%   edb load:        %d fact(s) in %.2f ms (one transaction)\n",
				loadedFacts, float64(loadTime.Microseconds())/1000)
		}
		fmt.Fprintf(out, "%%   strategy:        %s (sip %s)\n", s.Strategy, s.Sip)
		fmt.Fprintf(out, "%%   rewritten rules: %d\n", s.RewrittenRules)
		fmt.Fprintf(out, "%%   derived facts:   %d\n", s.DerivedFacts)
		fmt.Fprintf(out, "%%   auxiliary facts: %d\n", s.AuxFacts)
		fmt.Fprintf(out, "%%   derivations:     %d\n", s.Derivations)
		fmt.Fprintf(out, "%%   iterations:      %d\n", s.Iterations)
		fmt.Fprintf(out, "%%   join probes:     %d\n", s.JoinProbes)
		if s.Strata > 0 {
			fmt.Fprintf(out, "%%   strata:          %d\n", s.Strata)
			fmt.Fprintf(out, "%%   index probes:    %d (%d tuples returned)\n", s.IndexProbes, s.IndexHits)
		}
		if s.CompiledPlans > 0 {
			fmt.Fprintf(out, "%%   compiled plans:  %d (%d ops)\n", s.CompiledPlans, s.PlanOps)
			fmt.Fprintf(out, "%%   pipeline ops:    %d probes, %d scans (%d rows scanned)\n", s.OpProbes, s.OpScans, s.ScanRows)
		}
		if s.WorkerRounds > 0 {
			fmt.Fprintf(out, "%%   parallel eval:   %d shard round(s)\n", s.WorkerRounds)
		}
		if s.StoppedEarly {
			fmt.Fprintf(out, "%%   stopped early:   after %d answer(s) (-first-n)\n", len(res.Answers))
		}
	}
	return nil
}
