// Repository-level benchmarks: one benchmark family per experiment of
// EXPERIMENTS.md (E6–E11 are quantitative; E1–E5 are covered by the
// rewriting micro-benchmarks since their artifacts are rule sets, not
// run-time measurements). Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/datalog"
	"repro/internal/adorn"
	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/intern"
	"repro/internal/parser"
	"repro/internal/rewrite"
	"repro/internal/rewrite/counting"
	gms "repro/internal/rewrite/magic"
	"repro/internal/rewrite/supmagic"
	"repro/internal/sip"
	"repro/internal/topdown"
	"repro/internal/workload"
)

const (
	ancestorSrc = `
		a(X, Y) :- p(X, Y).
		a(X, Y) :- p(X, Z), a(Z, Y).
	`
	nonlinearSameGenSrc = `
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).
	`
	nestedSameGenSrc = `
		p(X, Y) :- b1(X, Y).
		p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).
	`
	listReverseSrc = `
		append(V, [], [V]) :- elem(V).
		append(V, [W | X], [W | Y]) :- append(V, X, Y).
		reverse([], []) :- emptylist(X).
		reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).
	`
)

// mustRewrite adorns and rewrites a program for a query.
func mustRewrite(b *testing.B, src, query string, rw rewrite.Rewriter) (*adorn.Program, *rewrite.Rewriting) {
	b.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		b.Fatal(err)
	}
	q, err := parser.ParseQuery(query)
	if err != nil {
		b.Fatal(err)
	}
	ad, err := adorn.Adorn(prog, q, sip.FullLeftToRight())
	if err != nil {
		b.Fatal(err)
	}
	res, err := rw.Rewrite(ad)
	if err != nil {
		b.Fatal(err)
	}
	return ad, res
}

// evalRewriting evaluates a rewriting over a copy-on-write overlay of the
// database with its seeds (compilation included, as in a cold query).
func evalRewriting(b *testing.B, res *rewrite.Rewriting, edb *database.Store) *eval.Stats {
	b.Helper()
	_, stats, err := evalCold(res.Program, edb, res.Seeds, eval.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return stats
}

// evalCold prepares a program for the database's symbol table and evaluates
// it semi-naively over the database plus the seeds.
func evalCold(prog *ast.Program, edb *database.Store, seeds []ast.Atom, opts eval.Options) (*database.Store, *eval.Stats, error) {
	pp, err := eval.Prepare(prog, edb.Table())
	if err != nil {
		return nil, nil, err
	}
	return pp.EvaluateCtx(context.Background(), edb, seeds, opts)
}

// reportFacts attaches fact counts as custom benchmark metrics so the
// benchmark output doubles as the experiment's table.
func reportFacts(b *testing.B, run analysis.StrategyRun) {
	b.ReportMetric(float64(run.DerivedFacts), "facts")
	b.ReportMetric(float64(run.AuxFacts), "aux-facts")
	b.ReportMetric(float64(run.Answers), "answers")
}

// --- E6: bound ancestor queries on chains -----------------------------------

func BenchmarkE6AncestorChain(b *testing.B) {
	prog := parser.MustParseProgram(ancestorSrc)
	for _, n := range []int{100, 400, 1600} {
		edb, _ := workload.ParentChain("p", n)
		query := parser.MustParseQuery(fmt.Sprintf("a(n%d, Y)", n/2))
		ad, err := adorn.Adorn(prog, query, sip.FullLeftToRight())
		if err != nil {
			b.Fatal(err)
		}
		magicRW, err := gms.New(gms.Options{}).Rewrite(ad)
		if err != nil {
			b.Fatal(err)
		}

		b.Run(fmt.Sprintf("naive-bottom-up/n=%d", n), func(b *testing.B) {
			var run analysis.StrategyRun
			for i := 0; i < b.N; i++ {
				run = analysis.MeasureProgram("naive", prog, query, edb, eval.Options{})
				if run.Err != nil {
					b.Fatal(run.Err)
				}
			}
			reportFacts(b, run)
		})
		b.Run(fmt.Sprintf("magic/n=%d", n), func(b *testing.B) {
			var run analysis.StrategyRun
			for i := 0; i < b.N; i++ {
				run = analysis.MeasureRewriting("magic", magicRW, edb, eval.Options{})
				if run.Err != nil {
					b.Fatal(run.Err)
				}
			}
			reportFacts(b, run)
		})
		b.Run(fmt.Sprintf("top-down/n=%d", n), func(b *testing.B) {
			var run analysis.StrategyRun
			for i := 0; i < b.N; i++ {
				run = analysis.MeasureTopDown("top-down", ad, edb, topdown.Options{})
				if run.Err != nil {
					b.Fatal(run.Err)
				}
			}
			reportFacts(b, run)
		})
	}
}

// --- E7: sip-optimality verification cost ------------------------------------

func BenchmarkE7SipOptimalityCheck(b *testing.B) {
	edb, _ := workload.ParentChain("p", 200)
	ad, rw := mustRewrite(b, ancestorSrc, "a(n50, Y)", gms.New(gms.Options{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := analysis.VerifySipOptimality(ad, rw, edb)
		if err != nil {
			b.Fatal(err)
		}
		if !report.Optimal() {
			b.Fatal("expected sip optimality")
		}
	}
}

// --- E8: full vs partial sips --------------------------------------------------

func BenchmarkE8FullVsPartialSip(b *testing.B) {
	sg := workload.SameGenerationLayers(24, 3, true)
	prog := parser.MustParseProgram(nonlinearSameGenSrc)
	query := parser.MustParseQuery(fmt.Sprintf("sg(%s, Y)", sg.Start))
	for _, strat := range []sip.Strategy{sip.FullLeftToRight(), sip.PartialLeftToRight()} {
		ad, err := adorn.Adorn(prog, query, strat)
		if err != nil {
			b.Fatal(err)
		}
		rw, err := gms.New(gms.Options{}).Rewrite(ad)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(strat.Name(), func(b *testing.B) {
			var run analysis.StrategyRun
			for i := 0; i < b.N; i++ {
				run = analysis.MeasureRewriting(strat.Name(), rw, sg.Store, eval.Options{})
				if run.Err != nil {
					b.Fatal(run.Err)
				}
			}
			reportFacts(b, run)
		})
	}
}

// --- E9: safety in practice -----------------------------------------------------

func BenchmarkE9MagicOnCyclicData(b *testing.B) {
	cyclic, start := workload.ParentCycle("p", 64)
	_, rw := mustRewrite(b, ancestorSrc, fmt.Sprintf("a(%s, Y)", start), gms.New(gms.Options{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evalRewriting(b, rw, cyclic)
	}
}

func BenchmarkE9CountingDivergenceGuard(b *testing.B) {
	cyclic, start := workload.ParentCycle("p", 16)
	_, rw := mustRewrite(b, ancestorSrc, fmt.Sprintf("a(%s, Y)", start), counting.New(counting.Options{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, evalErr := evalCold(rw.Program, cyclic, rw.Seeds, eval.Options{MaxIterations: 64})
		if !errors.Is(evalErr, eval.ErrLimitExceeded) {
			b.Fatal("expected the iteration limit to trip on cyclic data")
		}
	}
}

// --- E10: the four rewritings head to head --------------------------------------

func BenchmarkE10Strategies(b *testing.B) {
	sg := workload.SameGenerationLayers(32, 3, false)
	query := fmt.Sprintf("sg(%s, Y)", sg.Start)
	rewriters := []struct {
		name string
		rw   rewrite.Rewriter
	}{
		{"GMS", gms.New(gms.Options{})},
		{"GSMS", supmagic.New(supmagic.Options{})},
		{"GC-semijoin", counting.New(counting.Options{Semijoin: true})},
		{"GSC-semijoin", counting.NewSupplementary(counting.Options{Semijoin: true})},
	}
	for _, r := range rewriters {
		_, rw := mustRewrite(b, nonlinearSameGenSrc, query, r.rw)
		b.Run(r.name, func(b *testing.B) {
			var stats *eval.Stats
			for i := 0; i < b.N; i++ {
				stats = evalRewriting(b, rw, sg.Store)
			}
			b.ReportMetric(float64(stats.NewFacts), "facts")
			b.ReportMetric(float64(stats.Derivations), "derivations")
		})
	}
}

// --- E11: semijoin ablation -------------------------------------------------------

func BenchmarkE11SemijoinAblation(b *testing.B) {
	sg := workload.NestedSameGeneration(32, 3, false)
	query := fmt.Sprintf("p(%s, Y)", sg.Start)
	for _, variant := range []struct {
		name     string
		semijoin bool
	}{
		{"GC-plain", false},
		{"GC-semijoin", true},
	} {
		_, rw := mustRewrite(b, nestedSameGenSrc, query, counting.New(counting.Options{Semijoin: variant.semijoin}))
		b.Run(variant.name, func(b *testing.B) {
			var stats *eval.Stats
			for i := 0; i < b.N; i++ {
				stats = evalRewriting(b, rw, sg.Store)
			}
			b.ReportMetric(float64(stats.NewFacts), "facts")
			b.ReportMetric(float64(stats.JoinProbes), "probes")
		})
	}
}

// --- list reverse through every strategy (Appendix A.1 problem 4) -----------------

func BenchmarkListReverse(b *testing.B) {
	wl := workload.List(24)
	query := fmt.Sprintf("reverse(%s, Y)", wl.List)
	rewriters := []struct {
		name string
		rw   rewrite.Rewriter
	}{
		{"GMS", gms.New(gms.Options{})},
		{"GSMS", supmagic.New(supmagic.Options{})},
		{"GC", counting.New(counting.Options{})},
		{"GSC", counting.NewSupplementary(counting.Options{})},
	}
	for _, r := range rewriters {
		_, rw := mustRewrite(b, listReverseSrc, query, r.rw)
		b.Run(r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				evalRewriting(b, rw, wl.Store)
			}
		})
	}
}

// --- storage/scheduler hot path ----------------------------------------------------

// BenchmarkTransitiveClosure computes the full ancestor relation of a chain
// bottom-up with the semi-naive evaluator: the canonical storage-bound
// workload (quadratically many derived tuples, every insert a dedup check).
func BenchmarkTransitiveClosure(b *testing.B) {
	prog := parser.MustParseProgram(ancestorSrc)
	for _, n := range []int{64, 256} {
		edb, _ := workload.ParentChain("p", n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				store, _, err := evalCold(prog, edb, nil, eval.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if got := store.FactCount("a"); got != n*(n+1)/2 {
					b.Fatalf("anc facts = %d", got)
				}
			}
		})
	}
}

// BenchmarkParallelFixpoint measures the parallel fixpoint evaluator on a
// transitive closure over a dense random graph — deltas well past the
// partition threshold, so the hash-partitioned shard rounds carry the work.
// p=1 runs every round on the calling goroutine (the overhead baseline); the
// higher shard counts show the speedup-per-core curve recorded in
// EXPERIMENTS.md.
func BenchmarkParallelFixpoint(b *testing.B) {
	prog := parser.MustParseProgram(ancestorSrc)
	edb, _ := workload.RandomGraph("p", 512, 1024, 9)
	want := -1
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n=512/p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				store, stats, err := evalCold(prog, edb, nil, eval.Options{Parallelism: p})
				if err != nil {
					b.Fatal(err)
				}
				got := store.FactCount("a")
				if want < 0 {
					want = got
				}
				if got != want || got == 0 {
					b.Fatalf("a facts = %d, want %d", got, want)
				}
				if p > 1 && stats.WorkerRounds == 0 {
					b.Fatal("partitioned rounds never fired; workload below threshold")
				}
			}
		})
	}
}

// BenchmarkSameGeneration evaluates the nonlinear same-generation program to
// fixpoint over layered data: a join-heavy workload exercising the
// bound-column indexes and the delta scheduler.
func BenchmarkSameGeneration(b *testing.B) {
	prog := parser.MustParseProgram(nonlinearSameGenSrc)
	for _, leaves := range []int{16, 32} {
		sg := workload.SameGenerationLayers(leaves, 3, false)
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				store, _, err := evalCold(prog, sg.Store, nil, eval.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if store.FactCount("sg") == 0 {
					b.Fatal("no sg facts")
				}
			}
		})
	}
}

// BenchmarkCountingFixpoint evaluates the counting rewriting of the bound
// ancestor query to fixpoint: the workload whose rule firings destructure
// compound index terms in bodies and build them in heads rather than copy
// plain registers.
func BenchmarkCountingFixpoint(b *testing.B) {
	edb, _ := workload.ParentChain("p", 128)
	_, rw := mustRewrite(b, ancestorSrc, "a(n16, Y)", counting.New(counting.Options{Semijoin: true}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evalRewriting(b, rw, edb)
	}
}

// --- substrate micro-benchmarks ----------------------------------------------------

func BenchmarkRewritingOnly(b *testing.B) {
	prog := parser.MustParseProgram(nestedSameGenSrc)
	query := parser.MustParseQuery("p(john, Y)")
	rewriters := []struct {
		name string
		rw   rewrite.Rewriter
	}{
		{"adorn+GMS", gms.New(gms.Options{})},
		{"adorn+GSMS", supmagic.New(supmagic.Options{})},
		{"adorn+GC-semijoin", counting.New(counting.Options{Semijoin: true})},
	}
	for _, r := range rewriters {
		b.Run(r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ad, err := adorn.Adorn(prog, query, sip.FullLeftToRight())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.rw.Rewrite(ad); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkUnification(b *testing.B) {
	t1 := ast.C("f", ast.V("X"), ast.C("g", ast.V("Y"), ast.S("a")), ast.List(ast.V("Z"), ast.I(3)))
	t2 := ast.C("f", ast.S("c"), ast.C("g", ast.I(7), ast.V("W")), ast.List(ast.S("d"), ast.I(3)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := ast.NewSubst()
		if !ast.Unify(t1, t2, s) {
			b.Fatal("expected unification to succeed")
		}
	}
}

func BenchmarkParser(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parser.ParseProgram(nestedSameGenSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatabaseInsertLookup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rel := database.NewRelationWith(intern.NewTable(), "e", 2)
		for j := 0; j < 200; j++ {
			rel.MustInsert(database.Tuple{ast.I(int64(j % 50)), ast.I(int64(j))})
		}
		hits := 0
		for j := 0; j < 50; j++ {
			for cur := rel.Lookup([]int{0}, []ast.Term{ast.I(int64(j))}); cur.Next() >= 0; {
				hits++
			}
		}
		if hits != 200 {
			b.Fatalf("hits = %d", hits)
		}
	}
}

// chainSnapshot compiles the ancestor program afresh (so its form cache is
// cold) and binds it to a snapshot of a new database holding the chain
// p(n0, n1) … p(n{n-1}, n{n}).
func chainSnapshot(b *testing.B, n int) *datalog.Snapshot {
	b.Helper()
	prog, err := datalog.Compile(ancestorSrc)
	if err != nil {
		b.Fatal(err)
	}
	db := datalog.NewDatabase()
	txn := db.Begin()
	for i := 0; i < n; i++ {
		if err := txn.Assert("p", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)); err != nil {
			b.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		b.Fatal(err)
	}
	return db.Snapshot().With(prog)
}

func BenchmarkFacadeQuery(b *testing.B) {
	snap := chainSnapshot(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := snap.Query("a(n250, Y)", datalog.Options{Strategy: datalog.MagicSets})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Answers) != 50 {
			b.Fatalf("answers = %d", len(res.Answers))
		}
	}
}

// BenchmarkPreparedQuery measures the serving layer: the same facade point
// query as BenchmarkFacadeQuery, but prepared once and then run many times.
// "same-constant" repeats one bound constant; "varying-constant" sweeps the
// constants so every run parameterizes fresh seeds (the per-form rewrite
// and compile work stays amortized either way, and no run clones the EDB).
// "cold-engine" is the upper bound for comparison: a freshly compiled
// program and database per call, so every call pays parse + adorn +
// rewrite + compile.
func BenchmarkPreparedQuery(b *testing.B) {
	b.Run("same-constant", func(b *testing.B) {
		pq, err := chainSnapshot(b, 300).Prepare("a(n250, Y)", datalog.Options{Strategy: datalog.MagicSets})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := pq.Run()
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Answers) != 50 {
				b.Fatalf("answers = %d", len(res.Answers))
			}
		}
	})
	b.Run("varying-constant", func(b *testing.B) {
		pq, err := chainSnapshot(b, 300).Prepare("a(n250, Y)", datalog.Options{Strategy: datalog.MagicSets})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := 200 + i%100
			res, err := pq.Run(fmt.Sprintf("n%d", c))
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Answers) != 300-c {
				b.Fatalf("answers = %d, want %d", len(res.Answers), 300-c)
			}
		}
	})
	b.Run("cold-engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			snap := chainSnapshot(b, 300)
			b.StartTimer()
			res, err := snap.Query("a(n250, Y)", datalog.Options{Strategy: datalog.MagicSets})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Answers) != 50 {
				b.Fatalf("answers = %d", len(res.Answers))
			}
		}
	})
	// The n290 pair isolates the per-form overhead: its evaluation derives
	// only ~55 facts, so the amortized parse/adorn/rewrite/compile work is
	// the dominant term of the cold path.
	b.Run("short-suffix-prepared", func(b *testing.B) {
		pq, err := chainSnapshot(b, 300).Prepare("a(n290, Y)", datalog.Options{Strategy: datalog.MagicSets})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := pq.Run()
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Answers) != 10 {
				b.Fatalf("answers = %d", len(res.Answers))
			}
		}
	})
	b.Run("short-suffix-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			snap := chainSnapshot(b, 300)
			b.StartTimer()
			res, err := snap.Query("a(n290, Y)", datalog.Options{Strategy: datalog.MagicSets})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Answers) != 10 {
				b.Fatalf("answers = %d", len(res.Answers))
			}
		}
	})
	// On the chains above the relevant facts are most of the database, so a
	// join order that scans the EDB costs little there. The forest is 200
	// complete binary trees of depth 6 (25,200 facts, the shape of the
	// repository benchmark's read_point); a query from a node one level below
	// a root has 62 answers and is relevant to 62 facts. join_probes/answer
	// says whether the evaluation touched the relevant facts or all of them.
	b.Run("forest", func(b *testing.B) {
		prog, err := datalog.Compile(ancestorSrc)
		if err != nil {
			b.Fatal(err)
		}
		db := datalog.NewDatabase()
		var facts strings.Builder
		for t := 0; t < 200; t++ {
			for k := 0; 2*k+2 < 127; k++ {
				fmt.Fprintf(&facts, "p(t%d_%d, t%d_%d). p(t%d_%d, t%d_%d). ", t, k, t, 2*k+1, t, k, t, 2*k+2)
			}
		}
		if err := db.AssertText(facts.String()); err != nil {
			b.Fatal(err)
		}
		pq, err := db.Snapshot().With(prog).Prepare("a(t0_1, Y)", datalog.Options{Strategy: datalog.MagicSets})
		if err != nil {
			b.Fatal(err)
		}
		var probes int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := pq.Run(fmt.Sprintf("t%d_%d", i%200, 1+i%2))
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Answers) != 62 {
				b.Fatalf("answers = %d", len(res.Answers))
			}
			probes += res.Stats.JoinProbes
		}
		b.ReportMetric(float64(probes)/float64(b.N)/62, "join_probes/answer")
	})
}

// BenchmarkFirstN measures time-to-first-answer on the transitive-closure
// point query a(n10, Y) over a 300-node chain (290 answers; the full
// fixpoint derives tens of thousands of tuples). "full" materializes the
// whole result through Run; "stream-first-1" consumes one row of a Stream
// whose form carries FirstN = 1, so the evaluation itself is cut off within
// one delta round of the first answer. The gap between the two is the cost
// the old all-or-nothing API imposed on existence-style point queries.
func BenchmarkFirstN(b *testing.B) {
	snap := chainSnapshot(b, 300)
	ctx := context.Background()
	for _, strat := range []datalog.Strategy{datalog.MagicSets, datalog.SemiNaive} {
		full, err := snap.Prepare("a(n10, Y)", datalog.Options{Strategy: strat})
		if err != nil {
			b.Fatal(err)
		}
		first, err := snap.Prepare("a(n10, Y)", datalog.Options{Strategy: strat, FirstN: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("full/%s", strat), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := full.RunCtx(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Answers) != 290 {
					b.Fatalf("answers = %d", len(res.Answers))
				}
			}
		})
		b.Run(fmt.Sprintf("stream-first-1/%s", strat), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows := 0
				for row, err := range first.Stream(ctx) {
					if err != nil {
						b.Fatal(err)
					}
					if len(row) != 1 {
						b.Fatalf("row = %v", row)
					}
					rows++
				}
				if rows != 1 {
					b.Fatalf("streamed %d rows, want 1", rows)
				}
			}
		})
	}
}

// BenchmarkBatchAssert measures the PR 5 batch write path: loading 10k
// facts through one buffered transaction (one write-lock acquisition, bulk
// interning, bulk row inserts, one commit) versus 10k per-fact Assert calls
// (each a one-fact transaction). The per-op unit is one whole 10k-fact
// load; the ISSUE's acceptance bar is batch ≥ 5× faster than per-fact.
func BenchmarkBatchAssert(b *testing.B) {
	const nFacts = 10_000
	preds := make([][2]string, nFacts)
	for i := range preds {
		preds[i] = [2]string{fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", (i*13+7)%nFacts)}
	}
	b.Run("txn-batch-10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := datalog.NewDatabase()
			txn := db.Begin()
			for _, p := range preds {
				if err := txn.Assert("edge", p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
			if err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
			if db.FactCount("edge") != nFacts {
				b.Fatalf("loaded %d facts", db.FactCount("edge"))
			}
		}
		b.ReportMetric(nFacts, "facts")
	})
	b.Run("per-fact-10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := datalog.NewDatabase()
			for _, p := range preds {
				if err := db.Assert("edge", p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
			if db.FactCount("edge") != nFacts {
				b.Fatalf("loaded %d facts", db.FactCount("edge"))
			}
		}
		b.ReportMetric(nFacts, "facts")
	})
	// The -with-snapshots variants measure the same load in the serving
	// scenario the snapshot API exists for: readers pin a snapshot every 100
	// facts while the load is in flight. The batched writer still commits
	// once (at most one copy-on-write clone); the per-fact writer commits
	// 10k times, and every commit that follows a fresh snapshot must clone
	// the relation before writing — the cost of tearing a bulk write into
	// visible pieces.
	b.Run("txn-batch-10k-with-snapshots", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := datalog.NewDatabase()
			txn := db.Begin()
			for j, p := range preds {
				if j%100 == 0 {
					_ = db.Snapshot()
				}
				if err := txn.Assert("edge", p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
			if err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(nFacts, "facts")
	})
	b.Run("per-fact-10k-with-snapshots", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := datalog.NewDatabase()
			for j, p := range preds {
				if j%100 == 0 {
					_ = db.Snapshot()
				}
				if err := db.Assert("edge", p[0], p[1]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(nFacts, "facts")
	})
}

// BenchmarkWALCommit measures what durability costs on the batch write
// path: one 10k-fact transaction per op, committed against a memory-only
// database (the zero-cost default — no Backend, no extra branches taken)
// and against a WAL-backed one under each fsync policy. fsync=always pays
// one encode + write + fsync per commit; fsync=interval decouples the
// fsync onto the background ticker and must land within 2× of
// memory-only; fsync=none isolates the pure encode + buffered-write tax.
func BenchmarkWALCommit(b *testing.B) {
	const nFacts = 10_000
	commit := func(b *testing.B, db *datalog.Database, round int) {
		b.Helper()
		txn := db.Begin()
		for j := 0; j < nFacts; j++ {
			if err := txn.Assert("edge", fmt.Sprintf("r%d_%d", round, j), fmt.Sprintf("r%d_%d", round, j+1)); err != nil {
				b.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("memory-only", func(b *testing.B) {
		db := datalog.NewDatabase()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			commit(b, db, i)
		}
		b.ReportMetric(nFacts, "facts/commit")
	})
	for _, policy := range []string{datalog.FsyncAlways, datalog.FsyncInterval, datalog.FsyncNone} {
		b.Run("wal-fsync="+policy, func(b *testing.B) {
			db, err := datalog.Open(b.TempDir(), datalog.OpenOptions{Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commit(b, db, i)
			}
			b.StopTimer()
			if ds, ok := db.DurabilityStats(); ok {
				b.ReportMetric(float64(ds.Fsyncs)/float64(b.N), "fsyncs/commit")
			}
			b.ReportMetric(nFacts, "facts/commit")
		})
	}
}

// BenchmarkRecovery measures startup over a 100k-record log, the scenario
// checkpoints exist for. Both variants replay the same committed history
// (100k single-fact commits over 1MiB segments); "replay-log" recovers by
// decoding and re-applying every record, "from-checkpoint" loads the
// snapshot the final checkpoint published and replays only the (empty)
// suffix past it — the gap between the two is the boot-time cost
// -checkpoint-every amortizes away.
func BenchmarkRecovery(b *testing.B) {
	const nRecords = 100_000
	build := func(b *testing.B, checkpoint bool) string {
		b.Helper()
		dir := b.TempDir()
		db, err := datalog.Open(dir, datalog.OpenOptions{Fsync: datalog.FsyncNone, SegmentBytes: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < nRecords; k++ {
			txn := db.Begin()
			if err := txn.Assert("e", fmt.Sprintf("n%d", k), fmt.Sprintf("n%d", k+1)); err != nil {
				b.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		if checkpoint {
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	for _, variant := range []struct {
		name       string
		checkpoint bool
	}{
		{"replay-log", false},
		{"from-checkpoint", true},
	} {
		b.Run(fmt.Sprintf("%s/records=%d", variant.name, nRecords), func(b *testing.B) {
			dir := build(b, variant.checkpoint)
			b.ReportAllocs()
			b.ResetTimer()
			var replayed int
			for i := 0; i < b.N; i++ {
				db, err := datalog.Open(dir, datalog.OpenOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if got := db.Version(); got != nRecords {
					b.Fatalf("recovered version %d, want %d", got, nRecords)
				}
				if ds, ok := db.DurabilityStats(); ok {
					replayed = ds.ReplayedRecords
				}
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(replayed), "replayed-records")
		})
	}
}

// BenchmarkSnapshotOverhead measures what a per-request pinned view costs:
// taking a snapshot of a 10k-fact database and answering one prepared
// point query on it, versus the same query on one snapshot taken up front
// (the sub-benchmark keeps its historical name, "live-engine", so the
// baseline rows still line up).
func BenchmarkSnapshotOverhead(b *testing.B) {
	prog, err := datalog.Compile(ancestorSrc)
	if err != nil {
		b.Fatal(err)
	}
	db := datalog.NewDatabase()
	txn := db.Begin()
	for i := 0; i < 10_000; i++ {
		if err := txn.Assert("p", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)); err != nil {
			b.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		b.Fatal(err)
	}
	opts := datalog.Options{Strategy: datalog.MagicSets, FirstN: 1}
	b.Run("snapshot-per-query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap := db.Snapshot().With(prog)
			res, err := snap.Query("a(n9990, Y)", opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Answers) == 0 {
				b.Fatal("no answers")
			}
		}
	})
	b.Run("live-engine", func(b *testing.B) {
		snap := db.Snapshot().With(prog)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := snap.Query("a(n9990, Y)", opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Answers) == 0 {
				b.Fatal("no answers")
			}
		}
	})
}

// BenchmarkMaterializedMaintenance measures incremental view maintenance
// (datalog.Database.Materialize) on a materialized transitive-closure
// program. The EDB is many disjoint chains of length 10, so the
// consequences of one edge toggle are bounded by the chain length — which
// is what makes the O(Δ) claim measurable: the maintain/* variants commit
// one assert batch and one retract batch per iteration (2 commits/op, each
// running maintenance inside Commit), and their cost must track the batch
// size, not the EDB size. The point-query/* variants compare a bound query
// over the materialized predicate (a pure index lookup) against cold
// re-derivation of the same answer through the magic rewriting and through
// whole-program semi-naive evaluation. The counting/* variants run the same
// toggles against a non-recursive grandparent program, which is maintained
// by derivation counting instead of DRed.
func BenchmarkMaterializedMaintenance(b *testing.B) {
	const chainLen = 10
	const grandparSrc = `g(X, Y) :- p(X, Z), p(Z, Y).`
	build := func(b *testing.B, chains int, src string) *datalog.Database {
		b.Helper()
		db := datalog.NewDatabase()
		txn := db.Begin()
		for c := 0; c < chains; c++ {
			for j := 0; j < chainLen; j++ {
				if err := txn.Assert("p", fmt.Sprintf("c%d_n%d", c, j), fmt.Sprintf("c%d_n%d", c, j+1)); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
		prog, err := datalog.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Materialize(prog); err != nil {
			b.Fatal(err)
		}
		return db
	}
	toggle := func(b *testing.B, db *datalog.Database, batch int, assert bool) {
		b.Helper()
		txn := db.Begin()
		for k := 0; k < batch; k++ {
			from, to := fmt.Sprintf("c%d_n%d", k, chainLen/2), fmt.Sprintf("x%d", k)
			var err error
			if assert {
				err = txn.Assert("p", from, to)
			} else {
				err = txn.Retract("p", from, to)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	for _, algo := range []struct{ name, src string }{
		{"maintain", ancestorSrc},
		{"counting", grandparSrc},
	} {
		for _, cfg := range []struct{ chains, batch int }{
			{100, 10},   // small EDB, fixed batch
			{1000, 10},  // 10x the EDB, same batch: ns/op should barely move
			{1000, 1},   // batch sweep at fixed EDB: ns/op should track batch
			{1000, 100}, //
		} {
			name := fmt.Sprintf("%s/edb=%d/batch=%d", algo.name, cfg.chains*chainLen, cfg.batch)
			b.Run(name, func(b *testing.B) {
				db := build(b, cfg.chains, algo.src)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					toggle(b, db, cfg.batch, true)
					toggle(b, db, cfg.batch, false)
				}
				b.StopTimer()
				if ms, ok := db.MaterializedStats(); ok {
					b.ReportMetric(float64(ms.Facts), "idb-facts")
				}
			})
		}
	}

	db := build(b, 1000, ancestorSrc)
	prog, err := datalog.Compile(ancestorSrc)
	if err != nil {
		b.Fatal(err)
	}
	// Materialize pinned its own compiled instance inside build; re-register
	// with this one so the snapshot below and the registration share it.
	if err := db.Materialize(prog); err != nil {
		b.Fatal(err)
	}
	snap := db.Snapshot().With(prog)
	point := func(b *testing.B, opts datalog.Options, wantHit bool) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := snap.Query("a(c0_n0, Y)", opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Answers) != chainLen {
				b.Fatalf("answers = %d, want %d", len(res.Answers), chainLen)
			}
			if res.Stats.MaterializedHit != wantHit {
				b.Fatalf("MaterializedHit = %v, want %v", res.Stats.MaterializedHit, wantHit)
			}
		}
	}
	b.Run("point-query/materialized-lookup", func(b *testing.B) {
		point(b, datalog.Options{}, true)
	})
	b.Run("point-query/rederive-magic", func(b *testing.B) {
		point(b, datalog.Options{Strategy: datalog.MagicSets, NoMaterialize: true}, false)
	})
	b.Run("point-query/rederive-seminaive", func(b *testing.B) {
		point(b, datalog.Options{Strategy: datalog.SemiNaive, NoMaterialize: true}, false)
	})
}

// pinSizes are the relation sizes the commit-after-pin and clone benchmarks
// run at: the repository benchmark's 25,200-fact forest, and ten times it.
var pinSizes = []struct {
	name string
	rows int
}{{"25k", 25_000}, {"250k", 250_000}}

// BenchmarkCommitAfterPin measures a one-fact commit to a relation of
// rows=N facts with a built column index, after a snapshot: none taken
// (snapshot=none), one taken and released before the commit
// (snapshot=released), or one still live during the commit and released
// after it (snapshot=live). A live snapshot makes the commit copy the
// relation; a released one must leave it as cheap as no snapshot at all.
// The commits alternately assert and retract one fact, so the relation
// keeps its size.
func BenchmarkCommitAfterPin(b *testing.B) {
	prog, err := datalog.Compile(ancestorSrc)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range pinSizes {
		db := datalog.NewDatabase()
		txn := db.Begin()
		for i := 0; i < size.rows; i++ {
			if err := txn.Assert("p", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)); err != nil {
				b.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
		// A bound read builds the index on p's first column, as a served
		// magic query does.
		snap := db.Snapshot().With(prog)
		if _, err := snap.Query("a(n0, Y)", datalog.Options{FirstN: 1}); err != nil {
			b.Fatal(err)
		}
		snap.Release()
		present := false
		for _, mode := range []string{"none", "released", "live"} {
			b.Run(fmt.Sprintf("rows=%s/snapshot=%s", size.name, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var snap *datalog.Snapshot
					if mode != "none" {
						snap = db.Snapshot()
					}
					if mode == "released" {
						snap.Release()
					}
					write := db.Assert
					if present {
						write = db.Retract
					}
					if err := write("p", "x", "y"); err != nil {
						b.Fatal(err)
					}
					present = !present
					if mode == "live" {
						snap.Release()
					}
				}
			})
		}
	}
}

// BenchmarkRelationClone measures the copy a commit makes of a relation a
// live snapshot pins: rows=N arity-2 facts, committed through Store.Apply,
// with one built column index.
func BenchmarkRelationClone(b *testing.B) {
	for _, size := range pinSizes {
		b.Run("rows="+size.name, func(b *testing.B) {
			store := database.NewStore()
			atoms := make([]ast.Atom, size.rows)
			for i := range atoms {
				atoms[i] = ast.NewAtom("p", ast.S(fmt.Sprintf("n%d", i/2)), ast.S(fmt.Sprintf("n%d", i)))
			}
			if _, _, err := store.Apply(nil, atoms); err != nil {
				b.Fatal(err)
			}
			rel := store.Existing("p")
			key, _ := store.Table().Find(ast.S("n0"))
			if len(rel.LookupIDs([]int{0}, []intern.ID{key})) == 0 {
				b.Fatal("index probe found nothing")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rel.Clone().Len() != size.rows {
					b.Fatal("clone lost rows")
				}
			}
		})
	}
}
