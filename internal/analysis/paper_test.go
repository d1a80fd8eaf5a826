package analysis

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adorn"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/rewrite"
	"repro/internal/rewrite/counting"
	gms "repro/internal/rewrite/magic"
	"repro/internal/rewrite/supmagic"
	"repro/internal/safety"
	"repro/internal/sip"
	"repro/internal/topdown"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/E*.golden from the current output")

// paperPrograms are the programs used throughout the paper: the four
// problems of Appendix A.1 plus the running nonlinear same-generation
// example. The paper writes some clauses without a body; each is given an
// explicit base literal here (elem for append's base case, emptylist for
// reverse's), so that every rule is range-restricted and evaluable bottom-up.
var paperPrograms = []struct{ name, src, query string }{
	{"ancestor", `
		a(X, Y) :- p(X, Y).
		a(X, Y) :- p(X, Z), a(Z, Y).
	`, "a(john, Y)"},
	{"nonlinear-ancestor", `
		a(X, Y) :- p(X, Y).
		a(X, Y) :- a(X, Z), a(Z, Y).
	`, "a(john, Y)"},
	{"nested-same-generation", `
		p(X, Y) :- b1(X, Y).
		p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).
	`, "p(john, Y)"},
	{"list-reverse", `
		append(V, [], [V]) :- elem(V).
		append(V, [W | X], [W | Y]) :- append(V, X, Y).
		reverse([], []) :- emptylist(X).
		reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).
	`, "reverse([a, b, c], Y)"},
	{"nonlinear-same-generation", `
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).
	`, "sg(john, Y)"},
}

// Indexes into paperPrograms for the quantitative experiments.
const (
	ancestor = 0
	nestedSG = 2
	nonlinSG = 4
)

// counted bounds the counting runs on acyclic data.
var counted = eval.Options{MaxIterations: 10000}

// TestPaperTables regenerates the paper's experiments E1–E11 and compares
// each with testdata/E<n>.golden: E1–E5 are the adorned and rewritten
// programs of Appendix A.2–A.6, E6–E11 the fact, derivation and safety
// comparisons of Sections 1 and 8–11. Besides the text, each quantitative
// experiment asserts the claim it prints. Run with -update to rewrite the
// files after a deliberate change.
func TestPaperTables(t *testing.T) {
	for _, e := range []struct {
		id, title string
		run       func(*testing.T, *strings.Builder)
	}{
		{"E1", "Adorned rule sets (Appendix A.2)", e1},
		{"E2", "Generalized magic sets (Appendix A.3)", appendix("", variant{"", gms.New(gms.Options{})})},
		{"E3", "Generalized supplementary magic sets (Appendix A.4)", appendix("", variant{"", supmagic.New(supmagic.Options{})})},
		{"E4", "Generalized counting (Appendix A.5, Examples 6 and 8)", appendix("not applicable (Theorem 8.3 conditions fail)",
			variant{" (GC)", counting.New(counting.Options{})}, variant{" (GC + semijoin)", counting.New(counting.Options{Semijoin: true})})},
		{"E5", "Generalized supplementary counting (Appendix A.6, Example 7)", appendix("",
			variant{" (GSC)", counting.NewSupplementary(counting.Options{})}, variant{" (GSC + semijoin)", counting.NewSupplementary(counting.Options{Semijoin: true})})},
		{"E6", "Bound queries: full bottom-up vs magic vs top-down (Section 1)", e6},
		{"E7", "Sip optimality and the cost of magic facts (Section 9)", e7},
		{"E8", "Full vs partial sips (Lemma 9.3)", e8},
		{"E9", "Safety matrix (Section 10)", e9},
		{"E10", "Magic vs supplementary magic vs counting (Section 11)", e10},
		{"E11", "Semijoin optimization ablation (Section 8)", e11},
	} {
		t.Run(e.id, func(t *testing.T) {
			rule := strings.Repeat("=", 66) + "\n"
			var b strings.Builder
			fmt.Fprintf(&b, "%s%s — %s\n%s", rule, e.id, e.title, rule)
			e.run(t, &b)
			b.WriteString("\n")
			checkGolden(t, e.id, b.String())
		})
	}
}

// checkGolden compares got with testdata/<id>.golden, or rewrites the file
// under -update.
func checkGolden(t *testing.T, id, got string) {
	t.Helper()
	path := filepath.Join("testdata", id+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/analysis -run TestPaperTables -update` to create it)", err)
	}
	if got == string(raw) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	n := max(len(gl), len(wl))
	gl, wl = append(gl, make([]string, n-len(gl))...), append(wl, make([]string, n-len(wl))...)
	var diff strings.Builder
	for i := range n {
		if gl[i] != wl[i] {
			fmt.Fprintf(&diff, "line %d:\n  golden: %s\n  got:    %s\n", i+1, wl[i], gl[i])
		}
	}
	t.Errorf("%s differs from %s; if the change is intended, run `go test ./internal/analysis -run TestPaperTables -update`\n%s", id, path, diff.String())
}

func mustAdorn(t *testing.T, prog int, query string, strat sip.Strategy) *adorn.Program {
	t.Helper()
	ad, err := adorn.Adorn(parser.MustParseProgram(paperPrograms[prog].src), parser.MustParseQuery(query), strat)
	if err != nil {
		t.Fatal(err)
	}
	return ad
}

func mustRewrite(t *testing.T, rw rewrite.Rewriter, ad *adorn.Program) *rewrite.Rewriting {
	t.Helper()
	res, err := rw.Rewrite(ad)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameAnswers checks that every run succeeded with the same number of
// answers: each rewriting answers the query as the original program does
// (Sections 4–7).
func sameAnswers(t *testing.T, runs []StrategyRun) {
	t.Helper()
	for _, r := range runs {
		if r.Err != nil || r.Answers != runs[0].Answers {
			t.Errorf("%s: %d answers, err %v; %s has %d", r.Strategy, r.Answers, r.Err, runs[0].Strategy, runs[0].Answers)
		}
	}
}

func e1(t *testing.T, w *strings.Builder) {
	for i, p := range paperPrograms {
		fmt.Fprintf(w, "--- %s ---\n%s", p.name, mustAdorn(t, i, p.query, sip.FullLeftToRight()))
	}
}

// A variant is one rewriting of E2–E5, printed under the program's name
// followed by its suffix.
type variant struct {
	suffix string
	rw     rewrite.Rewriter
}

// appendix prints every paper program under each variant. A semijoin variant
// is printed only when the optimization applies (Theorem 8.3); otherwise
// the line notApplicable, if set, stands in for it.
func appendix(notApplicable string, variants ...variant) func(*testing.T, *strings.Builder) {
	return func(t *testing.T, w *strings.Builder) {
		for i, p := range paperPrograms {
			for _, v := range variants {
				res := mustRewrite(t, v.rw, mustAdorn(t, i, p.query, sip.FullLeftToRight()))
				switch {
				case !strings.Contains(v.suffix, "semijoin") || res.DroppedAnswerBound:
					fmt.Fprintf(w, "--- %s%s ---\n%s", p.name, v.suffix, res)
				case notApplicable != "":
					fmt.Fprintf(w, "--- %s%s --- %s\n", p.name, v.suffix, notApplicable)
				}
			}
		}
	}
}

func e6(t *testing.T, w *strings.Builder) {
	prog := parser.MustParseProgram(paperPrograms[ancestor].src)
	for _, n := range []int{100, 400, 1600} {
		edb, _ := workload.ParentChain("p", n)
		query := fmt.Sprintf("a(n%d, Y)", n/2)
		ad := mustAdorn(t, ancestor, query, sip.FullLeftToRight())
		runs := []StrategyRun{
			MeasureProgram("semi-naive bottom-up + select", prog, parser.MustParseQuery(query), edb, eval.Options{}),
			MeasureRewriting("generalized magic sets", mustRewrite(t, gms.New(gms.Options{}), ad), edb, eval.Options{}),
			MeasureRewriting("generalized supplementary magic", mustRewrite(t, supmagic.New(supmagic.Options{}), ad), edb, eval.Options{}),
			MeasureTopDown("top-down (QSQ reference)", ad, edb, topdown.Options{}),
		}
		fmt.Fprintf(w, "ancestor chain, %d edges, query %s:\n%s\n", n, query, FormatRuns(runs))
		sameAnswers(t, runs)
		// Theorem 9.1: magic computes exactly the reference's answer facts
		// (F) and one magic fact per reference query (Q).
		if m, td := runs[1], runs[3]; m.DerivedFacts != td.DerivedFacts || m.AuxFacts != td.AuxFacts {
			t.Errorf("n=%d: magic facts/aux %d/%d, top-down answers/queries %d/%d (Theorem 9.1)",
				n, m.DerivedFacts, m.AuxFacts, td.DerivedFacts, td.AuxFacts)
		}
	}
}

func e7(t *testing.T, w *strings.Builder) {
	sg := workload.SameGenerationLayers(40, 3, true)
	chain, _ := workload.ParentChain("p", 400)
	for _, inst := range []struct {
		name string
		ad   *adorn.Program
		edb  *database.Store
	}{
		{"ancestor / chain", mustAdorn(t, ancestor, "a(n5, Y)", sip.FullLeftToRight()), chain},
		{"nonlinear same generation / layers", mustAdorn(t, nonlinSG, fmt.Sprintf("sg(%s, Y)", sg.Start), sip.FullLeftToRight()), sg.Store},
	} {
		rw := mustRewrite(t, gms.New(gms.Options{}), inst.ad)
		report, err := VerifySipOptimality(inst.ad, rw, inst.edb)
		if err != nil {
			t.Fatal(err)
		}
		if !report.Optimal() {
			t.Errorf("%s: GMS must be sip-optimal (Theorem 9.1): %s\nmagic∉Q: %v\nQ∉magic: %v\nfacts∉F: %v\nF∉facts: %v",
				inst.name, report, report.MagicNotInQ, report.QNotInMagic, report.FactsNotInF, report.FNotInFacts)
		}
		run := MeasureRewriting("magic", rw, inst.edb, eval.Options{})
		fmt.Fprintf(w, "%-42s sip-optimal=%v  magic facts=%d  queries(Q)=%d  answer facts=%d  F=%d  aux fraction=%.2f\n",
			inst.name, report.Optimal(), report.MagicFacts, report.Queries, report.AnswerFacts, report.ReferenceFacts, run.AuxFraction())
	}
}

func e8(t *testing.T, w *strings.Builder) {
	sg := workload.SameGenerationLayers(160, 6, true)
	var runs []StrategyRun
	for _, strat := range []sip.Strategy{sip.FullLeftToRight(), sip.PartialLeftToRight()} {
		rw := mustRewrite(t, gms.New(gms.Options{}), mustAdorn(t, nonlinSG, fmt.Sprintf("sg(%s, Y)", sg.Start), strat))
		runs = append(runs, MeasureRewriting("magic / "+strat.Name(), rw, sg.Store, eval.Options{}))
	}
	fmt.Fprint(w, FormatRuns(runs))
	fmt.Fprintln(w, "Lemma 9.3: the full sip's fact counts are never above the partial sip's.")
	sameAnswers(t, runs)
	full, partial := runs[0], runs[1]
	if full.DerivedFacts > partial.DerivedFacts || full.AuxFacts > partial.AuxFacts ||
		full.TotalFacts > partial.TotalFacts || full.Derivations > partial.Derivations {
		t.Errorf("full sip %+v exceeds partial sip %+v (Lemma 9.3)", full, partial)
	}
}

func e9(t *testing.T, w *strings.Builder) {
	fmt.Fprintf(w, "%-28s %9s %11s %14s %22s\n", "program", "datalog", "magic safe", "counting safe", "counting diverges (10.3)")
	for i, p := range paperPrograms {
		rep := safety.Analyze(mustAdorn(t, i, p.query, sip.FullLeftToRight()))
		fmt.Fprintf(w, "%-28s %9v %11v %14v %22v\n",
			p.name, rep.IsDatalog, rep.MagicSafe, rep.CountingSafe, rep.CountingMayDivergeOnAllData)
	}
	// On cyclic data magic terminates and counting hits its iteration limit.
	cyclic, start := workload.ParentCycle("p", 6)
	ad := mustAdorn(t, ancestor, fmt.Sprintf("a(%s, Y)", start), sip.FullLeftToRight())
	magicRun := MeasureRewriting("magic on a 6-cycle", mustRewrite(t, gms.New(gms.Options{}), ad), cyclic, eval.Options{})
	countRun := MeasureRewriting("counting on a 6-cycle (limit 50 iterations)",
		mustRewrite(t, counting.New(counting.Options{}), ad), cyclic, eval.Options{MaxIterations: 50})
	fmt.Fprintf(w, "\n%s", FormatRuns([]StrategyRun{magicRun, countRun}))
	if magicRun.Err != nil || magicRun.Answers != 6 {
		t.Errorf("magic on a 6-cycle: %d answers, err %v; want 6", magicRun.Answers, magicRun.Err)
	}
	if !errors.Is(countRun.Err, eval.ErrLimitExceeded) {
		t.Errorf("counting on a 6-cycle: err %v, want the iteration limit (Section 10)", countRun.Err)
	}
}

func e10(t *testing.T, w *strings.Builder) {
	for _, depth := range []int{3, 5, 7} {
		sg := workload.SameGenerationLayers(200, depth, false)
		ad := mustAdorn(t, nonlinSG, fmt.Sprintf("sg(%s, Y)", sg.Start), sip.FullLeftToRight())
		runs := []StrategyRun{
			MeasureRewriting("GMS", mustRewrite(t, gms.New(gms.Options{}), ad), sg.Store, eval.Options{}),
			MeasureRewriting("GSMS", mustRewrite(t, supmagic.New(supmagic.Options{}), ad), sg.Store, eval.Options{}),
			MeasureRewriting("GC + semijoin", mustRewrite(t, counting.New(counting.Options{Semijoin: true}), ad), sg.Store, counted),
			MeasureRewriting("GSC + semijoin", mustRewrite(t, counting.NewSupplementary(counting.Options{Semijoin: true}), ad), sg.Store, counted),
		}
		fmt.Fprintf(w, "nonlinear same generation, 200 leaves x %d layers (acyclic):\n%s\n", depth, FormatRuns(runs))
		sameAnswers(t, runs)
	}
}

func e11(t *testing.T, w *strings.Builder) {
	for _, leaves := range []int{16, 48, 96} {
		sg := workload.NestedSameGeneration(leaves, 3, false)
		ad := mustAdorn(t, nestedSG, fmt.Sprintf("p(%s, Y)", sg.Start), sip.FullLeftToRight())
		plain := mustRewrite(t, counting.New(counting.Options{}), ad)
		opt := mustRewrite(t, counting.New(counting.Options{Semijoin: true}), ad)
		runs := []StrategyRun{
			MeasureRewriting(fmt.Sprintf("GC (answer arity %d)", len(plain.AnswerPattern.Args)), plain, sg.Store, counted),
			MeasureRewriting(fmt.Sprintf("GC + semijoin (answer arity %d)", len(opt.AnswerPattern.Args)), opt, sg.Store, counted),
		}
		fmt.Fprintf(w, "nested same generation, %d leaves x 3 layers (acyclic):\n%s\n", leaves, FormatRuns(runs))
		sameAnswers(t, runs)
		// Section 8: the semijoin drops the answer's bound column and the
		// join literals its indices make redundant, so on acyclic data it
		// computes exactly the facts of the plain rewriting.
		if len(opt.AnswerPattern.Args) >= len(plain.AnswerPattern.Args) || runs[1].DerivedFacts != runs[0].DerivedFacts || runs[1].AuxFacts != runs[0].AuxFacts {
			t.Errorf("%d leaves: %+v against %+v (Section 8)", leaves, runs[1], runs[0])
		}
	}
}
