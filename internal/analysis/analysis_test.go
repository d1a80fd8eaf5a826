package analysis

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/rewrite/magic"
	"repro/internal/rewrite/supmagic"
	"repro/internal/sip"
	"repro/internal/topdown"
	"repro/internal/workload"
)

// TestTheorem91AncestorChain verifies sip-optimality of GMS on the ancestor
// program over a chain: the magic facts are exactly the subqueries of the
// reference top-down strategy and the adorned facts are exactly its answers.
func TestTheorem91AncestorChain(t *testing.T) {
	edb, _ := workload.ParentChain("p", 15)
	ad := mustAdorn(t, ancestor, "a(n4, Y)", sip.FullLeftToRight())
	report, err := VerifySipOptimality(ad, mustRewrite(t, magic.New(magic.Options{}), ad), edb)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Optimal() {
		t.Errorf("GMS should be sip-optimal: %s\nmagic∉Q: %v\nQ∉magic: %v\nfacts∉F: %v\nF∉facts: %v",
			report, report.MagicNotInQ, report.QNotInMagic, report.FactsNotInF, report.FNotInFacts)
	}
	if report.MagicFacts != report.Queries || report.AnswerFacts != report.ReferenceFacts {
		t.Errorf("fact/query counts must agree: %s", report)
	}
	if report.String() == "" {
		t.Error("report rendering empty")
	}
}

// TestTheorem91SameGeneration verifies sip-optimality on the nonlinear
// same-generation program under the full (compressed) sip. The reference
// top-down evaluator keeps the whole rule context while solving a body, so
// its query set Q coincides with the queries of a compressed sip; for
// partial sips (which deliberately forget context) the bottom-up magic
// program generates additional subqueries, which is exactly the behaviour
// Lemma 9.3 describes and TestPartialSipGeneratesSupersetOfQueries covers.
func TestTheorem91SameGeneration(t *testing.T) {
	sg := workload.SameGenerationLayers(5, 2, true)
	ad := mustAdorn(t, nonlinSG, "sg(l0_0, Y)", sip.FullLeftToRight())
	report, err := VerifySipOptimality(ad, mustRewrite(t, magic.New(magic.Options{}), ad), sg.Store)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Optimal() {
		t.Errorf("GMS should be sip-optimal: %s\nmagic∉Q: %v\nQ∉magic: %v\nfacts∉F: %v\nF∉facts: %v",
			report, report.MagicNotInQ, report.QNotInMagic, report.FactsNotInF, report.FNotInFacts)
	}
}

// TestPartialSipGeneratesSupersetOfQueries documents the flip side of
// TestTheorem91SameGeneration: under the partial sip, the magic
// program's subqueries are a superset of the compressed-sip reference's
// subqueries, never a subset (Lemma 9.3 in terms of queries).
func TestPartialSipGeneratesSupersetOfQueries(t *testing.T) {
	sg := workload.SameGenerationLayers(5, 2, true)
	ad := mustAdorn(t, nonlinSG, "sg(l0_0, Y)", sip.PartialLeftToRight())
	report, err := VerifySipOptimality(ad, mustRewrite(t, magic.New(magic.Options{}), ad), sg.Store)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.QNotInMagic) != 0 || len(report.FNotInFacts) != 0 {
		t.Errorf("the partial-sip magic program must still cover every reference query and fact: %v / %v",
			report.QNotInMagic, report.FNotInFacts)
	}
	if report.MagicFacts < report.Queries {
		t.Errorf("partial sip should generate at least as many subqueries (%d) as the compressed reference (%d)",
			report.MagicFacts, report.Queries)
	}
}

// TestMeasureRewritingAndProgram exercises the strategy measurement helpers
// that back experiment E6/E7: magic computes far fewer facts than the
// unrewritten program, and its auxiliary (magic) facts are a minority of the
// facts it does compute.
func TestMeasureRewritingAndProgram(t *testing.T) {
	edb, _ := workload.ParentChain("p", 40)
	prog := parser.MustParseProgram(paperPrograms[ancestor].src)
	naive := MeasureProgram("naive bottom-up", prog, parser.MustParseQuery("a(n35, Y)"), edb, eval.Options{})
	if naive.Err != nil {
		t.Fatal(naive.Err)
	}

	ad := mustAdorn(t, ancestor, "a(n35, Y)", sip.FullLeftToRight())
	magicRun := MeasureRewriting("magic", mustRewrite(t, magic.New(magic.Options{}), ad), edb, eval.Options{})
	if magicRun.Err != nil {
		t.Fatal(magicRun.Err)
	}
	if magicRun.Answers != naive.Answers || magicRun.Answers != 5 {
		t.Errorf("answers: magic %d, naive %d, want 5", magicRun.Answers, naive.Answers)
	}
	if magicRun.TotalFacts >= naive.TotalFacts {
		t.Errorf("magic total facts %d should be far below naive %d", magicRun.TotalFacts, naive.TotalFacts)
	}
	if magicRun.AuxFacts == 0 || magicRun.DerivedFacts == 0 {
		t.Errorf("magic run should report both aux and derived facts: %+v", magicRun)
	}
	if f := magicRun.AuxFraction(); f <= 0 || f >= 1 {
		t.Errorf("aux fraction = %f", f)
	}

	td := MeasureTopDown("top-down", ad, edb, topdown.Options{})
	if td.Err != nil || td.Answers != 5 {
		t.Errorf("top-down run: %+v", td)
	}

	table := FormatRuns([]StrategyRun{naive, magicRun, td})
	for _, want := range []string{"naive bottom-up", "magic", "top-down", "answers"} {
		if !strings.Contains(table, want) {
			t.Errorf("comparison table missing %q:\n%s", want, table)
		}
	}
}

// TestSupplementaryMeasure checks the GSMS run is measured with its sup_
// predicates counted as auxiliary facts.
func TestSupplementaryMeasure(t *testing.T) {
	edb, _ := workload.ParentChain("p", 20)
	rw := mustRewrite(t, supmagic.New(supmagic.Options{}), mustAdorn(t, ancestor, "a(n0, Y)", sip.FullLeftToRight()))
	run := MeasureRewriting("supplementary magic", rw, edb, eval.Options{})
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	if run.AuxFacts == 0 {
		t.Error("supplementary magic must report auxiliary facts (magic + sup)")
	}
	if run.Answers != 20 {
		t.Errorf("answers = %d, want 20", run.Answers)
	}
}

// TestMeasureReportsErrors checks that failing runs surface their error and
// partial statistics instead of panicking.
func TestMeasureReportsErrors(t *testing.T) {
	// Unsafe rule: bottom-up evaluation fails with ErrNonGroundFact.
	prog := ast.NewProgram(ast.NewRule(
		ast.NewAtom("p", ast.V("X"), ast.V("W")),
		ast.NewAtom("q", ast.V("X")),
	))
	edb := workloadWithQ()
	run := MeasureProgram("unsafe", prog, parser.MustParseQuery("p(a, Y)"), edb, eval.Options{})
	if run.Err == nil {
		t.Error("expected an error for the unsafe program")
	}
	out := FormatRuns([]StrategyRun{run})
	if !strings.Contains(out, "[") {
		t.Errorf("error marker missing from table:\n%s", out)
	}
}

func workloadWithQ() *database.Store {
	s, _ := workload.ParentChain("par", 2)
	s.MustAddFact(ast.NewAtom("q", ast.S("a")))
	return s
}

// TestVerifySipOptimalityErrors exercises the error paths of the optimality
// checker.
func TestVerifySipOptimalityErrors(t *testing.T) {
	edb, _ := workload.ParentChain("p", 3)
	ad := mustAdorn(t, ancestor, "a(n0, Y)", sip.FullLeftToRight())
	rw := mustRewrite(t, magic.New(magic.Options{}), ad)
	if _, err := VerifySipOptimality(ad, nil, edb); err == nil {
		t.Error("nil rewriting must be rejected")
	}
	// A rewriting whose program is unsafe for bottom-up evaluation surfaces
	// the evaluation error.
	bad := *rw
	badProg := parser.MustParseProgram(`
		a(X, W) :- p(X, Z).
	`)
	bad.Program = badProg
	if _, err := VerifySipOptimality(ad, &bad, edb); err == nil {
		t.Error("an unsafe rewritten program must surface an evaluation error")
	}
}
