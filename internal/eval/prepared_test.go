package eval

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/parser"
	gms "repro/internal/rewrite/magic"
	"repro/internal/sip"
)

// preparedChain builds a parent chain store and the magic rewriting of the
// bound ancestor query over it.
func preparedChain(t *testing.T, n int) (*database.Store, *Prepared, []ast.Atom) {
	t.Helper()
	prog := parser.MustParseProgram(`
		a(X, Y) :- p(X, Y).
		a(X, Y) :- p(X, Z), a(Z, Y).
	`)
	edb := database.NewStore()
	for i := 0; i < n; i++ {
		edb.MustAddFact(ast.NewAtom("p", ast.S(fmt.Sprintf("n%d", i)), ast.S(fmt.Sprintf("n%d", i+1))))
	}
	q := parser.MustParseQuery("a(n0, Y)")
	ad, err := adorn.Adorn(prog, q, sip.FullLeftToRight())
	if err != nil {
		t.Fatal(err)
	}
	rw, err := gms.New(gms.Options{}).Rewrite(ad)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Prepare(rw.Program, edb.Table())
	if err != nil {
		t.Fatal(err)
	}
	return edb, pp, rw.Seeds
}

// TestPreparedReuseAcrossEvaluations checks a Prepared program compiles its
// pipelines once: the first evaluation reports CompiledPlans > 0, repeats
// report 0, and the input store never gains facts.
func TestPreparedReuseAcrossEvaluations(t *testing.T) {
	edb, pp, seeds := preparedChain(t, 20)
	baseFacts := edb.TotalFacts()
	_, stats, err := pp.EvaluateCtx(context.Background(), edb, seeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CompiledPlans == 0 {
		t.Fatal("first evaluation compiled no plans")
	}
	first := stats.NewFacts
	for i := 0; i < 3; i++ {
		store, stats, err := pp.EvaluateCtx(context.Background(), edb, seeds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.CompiledPlans != 0 || stats.PlanOps != 0 {
			t.Fatalf("repeat evaluation %d compiled %d plans / %d ops, want 0", i, stats.CompiledPlans, stats.PlanOps)
		}
		if stats.NewFacts != first {
			t.Fatalf("repeat evaluation %d derived %d facts, first derived %d", i, stats.NewFacts, first)
		}
		if store.FactCount("a^bf") == 0 {
			t.Fatal("no answers in the evaluated overlay")
		}
	}
	if edb.TotalFacts() != baseFacts {
		t.Fatalf("input store grew from %d to %d facts", baseFacts, edb.TotalFacts())
	}
	if edb.Existing("magic_a^bf") != nil || edb.Existing("a^bf") != nil {
		t.Fatal("derived or seed relations leaked into the input store")
	}
}

// TestPreparedTableMismatch checks the guard against evaluating over a
// store interning into a different symbol table than the one the pipelines
// were compiled against.
func TestPreparedTableMismatch(t *testing.T) {
	_, pp, seeds := preparedChain(t, 5)
	other := database.NewStore()
	if _, _, err := pp.EvaluateCtx(context.Background(), other, seeds, Options{}); err == nil {
		t.Fatal("expected a symbol-table mismatch error")
	}
}

// TestPreparedConcurrentEvaluations runs one Prepared program from several
// goroutines over the same base store; under -race this checks the shared
// pipelines, lazily built shared indexes and the intern table are safe.
func TestPreparedConcurrentEvaluations(t *testing.T) {
	edb, pp, seeds := preparedChain(t, 50)
	const workers = 8
	errs := make(chan error, workers)
	pattern := ast.NewAtom("a", ast.S("n0"), ast.V("Y"))
	for w := 0; w < workers; w++ {
		go func() {
			store, _, err := pp.EvaluateCtx(context.Background(), edb, seeds, Options{})
			if err == nil {
				if got := len(Answers(store, "a^bf", pattern)); got != 50 {
					err = fmt.Errorf("answers = %d, want 50", got)
				}
			}
			errs <- err
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
