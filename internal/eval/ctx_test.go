package eval

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/parser"
)

// cycleStore builds a par relation forming a cycle of n nodes, on which the
// counting program below diverges.
func cycleStore(n int) *database.Store {
	s := database.NewStore()
	for i := 0; i < n; i++ {
		s.MustAddFact(ast.NewAtom("par", ast.S(fmt.Sprintf("n%d", i)), ast.S(fmt.Sprintf("n%d", (i+1)%n))))
	}
	return s
}

// divergentProgram mimics the index-increasing half of a counting
// rewriting: over a cyclic par relation the successor index s(I) grows
// without bound, so
// the fixpoint never terminates and only a limit or a cancellation stops it.
func divergentProgram(t *testing.T) (*Prepared, *database.Store) {
	t.Helper()
	prog := ast.NewProgram(
		ast.NewRule(
			ast.NewAtom("cnt", ast.I(0), ast.V("X")),
			ast.NewAtom("seed", ast.V("X")),
		),
		ast.NewRule(
			ast.NewAtom("cnt", ast.C("s", ast.V("I")), ast.V("Y")),
			ast.NewAtom("cnt", ast.V("I"), ast.V("X")),
			ast.NewAtom("par", ast.V("X"), ast.V("Y")),
		),
	)
	edb := cycleStore(6)
	edb.MustAddFact(ast.NewAtom("seed", ast.S("n0")))
	pp, err := Prepare(prog, edb.Table())
	if err != nil {
		t.Fatal(err)
	}
	return pp, edb
}

func TestEvaluateCtxDeadline(t *testing.T) {
	pp, edb := divergentProgram(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	store, stats, err := pp.EvaluateCtx(ctx, edb, nil, Options{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded wrap", err)
	}
	if errors.Is(err, ErrLimitExceeded) {
		t.Errorf("context error must be distinct from ErrLimitExceeded: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("evaluation returned after %v, want prompt interruption", elapsed)
	}
	if store == nil || stats == nil {
		t.Error("partial store and stats must be returned on cancellation")
	}
}

func TestNilContextMeansBackground(t *testing.T) {
	prog := parser.MustParseProgram(ancestorSrc)
	edb := chainStore(4)
	pp, err := Prepare(prog, edb.Table())
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := pp.EvaluateCtx(nil, edb, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := store.FactCount("anc"); got != 10 {
		t.Errorf("anc facts = %d, want 10", got)
	}
}

// TestStopEarlyTruncates pins the between-rounds StopEarly contract:
// evaluation stops at the first round boundary where the predicate holds,
// the stats carry StoppedEarly, and no error is reported.
func TestStopEarlyTruncates(t *testing.T) {
	prog := parser.MustParseProgram(ancestorSrc)
	edb := chainStore(64)
	query := ast.NewAtom("anc", ast.S("n0"), ast.V("Y"))
	t.Run("semi-naive", func(t *testing.T) {
		pp, err := Prepare(prog, edb.Table())
		if err != nil {
			t.Fatal(err)
		}
		full, fullStats, err := pp.EvaluateCtx(context.Background(), edb, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		truncated, stats, err := pp.EvaluateCtx(context.Background(), edb, nil, Options{
			StopEarly: func(s *database.Store) bool {
				return CountAnswers(s, "anc", query) >= 1
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.StoppedEarly {
			t.Error("StoppedEarly = false")
		}
		if fullStats.StoppedEarly {
			t.Error("full run reports StoppedEarly")
		}
		if CountAnswers(truncated, "anc", query) == 0 {
			t.Error("truncated store holds no answers")
		}
		if truncated.FactCount("anc") >= full.FactCount("anc") {
			t.Errorf("truncated run derived %d anc facts, full run %d; expected real truncation",
				truncated.FactCount("anc"), full.FactCount("anc"))
		}
		// Truncation is sound: every derived fact is in the full fixpoint.
		for _, a := range truncated.Atoms("anc") {
			if !full.Existing("anc").Contains(database.Tuple(a.Args)) {
				t.Errorf("truncated run derived %s, which the full fixpoint does not contain", a)
			}
		}
	})
}

// TestAnswerRowsAgreesWithAnswers pins the ID-level answer extraction
// against the term-level one, including the limit cap.
func TestAnswerRowsAgreesWithAnswers(t *testing.T) {
	prog := parser.MustParseProgram(ancestorSrc)
	edb := chainStore(12)
	store, _, err := semiNaive(prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	query := ast.NewAtom("anc", ast.S("n3"), ast.V("Y"))
	terms := Answers(store, "anc", query)
	rows := AnswerRows(store, "anc", query, 0)
	if len(rows) != len(terms) {
		t.Fatalf("AnswerRows = %d rows, Answers = %d tuples", len(rows), len(terms))
	}
	tab := store.Table()
	for i, row := range rows {
		if len(row) != len(terms[i]) {
			t.Fatalf("row %d width %d, tuple width %d", i, len(row), len(terms[i]))
		}
		for j, id := range row {
			if !ast.Equal(tab.Term(id), terms[i][j]) {
				t.Errorf("row %d col %d: ID resolves to %s, tuple holds %s", i, j, tab.Term(id), terms[i][j])
			}
		}
	}
	if got := AnswerRows(store, "anc", query, 2); len(got) != 2 {
		t.Errorf("limited AnswerRows = %d rows, want 2", len(got))
	}
	if got := CountAnswers(store, "anc", query); got != len(terms) {
		t.Errorf("CountAnswers = %d, want %d", got, len(terms))
	}
	if got := CountAnswers(store, "missing", query); got != 0 {
		t.Errorf("CountAnswers on a missing relation = %d", got)
	}
}
