package datalog

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ast"
)

// cycleFixture builds a fixture whose par relation is a cycle of n nodes: the
// counting rewritings diverge on it (Theorem 10.3 in practice), which is the
// workload the cancellation tests interrupt.
func cycleFixture(t *testing.T, n int) fixture {
	t.Helper()
	fx := newFixture(t, ancestorProgram)
	for i := 0; i < n; i++ {
		if err := fx.db.Assert("par", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i+1)%n)); err != nil {
			t.Fatal(err)
		}
	}
	return fx
}

// TestDeadlineInterruptsDivergentCounting is the acceptance scenario of the
// ctx redesign: a divergent counting query under a 50ms deadline must come
// back promptly with a context.DeadlineExceeded-wrapped error — not hang,
// and not report ErrLimitExceeded (no limit was configured).
func TestDeadlineInterruptsDivergentCounting(t *testing.T) {
	fx := cycleFixture(t, 8)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err := fx.snap().QueryCtx(ctx, "anc(n0, Y)", Options{Strategy: Counting})
	elapsed := time.Since(start)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a context.DeadlineExceeded wrap", err)
	}
	if errors.Is(err, ErrLimitExceeded) {
		t.Errorf("deadline error must be distinct from ErrLimitExceeded: %v", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("query returned after %v, want well under 500ms", elapsed)
	}
}

// TestCancelMidFixpoint cancels a divergent evaluation from another
// goroutine (run under -race in CI) and checks the prompt, correctly typed
// return for every strategy that can diverge on cyclic data.
func TestCancelMidFixpoint(t *testing.T) {
	for _, strat := range []Strategy{Counting, SupplementaryCounting} {
		t.Run(string(strat), func(t *testing.T) {
			fx := cycleFixture(t, 8)
			pq, err := fx.snap().Prepare("anc(n0, Y)", Options{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err = pq.RunCtx(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want a context.Canceled wrap", err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("run returned after %v, want prompt cancellation", elapsed)
			}
		})
	}
}

// TestPreCancelledContext pins that an already-cancelled context stops the
// evaluation before any fixpoint work happens, for every strategy.
func TestPreCancelledContext(t *testing.T) {
	fx := chainFixture(t, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range Strategies() {
		if _, err := fx.snap().QueryCtx(ctx, "anc(n0, Y)", Options{Strategy: strat}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", strat, err)
		}
	}
}

// TestStreamFirstNDifferential is the satellite differential test: for every
// strategy, the rows of Stream with FirstN = k are exactly the k-answer
// prefix of the full materialized result (bottom-up evaluation is
// deterministic). The top-down subtests cut the oracle off at k answers the
// same way: they must be k of the engine's full answers.
func TestStreamFirstNDifferential(t *testing.T) {
	fx := chainFixture(t, 30)
	const query = "anc(n5, Y)"
	for _, strat := range Strategies() {
		for _, k := range []int{1, 3, 1000} {
			t.Run(fmt.Sprintf("%s/first-%d", strat, k), func(t *testing.T) {
				full, err := fx.snap().Query(query, Options{Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				want := len(full.Answers)
				if k < want {
					want = k
				}

				pq, err := fx.snap().Prepare(query, Options{Strategy: strat, FirstN: k})
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for row, err := range pq.Stream(context.Background()) {
					if err != nil {
						t.Fatal(err)
					}
					if len(row) != 1 {
						t.Fatalf("row = %v, want 1 value", row)
					}
					got = append(got, row.String())
				}
				if len(got) != want {
					t.Fatalf("streamed %d rows, want %d (of %d total)", len(got), want, len(full.Answers))
				}
				for i, g := range got {
					if g != full.Answers[i].String() {
						t.Errorf("row %d = %s, want prefix element %s", i, g, full.Answers[i])
					}
				}
			})
		}
	}
	full, err := fx.snap().Query(query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 1000} {
		t.Run(fmt.Sprintf("top-down/first-%d", k), func(t *testing.T) {
			got, err := topDownAnswers(fx.snap(), query, Options{FirstN: k})
			if err != nil {
				t.Fatal(err)
			}
			if want := min(k, len(full.Answers)); len(got) != want {
				t.Fatalf("top-down first-%d: %d answers, want %d", k, len(got), want)
			}
			fullSet := full.AnswerSet()
			for g := range got {
				if !fullSet[g] {
					t.Errorf("top-down answer %s is not among the engine's full answers", g)
				}
			}
		})
	}
}

// TestFirstNStopsEvaluationEarly pins that FirstN = 1 on a long chain does
// materially less work than the full run, and reports it via StoppedEarly.
func TestFirstNStopsEvaluationEarly(t *testing.T) {
	fx := chainFixture(t, 200)
	full, err := fx.snap().Query("anc(n10, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	first, err := fx.snap().Query("anc(n10, Y)", Options{Strategy: MagicSets, FirstN: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Answers) != 1 {
		t.Fatalf("answers = %d, want 1", len(first.Answers))
	}
	if !first.Stats.StoppedEarly {
		t.Error("Stats.StoppedEarly = false, want true")
	}
	if full.Stats.StoppedEarly {
		t.Error("full run reports StoppedEarly")
	}
	if first.Stats.Derivations*4 > full.Stats.Derivations {
		t.Errorf("FirstN run fired %d rules vs %d for the full run, expected a fraction",
			first.Stats.Derivations, full.Stats.Derivations)
	}
	if first.Answers[0].String() != full.Answers[0].String() {
		t.Errorf("first answer %s differs from the full run's first answer %s", first.Answers[0], full.Answers[0])
	}
}

// TestStreamErrorYieldedLast pins the cursor's error contract: rows first,
// then the terminal (nil, err) pair.
func TestStreamErrorYieldedLast(t *testing.T) {
	// Semi-naive on a chain with a fact limit below the full closure: the
	// first rule derives some anc(n0, _) answers before the limit trips.
	fx := chainFixture(t, 30)
	pq, err := fx.snap().Prepare("anc(n0, Y)", Options{Strategy: SemiNaive, MaxFacts: 40})
	if err != nil {
		t.Fatal(err)
	}
	var rows, errs int
	var last error
	for row, err := range pq.Stream(context.Background()) {
		if err != nil {
			errs++
			last = err
			if row != nil {
				t.Errorf("error yield carries a row: %v", row)
			}
			continue
		}
		rows++
	}
	if errs != 1 || !errors.Is(last, ErrLimitExceeded) {
		t.Fatalf("errs = %d (last %v), want one ErrLimitExceeded yield", errs, last)
	}
	if rows == 0 {
		t.Error("expected the sound answers found before the limit to be yielded")
	}
}

// TestStreamBreakAbandonsRest pins that breaking out of the loop is safe and
// leaves the engine reusable.
func TestStreamBreakAbandonsRest(t *testing.T) {
	fx := chainFixture(t, 30)
	pq, err := fx.snap().Prepare("anc(n0, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range pq.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("consumed %d rows, want 2", n)
	}
	res, err := pq.Run()
	if err != nil || len(res.Answers) != 30 {
		t.Fatalf("engine not reusable after break: %v, %d answers", err, len(res.Answers))
	}
}

// TestTypedValues exercises the Value accessors across all three kinds,
// including values that outlive the query and the deprecated rendered view.
func TestTypedValues(t *testing.T) {
	fx := newFixture(t, `
		item(N, P) :- stock(N, P).
		wrapped(box(N, P)) :- stock(N, P).
	`)
	if err := fx.db.Assert("stock", "widget", 41); err != nil {
		t.Fatal(err)
	}
	res, err := fx.snap().Query("item(X, Y)", Options{Strategy: SemiNaive})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %v", res.Answers)
	}
	a := res.Answers[0]
	if len(a.Vals) != 2 {
		t.Fatalf("Vals = %v, want 2 values", a.Vals)
	}
	if a.Vals[0].Kind() != Symbol {
		t.Errorf("Vals[0].Kind() = %v, want Symbol", a.Vals[0].Kind())
	}
	if name, ok := a.Vals[0].Symbol(); !ok || name != "widget" {
		t.Errorf("Symbol() = %q, %v", name, ok)
	}
	if _, ok := a.Vals[0].Int(); ok {
		t.Error("Int() on a symbol reported ok")
	}
	if v, ok := a.Vals[1].Int(); !ok || v != 41 {
		t.Errorf("Int() = %d, %v, want 41", v, ok)
	}
	if a.Vals[1].Kind() != Int {
		t.Errorf("Vals[1].Kind() = %v, want Int", a.Vals[1].Kind())
	}
	// An answer renders as the tuple of its typed values.
	if got, want := a.String(), "("+a.Vals[0].String()+", "+a.Vals[1].String()+")"; got != want {
		t.Errorf("Answer.String() = %q, want %q", got, want)
	}

	comp, err := fx.snap().Query("wrapped(X)", Options{Strategy: SemiNaive})
	if err != nil {
		t.Fatal(err)
	}
	v := comp.Answers[0].Vals[0]
	if v.Kind() != Compound {
		t.Fatalf("Kind() = %v, want Compound", v.Kind())
	}
	functor, args, ok := v.Compound()
	if !ok || functor != "box" || len(args) != 2 {
		t.Fatalf("Compound() = %s/%d, %v", functor, len(args), ok)
	}
	if name, ok := args[0].Symbol(); !ok || name != "widget" {
		t.Errorf("args[0].Symbol() = %q, %v", name, ok)
	}
	if n, ok := args[1].Int(); !ok || n != 41 {
		t.Errorf("args[1].Int() = %d, %v", n, ok)
	}
	if v.String() != "box(widget, 41)" {
		t.Errorf("String() = %q", v.String())
	}

	// Values survive the query and later writes to the engine.
	if err := fx.db.Assert("stock", "gadget", 7); err != nil {
		t.Fatal(err)
	}
	if name, _ := a.Vals[0].Symbol(); name != "widget" {
		t.Errorf("value changed after a later assert: %q", name)
	}
}

// TestTypedValuesTopDown pins the engine's ID-backed typed values against
// the terms the top-down oracle derives for the same query: every value
// renders as the oracle's term and reports that term's kind.
func TestTypedValuesTopDown(t *testing.T) {
	fx := newFixture(t, `
		held(X, Y) :- item(X, Y).
		item(a, 1). item(box(b, 2), [c, d]). item(3, f(g)).
	`)
	oracle, err := topDown(fx.snap(), "held(X, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	terms := make(map[string][]ast.Term)
	for _, tuple := range oracle.Answers {
		terms["("+tuple[0].String()+", "+tuple[1].String()+")"] = tuple
	}
	res, err := fx.snap().Query("held(X, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 || len(terms) != 3 {
		t.Fatalf("engine %v, top-down %v: want 3 answers each", res.Answers, oracle.Answers)
	}
	for _, a := range res.Answers {
		tuple, ok := terms[a.String()]
		if !ok {
			t.Errorf("answer %s not derived top-down", a)
			continue
		}
		for j, v := range a.Vals {
			want := Symbol
			switch tuple[j].(type) {
			case ast.Int:
				want = Int
			case ast.Compound:
				want = Compound
			}
			if v.Kind() != want || v.String() != tuple[j].String() {
				t.Errorf("%s[%d]: kind %v %q, top-down term %s (%v)", a, j, v.Kind(), v.String(), tuple[j], want)
			}
		}
	}
}

// TestRetract pins the Assert mirror: facts disappear under the write lock
// and the prepared form sees the shrunken EDB on the next version's
// snapshot.
func TestRetract(t *testing.T) {
	fx := chainFixture(t, 10)
	run := func() *Result {
		t.Helper()
		pq, err := fx.snap().Prepare("anc(n0, Y)", Options{Strategy: MagicSets})
		if err != nil {
			t.Fatal(err)
		}
		res, err := pq.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if len(res.Answers) != 10 {
		t.Fatalf("answers before retract = %d, want 10", len(res.Answers))
	}

	// Cut the chain at n5 -> n6: the prepared form must now stop at n5.
	if err := fx.db.Retract("par", "n5", "n6"); err != nil {
		t.Fatal(err)
	}
	if got := fx.db.FactCount("par"); got != 9 {
		t.Fatalf("par facts after retract = %d, want 9", got)
	}
	res = run()
	if len(res.Answers) != 5 {
		t.Fatalf("answers after retract = %d, want 5", len(res.Answers))
	}
	if res.AnswerSet()["(n6)"] {
		t.Error("answer n6 still reachable after retracting par(n5, n6)")
	}

	// Retracting an absent fact is a no-op; RetractText mirrors AssertText.
	if err := fx.db.Retract("par", "n5", "n6"); err != nil {
		t.Fatal(err)
	}
	if err := fx.db.RetractText("par(n0, n1). par(n1, n2)."); err != nil {
		t.Fatal(err)
	}
	res = run()
	if len(res.Answers) != 0 {
		t.Fatalf("answers after cutting the chain head = %d, want 0", len(res.Answers))
	}
	if err := fx.db.RetractText("anc(X, Y) :- par(X, Y)."); err == nil {
		t.Error("RetractText accepted a rule")
	}
}
