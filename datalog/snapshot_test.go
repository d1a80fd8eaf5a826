package datalog

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// chainFacts renders par(n0, n1). ... par(n{k-1}, n{k}).
func chainFacts(from, to int) string {
	s := ""
	for i := from; i < to; i++ {
		s += fmt.Sprintf("par(n%d, n%d). ", i, i+1)
	}
	return s
}

// TestSnapshotPinsAnswers pins the core isolation property: a snapshot
// returns identical answers before and after a commit, while a snapshot
// taken after it sees the new facts.
func TestSnapshotPinsAnswers(t *testing.T) {
	fx := newFixture(t, ancRules)
	if err := fx.db.AssertText(chainFacts(0, 10)); err != nil {
		t.Fatal(err)
	}

	snap := fx.snap()
	if snap.Version() != fx.db.Version() {
		t.Fatalf("snapshot version %d != db version %d", snap.Version(), fx.db.Version())
	}

	for _, opts := range []Options{{Strategy: MagicSets}, {Strategy: SemiNaive}} {
		before, err := snap.Query("anc(n0, Y)", opts)
		if err != nil {
			t.Fatalf("%s: %v", opts.Strategy, err)
		}
		if len(before.Answers) != 10 {
			t.Fatalf("%s: snapshot sees %d answers, want 10", opts.Strategy, len(before.Answers))
		}

		// Commit more chain behind the snapshot's back.
		if err := fx.db.AssertText(chainFacts(10, 15)); err != nil {
			t.Fatal(err)
		}

		after, err := snap.Query("anc(n0, Y)", opts)
		if err != nil {
			t.Fatalf("%s: %v", opts.Strategy, err)
		}
		if !reflect.DeepEqual(before.AnswerSet(), after.AnswerSet()) {
			t.Fatalf("%s: snapshot answers changed across a concurrent commit:\nbefore %v\nafter  %v",
				opts.Strategy, before.AnswerSet(), after.AnswerSet())
		}

		live, err := fx.snap().Query("anc(n0, Y)", opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(live.Answers) != len(before.Answers)+5 {
			t.Fatalf("%s: a fresh snapshot sees %d answers, want %d", opts.Strategy, len(live.Answers), len(before.Answers)+5)
		}
	}
	// The top-down oracle reads the pinned store too: 10 answers on the old
	// snapshot, 15 on a fresh one.
	for _, tc := range []struct {
		snap *Snapshot
		want int
	}{{snap, 10}, {fx.snap(), 15}} {
		if td, err := topDownAnswers(tc.snap, "anc(n0, Y)", Options{}); err != nil || len(td) != tc.want {
			t.Fatalf("top-down oracle on version %d: %d answers (err %v), want %d", tc.snap.Version(), len(td), err, tc.want)
		}
	}
}

// TestSnapshotMutualConsistency pins that two queries against one snapshot
// observe the same state even with a commit between them — the guarantee
// queries on two snapshots do not have.
func TestSnapshotMutualConsistency(t *testing.T) {
	fx := newFixture(t, ancRules)
	if err := fx.db.AssertText(chainFacts(0, 5)); err != nil {
		t.Fatal(err)
	}
	snap := fx.snap()

	r1, err := snap.Query("anc(n0, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.db.Assert("par", "n5", "n6"); err != nil {
		t.Fatal(err)
	}
	r2, err := snap.Query("anc(n0, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.AnswerSet(), r2.AnswerSet()) {
		t.Fatalf("two queries on one snapshot disagree: %v vs %v", r1.AnswerSet(), r2.AnswerSet())
	}
	if snap.FactCount("par") != 5 {
		t.Fatalf("snapshot FactCount = %d, want 5", snap.FactCount("par"))
	}
	if fx.db.FactCount("par") != 6 {
		t.Fatalf("live FactCount = %d, want 6", fx.db.FactCount("par"))
	}
}

// TestSnapshotPrepareAndStream covers the remaining snapshot query surface:
// prepared runs and streaming cursors read the pinned view.
func TestSnapshotPrepareAndStream(t *testing.T) {
	fx := newFixture(t, ancRules)
	if err := fx.db.AssertText(chainFacts(0, 8)); err != nil {
		t.Fatal(err)
	}
	snap := fx.snap()
	pq, err := snap.Prepare("anc(n0, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.db.AssertText(chainFacts(8, 12)); err != nil {
		t.Fatal(err)
	}

	res, err := pq.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 8 {
		t.Fatalf("snapshot prepared run sees %d answers, want 8", len(res.Answers))
	}
	// Re-parameterized runs read the same pinned view.
	res, err = pq.Run("n4")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 4 {
		t.Fatalf("snapshot prepared run (n4) sees %d answers, want 4", len(res.Answers))
	}

	n := 0
	for _, err := range snap.Stream(context.Background(), "anc(n0, Y)", Options{Strategy: MagicSets}) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 8 {
		t.Fatalf("snapshot stream yielded %d rows, want 8", n)
	}
}

// TestDataOnlySnapshotNeedsProgram pins the ErrNoProgram failure mode and
// the With binding path.
func TestDataOnlySnapshotNeedsProgram(t *testing.T) {
	db := NewDatabase()
	if err := db.AssertText("par(a, b)."); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	if _, err := snap.Query("anc(a, Y)", Options{}); !errors.Is(err, ErrNoProgram) {
		t.Fatalf("Query on data-only snapshot = %v, want ErrNoProgram", err)
	}
	if _, err := snap.Prepare("anc(a, Y)", Options{}); !errors.Is(err, ErrNoProgram) {
		t.Fatalf("Prepare on data-only snapshot = %v, want ErrNoProgram", err)
	}
	sawErr := false
	for _, err := range snap.Stream(context.Background(), "anc(a, Y)", Options{}) {
		if !errors.Is(err, ErrNoProgram) {
			t.Fatalf("Stream on data-only snapshot yielded %v, want ErrNoProgram", err)
		}
		sawErr = true
	}
	if !sawErr {
		t.Fatal("Stream on data-only snapshot yielded nothing")
	}

	prog, err := Compile(ancRules)
	if err != nil {
		t.Fatal(err)
	}
	res, err := snap.With(prog).Query("anc(a, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("bound snapshot got %d answers, want 1", len(res.Answers))
	}
}

// TestSnapshotPinsItsProgram: a rule change is binding the next snapshot to
// another Program. Snapshots (and handles prepared on them) bound to the
// old program keep answering under it, over the same pinned data, and With
// leaves its receiver unchanged.
func TestSnapshotPinsItsProgram(t *testing.T) {
	fx := newFixture(t, ancRules)
	if err := fx.db.AssertText(chainFacts(0, 4)); err != nil {
		t.Fatal(err)
	}
	old := fx.snap()
	pq, err := old.Prepare("anc(n0, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}

	// The replacement program derives only direct parenthood.
	prog2, err := Compile(`anc(X, Y) :- par(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if prog2.Version() <= fx.prog.Version() {
		t.Fatalf("replacement program version %d not newer than %d", prog2.Version(), fx.prog.Version())
	}
	swapped := old.With(prog2)
	if old.Program() != fx.prog || swapped.Program() != prog2 || swapped.Version() != old.Version() {
		t.Fatalf("With must bind the new program to the same pinned version and leave the receiver alone")
	}

	// The new rules run against the unchanged data, one-shot and prepared.
	res, err := swapped.Query("anc(n0, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("under the replacement program got %d answers, want 1 (non-transitive program)", len(res.Answers))
	}
	fresh, err := swapped.Prepare("anc(n0, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := fresh.Run(); err != nil || len(res.Answers) != 1 {
		t.Fatalf("prepared run under the replacement program = %d answers, %v; want 1, nil", len(res.Answers), err)
	}

	// The old snapshot and its handle still run the old (transitive) program.
	res, err = old.Query("anc(n0, Y)", Options{Strategy: MagicSets})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 4 {
		t.Fatalf("old snapshot got %d answers, want 4", len(res.Answers))
	}
	n := 0
	for _, err := range pq.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 {
		t.Fatalf("handle prepared before the rule change streamed %d rows, want 4", n)
	}
}

// TestProgramSharedAcrossDatabases pins that one compiled Program serves
// several databases.
func TestProgramSharedAcrossDatabases(t *testing.T) {
	prog, err := Compile(ancRules)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fixture{prog, NewDatabase()}, fixture{prog, NewDatabase()}
	if err := a.db.AssertText(chainFacts(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := b.db.AssertText("par(x, y)."); err != nil {
		t.Fatal(err)
	}
	resA, err := a.snap().Query("anc(n0, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := b.snap().Query("anc(x, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resA.Answers) != 3 || len(resB.Answers) != 1 {
		t.Fatalf("shared program answers = %d, %d; want 3, 1", len(resA.Answers), len(resB.Answers))
	}
}

// TestSnapshotIsolationUnderRace is the -race stress test of the ISSUE:
// transactions commit, snapshot queries read their pinned version, one-shot
// queries pin a fresh version each, and two programs are bound to the one
// database — all concurrently. The snapshot goroutines verify they never
// observe a concurrent commit; the prepared-query goroutine verifies a
// handle never returns wrong-program answers.
func TestSnapshotIsolationUnderRace(t *testing.T) {
	prog1, err := Compile(ancRules)
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := Compile(`anc(X, Y) :- par(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := db.AssertText(chainFacts(0, 20)); err != nil {
		t.Fatal(err)
	}

	const (
		commits      = 40
		snapQueries  = 30
		freshQueries = 30
		preparedRuns = 30
	)
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	report := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Committer: grows the chain one transaction at a time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			txn := db.Begin()
			if err := txn.Assert("par", fmt.Sprintf("n%d", 20+i), fmt.Sprintf("n%d", 21+i)); err != nil {
				report("txn assert: %v", err)
				return
			}
			if err := txn.Commit(); err != nil {
				report("txn commit: %v", err)
				return
			}
		}
	}()

	// Snapshot readers: each takes a snapshot, answers twice, and requires
	// both answer sets identical and consistent with the pinned fact count
	// (the chain program yields exactly FactCount("par") ancestors of n0
	// under prog1).
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < snapQueries; i++ {
				snap := db.Snapshot().With(prog1)
				want := snap.FactCount("par")
				r1, err := snap.Query("anc(n0, Y)", Options{Strategy: MagicSets})
				if err != nil {
					report("snap query 1: %v", err)
					return
				}
				r2, err := snap.Query("anc(n0, Y)", Options{Strategy: SemiNaive})
				if err != nil {
					report("snap query 2: %v", err)
					return
				}
				if len(r1.Answers) != want || len(r2.Answers) != want {
					report("snapshot v%d observed a concurrent commit: %d, %d answers, want %d",
						snap.Version(), len(r1.Answers), len(r2.Answers), want)
					return
				}
			}
		}()
	}

	// One-shot readers on a fresh snapshot per query, alternating between
	// the two programs; only evaluation errors are failures.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < freshQueries; i++ {
			prog := []*Program{prog1, prog2}[i%2]
			if _, err := db.Snapshot().With(prog).Query("anc(n0, Y)", Options{Strategy: MagicSets}); err != nil {
				report("fresh-snapshot query: %v", err)
				return
			}
		}
	}()

	// Prepared runner: prepares on a fresh snapshot, alternating programs;
	// every run answers with the shape of the program its snapshot bound,
	// over exactly the facts it pinned.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < preparedRuns; i++ {
			prog := []*Program{prog2, prog1}[i%2]
			snap := db.Snapshot().With(prog)
			want := snap.FactCount("par")
			if prog == prog2 {
				want = 1 // the non-transitive program: par(n0, n1) only
			}
			pq, err := snap.Prepare("anc(n0, Y)", Options{Strategy: MagicSets})
			if err != nil {
				report("prepare: %v", err)
				return
			}
			res, err := pq.Run()
			if err != nil {
				report("prepared run: %v", err)
				return
			}
			if len(res.Answers) != want {
				report("prepared run under program v%d at v%d: %d answers, want %d",
					prog.Version(), snap.Version(), len(res.Answers), want)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// Concurrent top-down oracle readers of one snapshot read a zero-arity fact
// and an arity-1 relation committed through the batch path (run with -race),
// building terms from the pinned rows. A
// zero-arity relation's slab is empty, so its row count alone says the
// fact holds; reading its tuple builds the empty tuple and writes nothing.
func TestSnapshotZeroArityTupleRace(t *testing.T) {
	prog, err := Compile(`out(X) :- flag, p(X).`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	txn := db.Begin()
	if err := txn.AssertText(`flag. p(a). p(b).`); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot().With(prog)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers, err := topDownAnswers(snap, "out(X)", Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if len(answers) != 2 {
				t.Errorf("got %d answers, want 2", len(answers))
			}
		}()
	}
	wg.Wait()
}
