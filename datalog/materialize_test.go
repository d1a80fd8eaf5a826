package datalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// matRules mixes a recursive predicate (anc — maintained by DRed) with a
// non-recursive one (grandpar — maintained by counting) over one base
// relation, so every maintenance path is exercised by the same commits.
const matRules = `
	anc(X, Y) :- par(X, Y).
	anc(X, Y) :- par(X, Z), anc(Z, Y).
	grandpar(X, Y) :- par(X, Z), par(Z, Y).
`

func mustCompile(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestMaterializeBasic(t *testing.T) {
	prog := mustCompile(t, matRules)
	db := NewDatabase()
	if err := db.AssertText(`par(john, mary). par(mary, sue). par(sue, ann).`); err != nil {
		t.Fatal(err)
	}
	if err := db.Materialize(prog); err != nil {
		t.Fatal(err)
	}
	fx := fixture{prog, db}

	res, err := fx.snap().Query("anc(john, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.MaterializedHit {
		t.Fatal("query over a materialized predicate did not report MaterializedHit")
	}
	want := map[string]bool{"(mary)": true, "(sue)": true, "(ann)": true}
	if got := res.AnswerSet(); !reflect.DeepEqual(got, want) {
		t.Fatalf("anc(john, Y) = %v, want %v", got, want)
	}

	// The fast path must not fire when asked not to, and the slow path must
	// agree with the stored IDB.
	cold, err := fx.snap().Query("anc(john, Y)", Options{Strategy: SemiNaive, NoMaterialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.MaterializedHit {
		t.Fatal("NoMaterialize run still reported MaterializedHit")
	}
	if !reflect.DeepEqual(cold.AnswerSet(), res.AnswerSet()) {
		t.Fatalf("cold = %v, materialized = %v", cold.AnswerSet(), res.AnswerSet())
	}

	ms, ok := db.MaterializedStats()
	if !ok {
		t.Fatal("MaterializedStats reported no materialization")
	}
	if ms.Predicates != 2 {
		t.Fatalf("Predicates = %d, want 2", ms.Predicates)
	}
	if ms.Hits != 1 {
		t.Fatalf("Hits = %d, want 1", ms.Hits)
	}
	if ms.Maintenances != 1 { // the initial materialization
		t.Fatalf("Maintenances = %d, want 1", ms.Maintenances)
	}
	if ms.CountRows != int64(db.FactCount("grandpar")) {
		t.Fatalf("CountRows = %d, want %d (grandpar rows carry counts, anc rows do not)",
			ms.CountRows, db.FactCount("grandpar"))
	}
	if ms.Facts != db.FactCount("anc")+db.FactCount("grandpar") {
		t.Fatalf("Facts = %d, want the stored IDB size", ms.Facts)
	}
}

func TestMaterializeMaintainsAcrossCommits(t *testing.T) {
	prog := mustCompile(t, matRules)
	db := NewDatabase()
	if err := db.AssertText(`par(a, b). par(b, c).`); err != nil {
		t.Fatal(err)
	}
	if err := db.Materialize(prog); err != nil {
		t.Fatal(err)
	}
	fx := fixture{prog, db}

	check := func(stage string) {
		t.Helper()
		for _, q := range []string{"anc(X, Y)", "grandpar(X, Y)", "anc(a, Y)"} {
			hot, err := fx.snap().Query(q, Options{})
			if err != nil {
				t.Fatalf("%s: %s: %v", stage, q, err)
			}
			if !hot.Stats.MaterializedHit {
				t.Fatalf("%s: %s did not hit the materialization", stage, q)
			}
			cold, err := fx.snap().Query(q, Options{Strategy: SemiNaive, NoMaterialize: true})
			if err != nil {
				t.Fatalf("%s: %s (cold): %v", stage, q, err)
			}
			if !reflect.DeepEqual(hot.AnswerSet(), cold.AnswerSet()) {
				t.Fatalf("%s: %s: materialized %v != rederived %v", stage, q, hot.AnswerSet(), cold.AnswerSet())
			}
		}
	}

	check("initial")
	if err := db.AssertText(`par(c, d). par(d, e).`); err != nil {
		t.Fatal(err)
	}
	check("after extend")
	if err := db.RetractText(`par(b, c).`); err != nil {
		t.Fatal(err)
	}
	check("after cut")
	// One transaction that both retracts and asserts, including a
	// retract-then-assert of the same fact (a net no-op the delta capture
	// must cancel, or derivation counts desync).
	txn := db.Begin()
	if err := txn.RetractText(`par(c, d).`); err != nil {
		t.Fatal(err)
	}
	if err := txn.AssertText(`par(c, d). par(b, c). par(a, e).`); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	check("after mixed batch")
	if err := db.RetractText(`par(a, b). par(c, d).`); err != nil {
		t.Fatal(err)
	}
	check("after multi retract")
}

// TestMaterializeDifferential is the randomized oracle of the maintenance
// layer: random assert/retract/commit sequences over an acyclic random
// graph, and after every commit the materialized answers must equal cold
// re-derivation under every strategy.
func TestMaterializeDifferential(t *testing.T) {
	prog := mustCompile(t, matRules)
	db := NewDatabase()
	if err := db.Materialize(prog); err != nil {
		t.Fatal(err)
	}
	fx := fixture{prog, db}

	const nodes = 9
	rng := rand.New(rand.NewSource(7))
	edge := func() string {
		// i < j keeps the graph acyclic, so the counting strategies
		// terminate on every query below.
		i := rng.Intn(nodes - 1)
		j := i + 1 + rng.Intn(nodes-1-i)
		return fmt.Sprintf("par(n%d, n%d).", i, j)
	}
	queries := []string{"anc(X, Y)", "grandpar(X, Y)", "anc(n0, Y)", "grandpar(n0, Y)"}

	for commit := 0; commit < 25; commit++ {
		txn := db.Begin()
		for op := 0; op < 1+rng.Intn(4); op++ {
			var err error
			if rng.Intn(3) == 0 {
				err = txn.RetractText(edge())
			} else {
				err = txn.AssertText(edge())
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			hot, err := fx.snap().Query(q, Options{})
			if err != nil {
				t.Fatalf("commit %d: %s: %v", commit, q, err)
			}
			if !hot.Stats.MaterializedHit {
				t.Fatalf("commit %d: %s did not hit the materialization", commit, q)
			}
			for _, st := range Strategies() {
				if strings.Contains(q, "X") && (st == Counting || st == SupplementaryCounting) {
					continue // the counting rewritings require a bound argument
				}
				cold, err := fx.snap().Query(q, Options{Strategy: st, NoMaterialize: true})
				if err != nil {
					t.Fatalf("commit %d: %s [%s]: %v", commit, q, st, err)
				}
				if !reflect.DeepEqual(hot.AnswerSet(), cold.AnswerSet()) {
					t.Fatalf("commit %d: %s: materialized %v != %s %v",
						commit, q, hot.AnswerSet(), st, cold.AnswerSet())
				}
			}
		}
	}
}

func TestMaterializeRejectsDerivedWrites(t *testing.T) {
	prog := mustCompile(t, matRules)
	db := NewDatabase()
	if err := db.AssertText(`par(a, b).`); err != nil {
		t.Fatal(err)
	}
	if err := db.Materialize(prog); err != nil {
		t.Fatal(err)
	}
	v := db.Version()
	if err := db.Assert("anc", "x", "y"); err == nil {
		t.Fatal("asserting a derived predicate of the materialized program succeeded")
	} else if !strings.Contains(err.Error(), "derived") {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := db.Retract("grandpar", "x", "y"); err == nil {
		t.Fatal("retracting a derived predicate of the materialized program succeeded")
	}
	if db.Version() != v {
		t.Fatal("a rejected batch advanced the version")
	}
}

func TestMaterializeRejectsStoredDerivedFacts(t *testing.T) {
	prog := mustCompile(t, matRules)
	db := NewDatabase()
	if err := db.AssertText(`par(a, b). anc(q, r).`); err != nil {
		t.Fatal(err)
	}
	if err := db.Materialize(prog); err == nil {
		t.Fatal("materializing over stored facts of a derived predicate succeeded")
	}
	if _, ok := db.MaterializedStats(); ok {
		t.Fatal("failed Materialize left a registration behind")
	}
}

func TestDematerialize(t *testing.T) {
	prog := mustCompile(t, matRules)
	db := NewDatabase()
	if err := db.AssertText(`par(a, b). par(b, c).`); err != nil {
		t.Fatal(err)
	}
	if err := db.Materialize(prog); err != nil {
		t.Fatal(err)
	}
	fx := fixture{prog, db}
	snap := fx.snap()

	db.Dematerialize()
	if _, ok := db.MaterializedStats(); ok {
		t.Fatal("MaterializedStats still reports a registration")
	}
	// A snapshot taken now evaluates from scratch again — and still answers
	// correctly, because the derived relations were dropped from the store
	// (stale IDB rows must not be mistaken for base facts).
	res, err := fx.snap().Query("anc(a, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaterializedHit {
		t.Fatal("query after Dematerialize still hit the materialization")
	}
	want := map[string]bool{"(b)": true, "(c)": true}
	if got := res.AnswerSet(); !reflect.DeepEqual(got, want) {
		t.Fatalf("anc(a, Y) = %v, want %v", got, want)
	}
	// The snapshot pinned the materialization with its facts and keeps
	// serving lookups from it.
	sres, err := snap.Query("anc(a, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sres.Stats.MaterializedHit {
		t.Fatal("snapshot taken before Dematerialize lost its materialization")
	}
	if got := sres.AnswerSet(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot anc(a, Y) = %v, want %v", got, want)
	}
}

func TestMaterializeReplace(t *testing.T) {
	db := NewDatabase()
	if err := db.AssertText(`par(a, b). par(b, c).`); err != nil {
		t.Fatal(err)
	}
	prog1 := mustCompile(t, matRules)
	if err := db.Materialize(prog1); err != nil {
		t.Fatal(err)
	}
	prog2 := mustCompile(t, `sib(X, Y) :- par(P, X), par(P, Y).`)
	if err := db.Materialize(prog2); err != nil {
		t.Fatal(err)
	}
	ms, ok := db.MaterializedStats()
	if !ok || ms.ProgramVersion != prog2.Version() {
		t.Fatalf("registration = %+v, want program %d", ms, prog2.Version())
	}
	// prog1's derived relations are gone from the store: a fresh evaluation
	// of prog1 derives anc from the rules, not from stale stored rows.
	if db.FactCount("anc") != 0 {
		t.Fatalf("anc still holds %d stored rows after replacement", db.FactCount("anc"))
	}
	fx1 := fixture{prog1, db}
	res, err := fx1.snap().Query("anc(a, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaterializedHit {
		t.Fatal("prog1 query hit prog2's materialization")
	}
	want := map[string]bool{"(b)": true, "(c)": true}
	if got := res.AnswerSet(); !reflect.DeepEqual(got, want) {
		t.Fatalf("anc(a, Y) = %v, want %v", got, want)
	}
}

// TestMaterializeSnapshotConsistency pins the commit-atomicity property of
// maintenance: a snapshot taken at any moment sees base facts and derived
// facts of the same version, never a base commit without its consequences.
func TestMaterializeSnapshotConsistency(t *testing.T) {
	prog := mustCompile(t, matRules)
	db := NewDatabase()
	if err := db.AssertText(`par(a, b).`); err != nil {
		t.Fatal(err)
	}
	if err := db.Materialize(prog); err != nil {
		t.Fatal(err)
	}
	fx := fixture{prog, db}
	before := fx.snap()
	if err := db.AssertText(`par(b, c).`); err != nil {
		t.Fatal(err)
	}
	after := fx.snap()

	bres, err := before.Query("anc(a, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bres.AnswerSet(), map[string]bool{"(b)": true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pre-commit snapshot anc(a, Y) = %v, want %v", got, want)
	}
	ares, err := after.Query("anc(a, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ares.AnswerSet(), map[string]bool{"(b)": true, "(c)": true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("post-commit snapshot anc(a, Y) = %v, want %v", got, want)
	}
	if !bres.Stats.MaterializedHit || !ares.Stats.MaterializedHit {
		t.Fatal("snapshot queries did not answer from the materialization")
	}
}

// TestMaterializePreparedAndStream covers the prepared and streaming paths
// over a materialized predicate (the facts come embedded in the program
// text, committed by LoadFacts before the registration).
func TestMaterializePreparedAndStream(t *testing.T) {
	fx := newFixture(t, matRules+`par(a, b). par(b, c).`)
	if err := fx.db.Materialize(fx.prog); err != nil {
		t.Fatal(err)
	}
	pq, err := fx.snap().Prepare("anc(a, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.MaterializedHit {
		t.Fatal("prepared run did not hit the materialization")
	}
	if len(res.Answers) != 2 {
		t.Fatalf("got %d answers, want 2", len(res.Answers))
	}
	got := map[string]bool{}
	for row, err := range pq.Stream(t.Context()) {
		if err != nil {
			t.Fatal(err)
		}
		name, _ := row[0].Symbol()
		got[name] = true
	}
	if want := map[string]bool{"b": true, "c": true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed %v, want %v", got, want)
	}
}

// matShape is one program of the wider maintenance differential: the facts
// its commits assert and retract, the queries checked after every commit,
// and whether the facts can form cycles (the counting rewritings diverge on
// cyclic data, so they are only compared on acyclic shapes).
type matShape struct {
	name    string
	src     string
	fact    func(rng *rand.Rand) string
	cyclic  bool
	queries []string
}

// edgeFact draws one fact over nodes n0..n5; acyclic facts only point from a
// lower to a higher node.
func edgeFact(pred string, cyclic bool) func(rng *rand.Rand) string {
	return func(rng *rand.Rand) string {
		i, j := rng.Intn(6), rng.Intn(6)
		if !cyclic {
			i = rng.Intn(5)
			j = i + 1 + rng.Intn(5-i)
		}
		return fmt.Sprintf("%s(n%d, n%d).", pred, i, j)
	}
}

// anyOf draws from one of the given fact generators.
func anyOf(gens ...func(rng *rand.Rand) string) func(rng *rand.Rand) string {
	return func(rng *rand.Rand) string { return gens[rng.Intn(len(gens))](rng) }
}

// checkMaterializedShape commits random batches to a database materializing
// the shape's program and the same batches to a plain twin, and after every
// commit requires the materialized answers of each query to equal cold
// SemiNaive, Magic and supplementary Magic evaluation on the twin (and, on
// acyclic data, the counting rewritings for queries with a bound argument).
// The twin matters: a cold evaluation on the materialized database itself
// starts from the stored IDB rows, so it cannot see a row maintenance failed
// to delete.
func checkMaterializedShape(t *testing.T, sh matShape, seed int64, commits int) {
	t.Helper()
	prog := mustCompile(t, sh.src)
	db, plain := NewDatabase(), NewDatabase()
	if err := db.Materialize(prog); err != nil {
		t.Fatal(err)
	}
	fx, twin := fixture{prog, db}, fixture{prog, plain}
	rng := rand.New(rand.NewSource(seed))
	for commit := 0; commit < commits; commit++ {
		var retracts, asserts []string
		for op := 0; op < 1+rng.Intn(4); op++ {
			if f := sh.fact(rng); rng.Intn(3) == 0 {
				retracts = append(retracts, f)
			} else {
				asserts = append(asserts, f)
			}
		}
		if rng.Intn(4) == 0 {
			// Retract and re-assert one fact: a net no-op for maintenance.
			f := sh.fact(rng)
			retracts = append(retracts, f)
			asserts = append(asserts, f)
		}
		for _, d := range []*Database{db, plain} {
			txn := d.Begin()
			if err := txn.RetractText(strings.Join(retracts, " ")); err != nil {
				t.Fatal(err)
			}
			if err := txn.AssertText(strings.Join(asserts, " ")); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatalf("%s/seed=%d: commit %d: %v", sh.name, seed, commit, err)
			}
		}
		snap, cold := fx.snap(), twin.snap()
		for _, q := range sh.queries {
			hot, err := snap.Query(q, Options{})
			if err != nil {
				t.Fatalf("%s/seed=%d: commit %d: %s: %v", sh.name, seed, commit, q, err)
			}
			if !hot.Stats.MaterializedHit {
				t.Fatalf("%s/seed=%d: commit %d: %s did not hit the materialization", sh.name, seed, commit, q)
			}
			strategies := []Strategy{SemiNaive, MagicSets, SupplementaryMagicSets}
			if !sh.cyclic && strings.Contains(q, "(n") {
				strategies = append(strategies, Counting, SupplementaryCounting)
			}
			for _, st := range strategies {
				res, err := cold.Query(q, Options{Strategy: st})
				if err != nil {
					t.Fatalf("%s/seed=%d: commit %d: %s [%s]: %v", sh.name, seed, commit, q, st, err)
				}
				if !reflect.DeepEqual(hot.AnswerSet(), res.AnswerSet()) {
					t.Fatalf("%s/seed=%d: commit %d: %s: materialized %v != %s %v",
						sh.name, seed, commit, q, hot.AnswerSet(), st, res.AnswerSet())
				}
			}
		}
	}
}

// TestMaterializeDifferentialShapes widens TestMaterializeDifferential to
// cyclic graphs, non-linear recursion, same-generation, a compound head, a
// counting-maintained predicate over a DRed one, and zero-arity predicates.
func TestMaterializeDifferentialShapes(t *testing.T) {
	reach := `
		reach(X, Y) :- e(X, Y).
		reach(X, Y) :- e(X, Z), reach(Z, Y).
	`
	nonlinear := `
		reach(X, Y) :- e(X, Y).
		reach(X, Y) :- reach(X, Z), reach(Z, Y).
	`
	shapes := []matShape{
		{name: "cyclic", src: reach, fact: edgeFact("e", true), cyclic: true,
			queries: []string{"reach(X, Y)", "reach(n0, Y)", "reach(X, n0)"}},
		{name: "nonlinear-cyclic", src: nonlinear, fact: edgeFact("e", true), cyclic: true,
			queries: []string{"reach(X, Y)", "reach(n0, Y)"}},
		{name: "nonlinear-acyclic", src: nonlinear, fact: edgeFact("e", false),
			queries: []string{"reach(X, Y)", "reach(n0, Y)"}},
		{name: "samegen", src: `
				sg(X, Y) :- flat(X, Y).
				sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).
			`, fact: anyOf(edgeFact("up", false), edgeFact("flat", true), edgeFact("down", true)), cyclic: true,
			queries: []string{"sg(X, Y)", "sg(n0, Y)"}},
		// w is counting-maintained (non-recursive) over reach, which DRed
		// maintains, and builds a compound term in its head.
		{name: "compound", src: reach + `w(f(X), Y) :- reach(X, Y), two(Y, X).`,
			fact: anyOf(edgeFact("e", true), edgeFact("two", true)), cyclic: true,
			queries: []string{"w(X, Y)", "w(f(n0), Y)", "reach(n1, Y)"}},
	}
	for _, sh := range shapes {
		for seed := int64(0); seed < 12; seed++ {
			checkMaterializedShape(t, sh, seed, 30)
		}
	}
	zero := matShape{name: "zero-arity", src: reach + `
			ok :- e(X, Y).
			r(X) :- e(X, Y).
			hit :- r(n0).
			far :- reach(n0, n5).
		`, fact: edgeFact("e", true), cyclic: true,
		queries: []string{"ok", "hit", "far", "r(X)"}}
	for seed := int64(0); seed < 20; seed++ {
		checkMaterializedShape(t, zero, seed, 25)
	}
}

// TestMaterializeMaintenanceVsReaders runs maintaining commits next to
// concurrent snapshot readers (run it with -race): maintenance writes the
// derived relations and probes the shared base relations, building their
// lazy indexes, while readers probe the same relations through pinned
// snapshots. Every pinned snapshot's materialized answers must equal its
// NoMaterialize answers. One more reader runs the top-down oracle over a
// second program that reads the maintained anc as a base relation, so it
// builds terms from rows maintenance has just inserted while commits
// continue; its answers must equal the snapshot's materialized anc.
func TestMaterializeMaintenanceVsReaders(t *testing.T) {
	prog := mustCompile(t, matRules+`back(X) :- anc(X, Y), par(Y, X).`)
	overAnc := mustCompile(t, `via(X, Y) :- anc(X, Y).`)
	db := NewDatabase()
	if err := db.Materialize(prog); err != nil {
		t.Fatal(err)
	}
	fx := fixture{prog, db}
	queries := []string{"anc(X, Y)", "anc(n0, Y)", "grandpar(X, Y)", "back(X)"}
	stop := make(chan struct{})
	var checked atomic.Int64 // snapshots the readers have checked
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := fx.snap()
				for _, q := range queries {
					hot, err := snap.Query(q, Options{})
					if err != nil {
						t.Error(err)
						return
					}
					cold, err := snap.Query(q, Options{Strategy: SemiNaive, NoMaterialize: true})
					if err != nil {
						t.Error(err)
						return
					}
					if !hot.Stats.MaterializedHit || !reflect.DeepEqual(hot.AnswerSet(), cold.AnswerSet()) {
						t.Errorf("version %d: %s: materialized %v (hit %v) != rederived %v",
							snap.Version(), q, hot.AnswerSet(), hot.Stats.MaterializedHit, cold.AnswerSet())
						return
					}
				}
				checked.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := fx.snap()
			hot, err := snap.Query("anc(X, Y)", Options{})
			if err != nil {
				t.Error(err)
				return
			}
			top, err := topDownAnswers(snap.With(overAnc), "via(X, Y)", Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(hot.AnswerSet(), top) {
				t.Errorf("version %d: top-down over anc %v != materialized anc %v", snap.Version(), top, hot.AnswerSet())
				return
			}
		}
	}()
	rng := rand.New(rand.NewSource(3))
	fact := edgeFact("par", true)
	// Keep committing until the readers have checked enough snapshots to
	// overlap many commits, however the goroutines are scheduled.
	for commit := 0; commit < 150 || checked.Load() < 100 && !t.Failed(); commit++ {
		txn := db.Begin()
		for op := 0; op < 1+rng.Intn(3); op++ {
			var err error
			if rng.Intn(3) == 0 {
				err = txn.RetractText(fact(rng))
			} else {
				err = txn.AssertText(fact(rng))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
