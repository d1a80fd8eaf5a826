package datalog_test

import (
	"fmt"
	"sort"

	"repro/datalog"
)

// sorted renders a result's answers in a deterministic order for example
// output (Result.Answers lists them in discovery order).
func sorted(res *datalog.Result) []string {
	out := make([]string, len(res.Answers))
	for i, a := range res.Answers {
		out[i] = a.String()
	}
	sort.Strings(out)
	return out
}

// Compile a program once into an immutable, shareable Program, bind it to a
// pinned version of a Database, and query it.
func ExampleCompile() {
	prog, err := datalog.Compile(`
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`)
	if err != nil {
		panic(err)
	}
	db := datalog.NewDatabase()
	if err := db.AssertText(`par(john, mary). par(mary, sue).`); err != nil {
		panic(err)
	}
	res, err := db.Snapshot().With(prog).Query("anc(john, Y)", datalog.Options{Strategy: datalog.MagicSets})
	if err != nil {
		panic(err)
	}
	for _, a := range sorted(res) {
		fmt.Println(a)
	}
	// Output:
	// (mary)
	// (sue)
}

// A transaction buffers any number of asserts and retracts and commits them
// as one atomic, versioned batch: the whole batch is validated before the
// first write, so a bad fact anywhere commits nothing.
func ExampleDatabase_Begin() {
	db := datalog.NewDatabase()
	txn := db.Begin()
	if err := txn.AssertText(`par(john, mary). par(mary, sue).`); err != nil {
		panic(err)
	}
	if err := txn.Assert("par", "sue", "ann"); err != nil {
		panic(err)
	}
	if err := txn.Commit(); err != nil {
		panic(err)
	}
	fmt.Println("facts:", db.FactCount("par"), "version:", db.Version())
	// Output:
	// facts: 3 version: 1
}

// A snapshot pins one commit version: queries against it never observe
// later commits, which makes it the unit of request-level consistency.
func ExampleDatabase_Snapshot() {
	prog, err := datalog.Compile(`anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).`)
	if err != nil {
		panic(err)
	}
	db := datalog.NewDatabase()
	if err := db.AssertText(`par(john, mary).`); err != nil {
		panic(err)
	}
	snap := db.Snapshot().With(prog) // pin the data, bind the rules

	// A commit lands after the snapshot was taken ...
	if err := db.AssertText(`par(mary, sue).`); err != nil {
		panic(err)
	}

	// ... a snapshot taken now sees it, the earlier one does not.
	live, err := db.Snapshot().With(prog).Query("anc(john, Y)", datalog.Options{})
	if err != nil {
		panic(err)
	}
	pinned, err := snap.Query("anc(john, Y)", datalog.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("live:", sorted(live))
	fmt.Println("snapshot:", sorted(pinned))
	// Output:
	// live: [(mary) (sue)]
	// snapshot: [(mary)]
}

// Materialize keeps a program's derived relations in the store and
// maintains them incrementally inside every commit; queries over the
// derived predicates become pure index lookups.
func ExampleDatabase_Materialize() {
	prog, err := datalog.Compile(`anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).`)
	if err != nil {
		panic(err)
	}
	db := datalog.NewDatabase()
	if err := db.AssertText(`par(john, mary). par(mary, sue).`); err != nil {
		panic(err)
	}
	if err := db.Materialize(prog); err != nil {
		panic(err)
	}

	res, err := db.Snapshot().With(prog).Query("anc(john, Y)", datalog.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("lookup:", res.Stats.MaterializedHit, sorted(res))

	// Commits keep the materialized IDB current — including retraction,
	// handled by derivation counts / delete-and-rederive, not recomputation.
	if err := db.RetractText(`par(mary, sue).`); err != nil {
		panic(err)
	}
	res, err = db.Snapshot().With(prog).Query("anc(john, Y)", datalog.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("after retract:", res.Stats.MaterializedHit, sorted(res))

	ms, ok := db.MaterializedStats()
	fmt.Println("maintained predicates:", ms.Predicates, "runs:", ms.Maintenances, "registered:", ok)
	// Output:
	// lookup: true [(mary) (sue)]
	// after retract: true [(mary)]
	// maintained predicates: 1 runs: 2 registered: true
}

// Compile retains the static-analysis findings on the Program: warnings
// (typos, singleton variables, the Section 10 divergence prediction) ride
// along with positions and stable codes, and DiagnosticsFor vets one query
// form. CompileStrict turns any warning into a compile error.
func ExampleProgram_Diagnostics() {
	prog, err := datalog.Compile(`a(X, Y) :- p(X, Y).
a(X, Y) :- a(X, Z), a(Z, Y).`)
	if err != nil {
		panic(err)
	}
	for _, d := range prog.Diagnostics() {
		fmt.Println(d)
	}
	// The bound-first query form of the nonlinear rule diverges under the
	// counting strategies on every database (Theorem 10.3).
	diags, err := prog.DiagnosticsFor("a(c, Y)")
	if err != nil {
		panic(err)
	}
	for _, d := range diags {
		fmt.Println(d.Code, d.Severity)
	}
	// Output:
	// 1:12: info: predicate p/2 has no rules and no facts; assuming it is a base (EDB) relation [DL0004]
	// 2:1: warning: counting strategies diverge for query form a^bf on every database: the argument graph has a reachable cycle (Theorem 10.3); bound argument 1 of a^bf feeds back into itself through this recursive rule [DL0012]
	// DL0012 warning
}
