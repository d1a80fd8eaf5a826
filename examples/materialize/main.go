// Materialize walkthrough: keep a program's derived relations in the
// database and let every commit maintain them incrementally, so reads stop
// paying for inference.
//
// The program is the transitive-closure ancestor program of Section 1 of
// "On the Power of Magic". Database.Materialize computes its IDB once;
// after that, each Txn.Commit runs incremental maintenance seeded from
// exactly the facts the batch added and removed — semi-naive deltas forward
// for asserts, derivation counts or delete-and-rederive for retracts — and
// queries over the derived predicate answer by pure index lookup
// (Stats.MaterializedHit), whatever Options.Strategy says.
//
// Run with:
//
//	go run ./examples/materialize
package main

import (
	"fmt"
	"log"
	"time"

	"repro/datalog"
)

func main() {
	prog, err := datalog.Compile(`
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`)
	if err != nil {
		log.Fatal(err)
	}

	// Load a parenthood chain n0 -> n1 -> ... -> n1000.
	db := datalog.NewDatabase()
	txn := db.Begin()
	const n = 1000
	for i := 0; i < n; i++ {
		if err := txn.Assert("par", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)); err != nil {
			log.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		log.Fatal(err)
	}

	// Register the program: the IDB is derived once, here, and kept in the
	// store from now on. Ancestor over a 1000-chain is ~500k pairs — this is
	// the cost every cold query used to pay.
	start := time.Now()
	if err := db.Materialize(prog); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("materialized %d anc facts in %v\n", db.FactCount("anc"), time.Since(start).Round(time.Millisecond))

	// Reads are index lookups now: no rewriting, no fixpoint, no overlay.
	snap := db.Snapshot().With(prog)
	start = time.Now()
	res, err := snap.Query("anc(n0, Y)", datalog.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("anc(n0, Y): %d answers in %v (materialized hit: %v, rule firings: %d)\n",
		len(res.Answers), time.Since(start).Round(time.Microsecond), res.Stats.MaterializedHit, res.Stats.Derivations)

	// The same query opted out of the materialization shows what a cold
	// re-derivation costs.
	start = time.Now()
	cold, err := snap.Query("anc(n0, Y)", datalog.Options{Strategy: datalog.MagicSets, NoMaterialize: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same query, re-derived: %d answers in %v (rule firings: %d)\n\n",
		len(cold.Answers), time.Since(start).Round(time.Microsecond), cold.Stats.Derivations)

	// Commits maintain the IDB incrementally: this batch grafts a side
	// branch onto the middle of the chain. Maintenance work is proportional
	// to the consequences of the batch, not to the 500k stored pairs. (This
	// first commit after the reads above also pays one copy of anc: their
	// snapshot still pins the relation, and commits never write to a pinned
	// one — the retract below shows maintenance alone.)
	start = time.Now()
	txn = db.Begin()
	if err := txn.Assert("par", "n500", "branch"); err != nil {
		log.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("commit+maintain (1 assert): %v — anc now %d facts\n",
		time.Since(start).Round(time.Microsecond), db.FactCount("anc"))

	// Retraction is incremental too: delete-and-rederive removes exactly the
	// pairs that lost their last derivation.
	start = time.Now()
	if err := db.RetractText(`par(n500, branch).`); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("commit+maintain (1 retract): %v — anc back to %d facts\n\n",
		time.Since(start).Round(time.Microsecond), db.FactCount("anc"))

	// Snapshots pin the maintained IDB with the data: this one keeps
	// serving lookups even after Dematerialize on the live database.
	snap = db.Snapshot().With(prog)
	db.Dematerialize()
	pinned, err := snap.Query("anc(n0, Y)", datalog.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after Dematerialize: snapshot still answers by lookup: %v (%d answers)\n",
		pinned.Stats.MaterializedHit, len(pinned.Answers))

	if _, ok := db.MaterializedStats(); !ok {
		fmt.Println("live database has no registration anymore; queries evaluate as before")
	}
}
