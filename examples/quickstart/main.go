// Quickstart: define the ancestor program of Section 1 of "On the Power of
// Magic", load a small parenthood relation in one transaction, and ask for
// the ancestors of one person with the generalized magic-sets strategy —
// against a pinned snapshot, the way a server would per request.
//
// The API has four pieces, mirroring the paper's program/data split:
// Compile builds the immutable rule program, NewDatabase the versioned fact
// store, Database.Begin a buffered atomic transaction, and
// Database.Snapshot an immutable pinned-version view — bound to the program
// with Snapshot.With, it is the one place queries read from.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/datalog"
)

func main() {
	// Compile the rules once: parse, arity checking and stratification all
	// happen here, and the immutable result could be shared by any number
	// of databases and goroutines.
	prog, err := datalog.Compile(`
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`)
	if err != nil {
		log.Fatal(err)
	}

	// Load the facts in one transaction: the batch is validated completely
	// before the first write (a bad fact anywhere loads nothing), and the
	// commit is one atomic, versioned step — the right path for EDB files,
	// several times cheaper than per-fact asserts.
	db := datalog.NewDatabase()
	txn := db.Begin()
	err = txn.AssertText(`
		par(john, mary).
		par(mary, sue).
		par(sue, kim).
		par(bob, alice).
	`)
	if err != nil {
		log.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database at version %d with %d facts\n\n", db.Version(), db.TotalFacts())

	// Pair the program with the database: Snapshot pins the current facts
	// and With binds the rules, giving an immutable view. Every query against
	// it is mutually consistent no matter what commits land concurrently —
	// take one per request.
	snap := db.Snapshot().With(prog)

	// Queries run under a context: a server would pass its request context
	// here, and a runaway evaluation is cancelled at the deadline instead of
	// running unbounded.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	res, err := snap.QueryCtx(ctx, "anc(john, Y)", datalog.Options{Strategy: datalog.MagicSets})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("ancestors related to john:")
	for _, a := range res.Answers {
		// Answers carry typed values: no string parsing to consume them.
		if name, ok := a.Vals[0].Symbol(); ok {
			fmt.Printf("  anc(john, %s)\n", name)
		}
	}

	fmt.Println("\nthe rewritten program that was evaluated bottom-up:")
	fmt.Print(res.RewrittenProgram)
	for _, seed := range res.Seeds {
		fmt.Printf("%s.   %% seed from the query\n", seed)
	}

	fmt.Printf("\nwork done: %d derived facts, %d magic facts, %d rule firings in %d iterations\n",
		res.Stats.DerivedFacts, res.Stats.AuxFacts, res.Stats.Derivations, res.Stats.Iterations)

	// A commit lands after the snapshot was taken...
	if err := db.Assert("par", "kim", "pat"); err != nil {
		log.Fatal(err)
	}
	// ...and the snapshot provably does not see it, while a snapshot taken
	// now does: that is the consistency unit per-query overlays cannot offer.
	pinned, err := snap.QueryCtx(ctx, "anc(john, Y)", datalog.Options{Strategy: datalog.MagicSets})
	if err != nil {
		log.Fatal(err)
	}
	live, err := db.Snapshot().With(prog).QueryCtx(ctx, "anc(john, Y)", datalog.Options{Strategy: datalog.MagicSets})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter a concurrent commit (version %d): snapshot still %d answers, a fresh one %d\n",
		db.Version(), len(pinned.Answers), len(live.Answers))

	// An existence check needs just one answer: prepare the form on the
	// snapshot and stream with FirstN = 1, and the fixpoint stops as soon as
	// an ancestor exists.
	for row, err := range snap.Stream(ctx, "anc(john, Y)", datalog.Options{Strategy: datalog.MagicSets, FirstN: 1}) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("first ancestor streamed: %s\n", row[0])
	}
}
