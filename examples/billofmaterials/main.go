// Bill of materials ("part explosion"): the classic deductive-database
// workload that motivates restricting recursion to the queried item. The
// subpart relation is the transitive closure of an assembly relation, and we
// only ever ask about one product at a time, so the magic-sets rewriting
// avoids exploding every product in the catalogue.
//
// Run with:
//
//	go run ./examples/billofmaterials
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/datalog"
)

func main() {
	prog, err := datalog.Compile(`
		% direct components and transitive sub-parts
		subpart(A, P) :- component(A, P).
		subpart(A, P) :- component(A, Q), subpart(Q, P).

		% parts that need a supplier certificate: leaf parts of the assembly
		certified_source(A, S) :- subpart(A, P), supplier(P, S).
	`)
	if err != nil {
		log.Fatal(err)
	}

	// Two product lines; only the bicycle is queried below.
	db := datalog.NewDatabase()
	err = db.AssertText(`
		component(bicycle, frame).
		component(bicycle, wheel).
		component(wheel, rim).
		component(wheel, spoke).
		component(wheel, hub).
		component(hub, bearing).
		component(frame, tube).

		component(car, engine).
		component(car, chassis).
		component(car, gearbox).
		component(engine, piston).
		component(engine, crankshaft).
		component(engine, valve).
		component(crankshaft, counterweight).
		component(chassis, beam).
		component(chassis, crossmember).
		component(gearbox, gear).
		component(gearbox, shaft).
		component(gear, tooth).

		supplier(bearing, 'Precision Ltd').
		supplier(spoke, 'WireWorks').
		supplier(piston, 'Forge & Co').
		supplier(tooth, 'Forge & Co').
	`)
	if err != nil {
		log.Fatal(err)
	}

	snap := db.Snapshot().With(prog)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Explode the bicycle only. A parts catalogue is queried per product, so
	// prepare the form once and run it per item — here with the bound
	// constant of the prepared text, then for any other product by argument.
	explode, err := snap.Prepare("subpart(bicycle, P)", datalog.Options{Strategy: datalog.SupplementaryMagicSets})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := explode.RunCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sub-parts of the bicycle:")
	for _, a := range parts.Answers {
		fmt.Printf("  %s\n", a.Vals[0])
	}

	// Which suppliers are involved in the bicycle? Stream the answers: rows
	// come back as typed values straight from the interned store.
	sources, err := snap.Prepare("certified_source(bicycle, S)", datalog.Options{Strategy: datalog.MagicSets})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsuppliers involved in the bicycle:")
	for row, err := range sources.Stream(ctx) {
		if err != nil {
			log.Fatal(err)
		}
		name, _ := row[0].Symbol()
		fmt.Printf("  %s\n", name)
	}

	// An existence check ("is the car an assembly at all?") wants one
	// answer, not the whole explosion: FirstN = 1 cuts the fixpoint off at
	// the first sub-part instead of deriving the car's full part tree.
	one, err := snap.Prepare("subpart(car, P)", datalog.Options{Strategy: datalog.MagicSets, FirstN: 1})
	if err != nil {
		log.Fatal(err)
	}
	first, err := one.RunCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthe car is an assembly (first sub-part found: %s; evaluation stopped early: %v)\n",
		first.Answers[0].Vals[0], first.Stats.StoppedEarly)

	// Show that the restriction is real: the unrewritten bottom-up strategy
	// also explodes the car and its certificates, the rewritten program only
	// derives facts about the bicycle (plus its auxiliary magic facts).
	naive, err := snap.QueryCtx(ctx, "subpart(bicycle, P)", datalog.Options{Strategy: datalog.SemiNaive})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nderived facts — semi-naive over the whole catalogue: %d; supplementary magic, bicycle only: %d (+%d auxiliary)\n",
		naive.Stats.DerivedFacts, parts.Stats.DerivedFacts, parts.Stats.AuxFacts)
}
