// Same generation: the paper's running example (Examples 1–8). Two people
// are of the same generation if they are siblings/cousins at the same depth
// of a family forest. This example generates a layered family, runs the
// nonlinear same-generation query under every strategy in the repository and
// prints a comparison of the facts each one computes — the shape of the
// comparison Sections 9 and 11 of the paper discuss.
//
// Run with:
//
//	go run ./examples/samegeneration
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/datalog"
)

// buildFamily asserts a layered family: `width` people per generation and
// `depth` generations. up(x, parent), down(parent, x) and flat(x, sibling)
// within each generation.
func buildFamily(db *datalog.Database, width, depth int) error {
	person := func(layer, i int) string { return fmt.Sprintf("g%d_p%d", layer, i) }
	for layer := 0; layer < depth; layer++ {
		for i := 0; i < width; i++ {
			if err := db.Assert("up", person(layer, i), person(layer+1, i)); err != nil {
				return err
			}
			if err := db.Assert("down", person(layer+1, i), person(layer, i)); err != nil {
				return err
			}
		}
	}
	for layer := 0; layer <= depth; layer++ {
		for i := 0; i < width-1; i++ {
			if err := db.Assert("flat", person(layer, i), person(layer, i+1)); err != nil {
				return err
			}
		}
	}
	return nil
}

func main() {
	prog, err := datalog.Compile(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).
	`)
	if err != nil {
		log.Fatal(err)
	}
	const width, depth = 12, 3
	db := datalog.NewDatabase()
	if err := buildFamily(db, width, depth); err != nil {
		log.Fatal(err)
	}
	snap := db.Snapshot().With(prog)
	fmt.Printf("family: %d people per generation, %d generations\n\n", width, depth+1)

	query := "sg(g0_p0, Y)"
	strategies := []datalog.Options{
		{Strategy: datalog.SemiNaive},
		{Strategy: datalog.MagicSets, Sip: datalog.SipFull},
		{Strategy: datalog.MagicSets, Sip: datalog.SipPartial},
		{Strategy: datalog.SupplementaryMagicSets},
		{Strategy: datalog.Counting, Semijoin: true},
		{Strategy: datalog.SupplementaryCounting, Semijoin: true},
	}

	// One deadline covers the whole comparison; every strategy's fixpoint
	// loop honors it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	fmt.Printf("%-34s %8s %10s %10s %12s\n", "strategy", "answers", "facts", "aux", "derivations")
	var first map[string]bool
	for _, opts := range strategies {
		res, err := snap.QueryCtx(ctx, query, opts)
		if err != nil {
			log.Fatalf("%s: %v", opts.Strategy, err)
		}
		name := string(opts.Strategy)
		if opts.Sip == datalog.SipPartial {
			name += " (partial sip)"
		}
		if opts.Semijoin {
			name += " (semijoin)"
		}
		fmt.Printf("%-34s %8d %10d %10d %12d\n",
			name, len(res.Answers), res.Stats.DerivedFacts, res.Stats.AuxFacts, res.Stats.Derivations)

		// All strategies must agree on the answers.
		if first == nil {
			first = res.AnswerSet()
			continue
		}
		for k := range first {
			if !res.AnswerSet()[k] {
				log.Fatalf("%s disagrees on answer %s", name, k)
			}
		}
	}

	// Consume the answers through the streaming cursor: typed rows, no
	// rendered []string view built at all.
	fmt.Printf("\npeople of the same generation as g0_p0: ")
	pq, err := snap.Prepare(query, datalog.Options{Strategy: datalog.MagicSets})
	if err != nil {
		log.Fatal(err)
	}
	i := 0
	for row, err := range pq.Stream(ctx) {
		if err != nil {
			log.Fatal(err)
		}
		if i > 0 {
			fmt.Print(", ")
		}
		name, _ := row[0].Symbol()
		fmt.Print(name)
		i++
	}
	fmt.Println()
}
