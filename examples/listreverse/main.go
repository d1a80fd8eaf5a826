// List reverse: the Appendix A.1 example with function symbols. The point of
// the example is that the plain program cannot be evaluated bottom-up at all
// (it would have to enumerate every list), but its magic-sets rewriting can:
// the query's list flows top-down through the magic predicates and the
// answers flow back up, all inside an ordinary fixpoint computation.
//
// Run with:
//
//	go run ./examples/listreverse
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/datalog"
)

func main() {
	prog, err := datalog.Compile(`
		append(V, [], [V]) :- elem(V).
		append(V, [W | X], [W | Y]) :- append(V, X, Y).
		reverse([], []) :- emptylist(X).
		reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).
	`)
	if err != nil {
		log.Fatal(err)
	}
	// The elem/emptylist relations replace the paper's bodiless clauses; see
	// paperPrograms in internal/analysis/paper_test.go for the substitution.
	db := datalog.NewDatabase()
	if err := db.AssertText("elem(a). elem(b). elem(c). elem(d). emptylist(nil)."); err != nil {
		log.Fatal(err)
	}
	snap := db.Snapshot().With(prog)

	query := "reverse([a, b, c, d], Y)"

	// First show what the safety analysis of Section 10 says about the
	// program: it is not Datalog, but every recursive call shrinks the bound
	// list, so both magic and counting are safe (Theorem 10.1).
	report, err := prog.Analyze(query, datalog.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("safety: datalog=%v, magic safe=%v (%s), counting safe=%v\n\n",
		report.IsDatalog, report.MagicSafe, report.MagicSafeReason, report.CountingSafe)

	// Direct bottom-up evaluation is hopeless; the engine reports the
	// unsafety instead of looping.
	if _, err := snap.Query(query, datalog.Options{Strategy: datalog.SemiNaive, MaxFacts: 10000}); err != nil {
		fmt.Printf("direct bottom-up evaluation fails as expected: %v\n\n", shorten(err))
	}

	// The magic-sets rewriting turns it into a terminating fixpoint.
	res, err := snap.Query(query, datalog.Options{Strategy: datalog.MagicSets})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reverse([a, b, c, d]) = %s\n", res.Answers[0].Vals[0])

	// The answer is a typed compound value: walk the cons cells through the
	// Value accessors instead of parsing the rendered string.
	var elems []string
	for v := res.Answers[0].Vals[0]; ; {
		functor, args, ok := v.Compound()
		if !ok || functor != "." || len(args) != 2 {
			break
		}
		name, _ := args[0].Symbol()
		elems = append(elems, name)
		v = args[1]
	}
	fmt.Printf("walked structurally: %v\n\n", elems)
	fmt.Println("rewritten program evaluated bottom-up:")
	fmt.Print(res.RewrittenProgram)
	for _, seed := range res.Seeds {
		fmt.Printf("%s.\n", seed)
	}

	// The counting rewriting works here too (the data is a list, hence
	// acyclic), and the supplementary variants agree with magic sets.
	for _, strat := range []datalog.Strategy{datalog.SupplementaryMagicSets, datalog.Counting, datalog.SupplementaryCounting} {
		r, err := snap.Query(query, datalog.Options{Strategy: strat})
		if err != nil {
			log.Fatalf("%s: %v", strat, err)
		}
		if len(r.Answers) != 1 || r.Answers[0].String() != res.Answers[0].String() {
			log.Fatalf("%s: answers %v, magic sets %v", strat, r.Answers, res.Answers)
		}
		fmt.Printf("\n%-24s -> %s (facts %d, aux %d)", strat, r.Answers[0].Vals[0], r.Stats.DerivedFacts, r.Stats.AuxFacts)
	}
	fmt.Println()
}

func shorten(err error) string {
	var limit error = datalog.ErrLimitExceeded
	if errors.Is(err, limit) {
		return "evaluation limit exceeded"
	}
	s := err.Error()
	if len(s) > 90 {
		return s[:90] + "..."
	}
	return s
}
