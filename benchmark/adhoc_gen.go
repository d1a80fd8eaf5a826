package main

// Inputs of adhoc_paper: the paper's three program families at sizes where
// the fixpoint dominates, and a small forest for the front-end-dominated
// cold path. As everywhere in the generator, the seed permutes labels and
// fact order, never shapes, so fact counts are the same for every seed.

import (
	"fmt"
	"math/rand"
	"strings"
)

const (
	ancestorProgram = `a(X, Y) :- p(X, Y).
a(X, Y) :- p(X, Z), a(Z, Y).
`
	nestedSGProgram = `p(X, Y) :- b1(X, Y).
p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).
`
	listReverseProgram = `append(V, [], [V]) :- elem(V).
append(V, [W | X], [W | Y]) :- append(V, X, Y).
reverse([], []) :- emptylist(X).
reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).
`
	coldProgram = `anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`
)

// suiteStrategies are the four rewritings the paper compares.
var suiteStrategies = []string{"magic", "supplementary-magic", "counting", "supplementary-counting"}

// Family is one program of the suite with its EDB, query and expected
// answers.
type Family struct {
	Name    string
	Program string
	Facts   string // EDB in source syntax, loaded once per set-up
	Query   string
	Want    []string // sorted rendered answers, from the oracle
}

// suiteSizes fixes the suite's input sizes. They were calibrated so that one
// pass (3 families × 4 strategies, every query cold) takes about a second on
// the 2-core box this benchmark was defined on: long enough that the
// fixpoint is nearly all of it, short enough for a dozen passes per run.
type suiteSizes struct {
	Chain     int // edges of the ancestor chain
	SGLeaves  int // nodes per layer of the same-generation data
	SGDepth   int // up/down layers
	ListLen   int // elements of the list to reverse
	ColdTrees int // trees (depth 6) of the cold-small forest
}

var fullSuite = suiteSizes{Chain: 400, SGLeaves: 200, SGDepth: 10, ListLen: 40, ColdTrees: 2}
var smokeSuite = suiteSizes{Chain: 30, SGLeaves: 4, SGDepth: 2, ListLen: 5, ColdTrees: 1}

// labels returns n distinct constants prefix+label in seeded order.
func labels(rng *rand.Rand, prefix string, n int) []string {
	out := make([]string, n)
	for i, l := range rng.Perm(n) {
		out[i] = fmt.Sprintf("%s%d", prefix, l)
	}
	return out
}

// factText renders facts in source syntax in seeded order.
func factText(rng *rand.Rand, facts []wireFact) string {
	rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
	var b strings.Builder
	for _, f := range facts {
		fmt.Fprintf(&b, "%s(%s, %s).\n", f.Pred, f.Args[0], f.Args[1])
	}
	return b.String()
}

// newSuite generates the three families.
func newSuite(rng *rand.Rand, sz suiteSizes) []Family {
	return []Family{chainFamily(rng, sz.Chain), nestedSGFamily(rng, sz.SGLeaves, sz.SGDepth), listFamily(rng, sz.ListLen)}
}

// chainFamily: right-linear ancestor from the head of a chain.
func chainFamily(rng *rand.Rand, n int) Family {
	names := labels(rng, "n", n+1)
	facts := make([]wireFact, n)
	for i := range facts {
		facts[i] = wireFact{Pred: "p", Args: [2]string{names[i], names[i+1]}}
	}
	g := graphOf("p", facts)
	return Family{
		Name:    "ancestor",
		Program: ancestorProgram,
		Query:   fmt.Sprintf("a(%s, Y)", names[0]),
		Want:    g.Reachable(names[0]),
		Facts:   factText(rng, facts),
	}
}

// nestedSGFamily: the nested same-generation program over layered data —
// leaves nodes per layer, up/down edges between neighbouring layers, a flat
// chain inside every layer, and b1/b2 hanging off the bottom layer.
func nestedSGFamily(rng *rand.Rand, leaves, depth int) Family {
	layer := make([][]string, depth+1)
	for l := range layer {
		layer[l] = labels(rng, fmt.Sprintf("l%d_", l), leaves)
	}
	mid, out := labels(rng, "m", leaves), labels(rng, "o", leaves)
	var facts []wireFact
	for l := 0; l < depth; l++ {
		for i := 0; i < leaves; i++ {
			facts = append(facts,
				wireFact{Pred: "up", Args: [2]string{layer[l][i], layer[l+1][i]}},
				wireFact{Pred: "down", Args: [2]string{layer[l+1][i], layer[l][i]}})
		}
	}
	for l := 0; l <= depth; l++ {
		for i := 0; i+1 < leaves; i++ {
			facts = append(facts, wireFact{Pred: "flat", Args: [2]string{layer[l][i], layer[l][i+1]}})
		}
	}
	for i := 0; i < leaves; i++ {
		facts = append(facts,
			wireFact{Pred: "b1", Args: [2]string{layer[0][i], mid[i]}},
			wireFact{Pred: "b2", Args: [2]string{mid[i], out[i]}})
	}
	start := layer[0][0]
	want := nestedSameGeneration(graphOf("up", facts), graphOf("flat", facts), graphOf("down", facts),
		graphOf("b1", facts), graphOf("b2", facts), start)
	return Family{
		Name:    "nested-sg",
		Program: nestedSGProgram,
		Query:   fmt.Sprintf("p(%s, Y)", start),
		Want:    want,
		Facts:   factText(rng, facts),
	}
}

// listFamily: list reverse, the paper's example with function symbols.
func listFamily(rng *rand.Rand, n int) Family {
	elems := labels(rng, "e", n)
	var b strings.Builder
	for _, e := range elems {
		fmt.Fprintf(&b, "elem(%s).\n", e)
	}
	b.WriteString("emptylist(nil).\n")
	return Family{
		Name:    "list-reverse",
		Program: listReverseProgram,
		Query:   fmt.Sprintf("reverse([%s], Y)", strings.Join(elems, ", ")),
		Want:    []string{reversedList(elems)},
		Facts:   b.String(),
	}
}
