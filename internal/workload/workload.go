// Package workload generates the synthetic databases used by the tests, the
// benchmarks and the paper's E1–E11 golden tests (internal/analysis).
//
// The paper evaluates its rewritings analytically on a handful of programs
// (ancestor, same generation, list reverse) without publishing data sets;
// this package provides the standard structures those analyses assume:
// chains, balanced trees, random graphs and cycles for the parenthood
// relation, layered up/flat/down data for the same-generation programs, and
// element lists for the list programs. Every generator is deterministic in
// its parameters (and seed), so experiments are reproducible.
package workload

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/database"
)

// node returns the symbolic constant naming the i-th node of a generated
// structure, with a prefix distinguishing node families.
func node(prefix string, i int) ast.Term { return ast.S(fmt.Sprintf("%s%d", prefix, i)) }

// ParentChain returns a database with a relation pred forming a simple chain
// n0 -> n1 -> ... -> n(length), plus the name of the first node. It is the
// workload behind the Section 1 motivation: the full ancestor relation is
// quadratic in the chain length while the ancestors of a single node are
// linear.
func ParentChain(pred string, length int) (*database.Store, ast.Term) {
	s := database.NewStore()
	for i := 0; i < length; i++ {
		s.MustAddFact(ast.NewAtom(pred, node("n", i), node("n", i+1)))
	}
	return s, node("n", 0)
}

// ParentTree returns a database with a relation pred forming a complete tree
// of the given branching factor and depth, edges pointing from each node to
// its children, plus the root node. Node 0 is the root.
func ParentTree(pred string, branching, depth int) (*database.Store, ast.Term) {
	s := database.NewStore()
	id := 0
	type level struct{ ids []int }
	cur := level{ids: []int{0}}
	for d := 0; d < depth; d++ {
		var next level
		for _, parent := range cur.ids {
			for b := 0; b < branching; b++ {
				id++
				s.MustAddFact(ast.NewAtom(pred, node("t", parent), node("t", id)))
				next.ids = append(next.ids, id)
			}
		}
		cur = next
	}
	return s, node("t", 0)
}

// ParentCycle returns a database whose pred relation forms a single directed
// cycle of the given length, plus one node on the cycle. Cyclic data is what
// defeats the counting strategies (Section 10).
func ParentCycle(pred string, length int) (*database.Store, ast.Term) {
	s := database.NewStore()
	for i := 0; i < length; i++ {
		s.MustAddFact(ast.NewAtom(pred, node("c", i), node("c", (i+1)%length)))
	}
	return s, node("c", 0)
}

// RandomGraph returns a database whose pred relation contains `edges`
// pseudo-random edges over `nodes` nodes, generated deterministically from
// the seed, plus one node (node 0).
func RandomGraph(pred string, nodes, edges, seed int) (*database.Store, ast.Term) {
	s := database.NewStore()
	state := int64(seed)*2654435761 + 97
	next := func(m int) int {
		state = state*6364136223846793005 + 1442695040888963407
		v := state >> 17
		if v < 0 {
			v = -v
		}
		return int(v % int64(m))
	}
	for i := 0; i < edges; i++ {
		a := next(nodes)
		b := next(nodes)
		s.MustAddFact(ast.NewAtom(pred, node("v", a), node("v", b)))
	}
	return s, node("v", 0)
}

// SameGeneration describes a layered same-generation workload.
type SameGeneration struct {
	// Store holds the up, flat and down relations.
	Store *database.Store
	// Start is a leaf node to use as the bound query argument.
	Start ast.Term
	// Leaves is the number of leaf nodes per layer.
	Leaves int
	// Depth is the number of up/down layers.
	Depth int
}

// SameGenerationLayers builds the classic same-generation workload: `leaves`
// nodes per layer, `depth` layers connected by up edges (towards the top
// layer) and down edges (back towards the leaves), and flat edges forming a
// chain inside every layer. With cyclic=false the flat chains are open and
// the counting strategies terminate; with cyclic=true the chains wrap
// around, producing cyclic data.
func SameGenerationLayers(leaves, depth int, cyclic bool) *SameGeneration {
	s := database.NewStore()
	name := func(layer, i int) ast.Term { return ast.S(fmt.Sprintf("l%d_%d", layer, i)) }
	for layer := 0; layer < depth; layer++ {
		for i := 0; i < leaves; i++ {
			s.MustAddFact(ast.NewAtom("up", name(layer, i), name(layer+1, i)))
			s.MustAddFact(ast.NewAtom("down", name(layer+1, i), name(layer, i)))
		}
	}
	for layer := 0; layer <= depth; layer++ {
		for i := 0; i < leaves-1; i++ {
			s.MustAddFact(ast.NewAtom("flat", name(layer, i), name(layer, i+1)))
		}
		if cyclic && leaves > 1 {
			s.MustAddFact(ast.NewAtom("flat", name(layer, leaves-1), name(layer, 0)))
		}
	}
	return &SameGeneration{Store: s, Start: name(0, 0), Leaves: leaves, Depth: depth}
}

// NestedSameGeneration extends a same-generation workload with the b1/b2
// relations used by the nested same-generation program of Appendix A.1.
func NestedSameGeneration(leaves, depth int, cyclic bool) *SameGeneration {
	sg := SameGenerationLayers(leaves, depth, cyclic)
	for i := 0; i < leaves; i++ {
		sg.Store.MustAddFact(ast.NewAtom("b1", ast.S(fmt.Sprintf("l0_%d", i)), ast.S(fmt.Sprintf("m%d", i))))
		sg.Store.MustAddFact(ast.NewAtom("b2", ast.S(fmt.Sprintf("m%d", i)), ast.S(fmt.Sprintf("o%d", i))))
	}
	return sg
}

// ListWorkload describes a list-reverse workload: the elem facts needed by
// the repository's version of the Appendix list program and the ground list
// to reverse.
type ListWorkload struct {
	// Store holds the elem and emptylist relations.
	Store *database.Store
	// List is the ground list term of the requested length.
	List ast.Term
	// Reversed is the expected result of reversing it.
	Reversed ast.Term
	// Length is the number of elements.
	Length int
}

// List builds a list workload of the given length with elements e0..e(n-1).
func List(length int) *ListWorkload {
	s := database.NewStore()
	elems := make([]ast.Term, length)
	for i := 0; i < length; i++ {
		elems[i] = ast.S(fmt.Sprintf("e%d", i))
		s.MustAddFact(ast.NewAtom("elem", elems[i]))
	}
	s.MustAddFact(ast.NewAtom("emptylist", ast.S("nil")))
	reversed := make([]ast.Term, length)
	for i := range elems {
		reversed[i] = elems[length-1-i]
	}
	return &ListWorkload{
		Store:    s,
		List:     ast.List(elems...),
		Reversed: ast.List(reversed...),
		Length:   length,
	}
}
