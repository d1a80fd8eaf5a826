package workload

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/parser"
)

// semiNaive prepares prog for edb's symbol table and evaluates it to fixpoint.
func semiNaive(prog *ast.Program, edb *database.Store, opts eval.Options) (*database.Store, *eval.Stats, error) {
	pp, err := eval.Prepare(prog, edb.Table())
	if err != nil {
		return nil, nil, err
	}
	return pp.EvaluateCtx(context.Background(), edb, nil, opts)
}

func TestParentChain(t *testing.T) {
	s, start := ParentChain("par", 5)
	if s.FactCount("par") != 5 {
		t.Errorf("par facts = %d", s.FactCount("par"))
	}
	if !ast.Equal(start, ast.S("n0")) {
		t.Errorf("start = %s", start)
	}
	// Evaluating ancestor over the chain gives n(n+1)/2 pairs.
	prog := parser.MustParseProgram(`
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`)
	store, _, err := semiNaive(prog, s, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if store.FactCount("anc") != 15 {
		t.Errorf("anc facts = %d, want 15", store.FactCount("anc"))
	}
}

func TestParentTree(t *testing.T) {
	s, root := ParentTree("par", 2, 3)
	// A binary tree of depth 3 has 2 + 4 + 8 = 14 edges.
	if s.FactCount("par") != 14 {
		t.Errorf("par facts = %d, want 14", s.FactCount("par"))
	}
	if !ast.Equal(root, ast.S("t0")) {
		t.Errorf("root = %s", root)
	}
	// Degenerate parameters.
	empty, _ := ParentTree("par", 3, 0)
	if empty.FactCount("par") != 0 {
		t.Error("zero-depth tree must have no edges")
	}
}

func TestParentCycleAndRandomGraph(t *testing.T) {
	s, start := ParentCycle("par", 4)
	if s.FactCount("par") != 4 || !ast.Equal(start, ast.S("c0")) {
		t.Errorf("cycle: %d facts, start %s", s.FactCount("par"), start)
	}
	g1, _ := RandomGraph("e", 10, 30, 7)
	g2, _ := RandomGraph("e", 10, 30, 7)
	g3, _ := RandomGraph("e", 10, 30, 8)
	if g1.FactCount("e") == 0 || g1.FactCount("e") > 30 {
		t.Errorf("random graph edge count = %d", g1.FactCount("e"))
	}
	if g1.String() != g2.String() {
		t.Error("RandomGraph must be deterministic in its seed")
	}
	if g1.String() == g3.String() {
		t.Error("different seeds should give different graphs (overwhelmingly likely)")
	}
}

func TestSameGenerationLayers(t *testing.T) {
	sg := SameGenerationLayers(4, 2, false)
	// up and down: leaves*depth each; flat: (leaves-1)*(depth+1).
	if sg.Store.FactCount("up") != 8 || sg.Store.FactCount("down") != 8 {
		t.Errorf("up/down = %d/%d", sg.Store.FactCount("up"), sg.Store.FactCount("down"))
	}
	if sg.Store.FactCount("flat") != 9 {
		t.Errorf("flat = %d, want 9", sg.Store.FactCount("flat"))
	}
	cyclic := SameGenerationLayers(4, 2, true)
	if cyclic.Store.FactCount("flat") != 12 {
		t.Errorf("cyclic flat = %d, want 12", cyclic.Store.FactCount("flat"))
	}
	// The same-generation program over the acyclic workload relates the
	// start leaf to the leaves to its right.
	prog := parser.MustParseProgram(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).
	`)
	store, _, err := semiNaive(prog, sg.Store, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	answers := eval.Answers(store, "sg", ast.NewAtom("sg", sg.Start, ast.V("Y")))
	if len(answers) == 0 {
		t.Error("expected some same-generation answers from the start leaf")
	}
}

func TestNestedSameGeneration(t *testing.T) {
	sg := NestedSameGeneration(3, 2, false)
	if sg.Store.FactCount("b1") != 3 || sg.Store.FactCount("b2") != 3 {
		t.Errorf("b1/b2 = %d/%d", sg.Store.FactCount("b1"), sg.Store.FactCount("b2"))
	}
}

func TestListWorkload(t *testing.T) {
	l := List(3)
	if l.Length != 3 || l.Store.FactCount("elem") != 3 || l.Store.FactCount("emptylist") != 1 {
		t.Errorf("list workload wrong: %+v", l)
	}
	if l.List.String() != "[e0, e1, e2]" || l.Reversed.String() != "[e2, e1, e0]" {
		t.Errorf("list terms: %s / %s", l.List, l.Reversed)
	}
	empty := List(0)
	if empty.List.String() != "[]" || empty.Reversed.String() != "[]" {
		t.Errorf("empty list workload: %s / %s", empty.List, empty.Reversed)
	}
}

// TestQuickChainAncestorCount: property — for any chain length n in a small
// range, the ancestor relation over the chain has exactly n(n+1)/2 tuples.
func TestQuickChainAncestorCount(t *testing.T) {
	prog := parser.MustParseProgram(`
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`)
	f := func(raw uint8) bool {
		n := int(raw%12) + 1
		s, _ := ParentChain("par", n)
		store, _, err := semiNaive(prog, s, eval.Options{})
		if err != nil {
			return false
		}
		return store.FactCount("anc") == n*(n+1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickTreeEdgeCount: property — a complete tree with branching b and
// depth d has b + b^2 + ... + b^d edges.
func TestQuickTreeEdgeCount(t *testing.T) {
	f := func(rb, rd uint8) bool {
		b := int(rb%3) + 1
		d := int(rd % 4)
		s, _ := ParentTree("par", b, d)
		want := 0
		pow := 1
		for i := 1; i <= d; i++ {
			pow *= b
			want += pow
		}
		return s.FactCount("par") == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
