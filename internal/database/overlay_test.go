package database

import (
	"strings"
	"testing"

	"repro/internal/ast"
)

func baseStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	s.MustAddFact(ast.NewAtom("par", ast.S("a"), ast.S("b")))
	s.MustAddFact(ast.NewAtom("par", ast.S("b"), ast.S("c")))
	s.MustAddFact(ast.NewAtom("anc", ast.S("x"), ast.S("y")))
	return s
}

// TestOverlayReadThrough checks reads of unshadowed relations reach the
// base without copying.
func TestOverlayReadThrough(t *testing.T) {
	base := baseStore(t)
	ov := base.Overlay()
	if ov.Table() != base.Table() {
		t.Fatal("overlay must share the base symbol table")
	}
	if ov.Existing("par") != base.Existing("par") {
		t.Error("unshadowed relation must be the base relation itself, not a copy")
	}
	if ov.FactCount("par") != 2 || ov.TotalFacts() != 3 {
		t.Errorf("overlay counts = %d par / %d total, want 2 / 3", ov.FactCount("par"), ov.TotalFacts())
	}
	names := ov.Names()
	if len(names) != 2 || names[0] != "par" || names[1] != "anc" {
		t.Errorf("overlay names = %v", names)
	}
}

// TestOverlayCopyOnWrite checks the mutating accessor copies a base
// relation into the overlay and leaves the base untouched.
func TestOverlayCopyOnWrite(t *testing.T) {
	base := baseStore(t)
	ov := base.Overlay()
	rel, err := ov.Relation("anc", 2)
	if err != nil {
		t.Fatal(err)
	}
	if rel == base.Existing("anc") {
		t.Fatal("Relation on an overlay must privatize the base relation")
	}
	if rel.Len() != 1 {
		t.Fatalf("privatized relation lost the base facts: len = %d", rel.Len())
	}
	if _, err := ov.AddFact(ast.NewAtom("anc", ast.S("a"), ast.S("c"))); err != nil {
		t.Fatal(err)
	}
	if base.FactCount("anc") != 1 {
		t.Errorf("base anc grew to %d facts; overlay writes must not reach it", base.FactCount("anc"))
	}
	if ov.FactCount("anc") != 2 {
		t.Errorf("overlay anc = %d facts, want 2", ov.FactCount("anc"))
	}
	// A relation new to the overlay is created there, not in the base.
	if _, err := ov.AddFact(ast.NewAtom("magic_anc", ast.S("a"))); err != nil {
		t.Fatal(err)
	}
	if base.Existing("magic_anc") != nil {
		t.Error("new overlay relation leaked into the base")
	}
	if ov.FactCount("magic_anc") != 1 {
		t.Error("overlay lost its new relation")
	}
	// Arity mismatches are detected against base relations too.
	if _, err := ov.Relation("par", 3); err == nil {
		t.Error("expected an arity error privatizing par/2 as par/3")
	}
}

// TestOverlayCloneFlattens checks cloning an overlay yields an independent
// plain store with the merged contents.
func TestOverlayCloneFlattens(t *testing.T) {
	base := baseStore(t)
	ov := base.Overlay()
	ov.MustAddFact(ast.NewAtom("anc", ast.S("a"), ast.S("c")))
	c := ov.Clone()
	if c.FactCount("anc") != 2 || c.FactCount("par") != 2 {
		t.Fatalf("clone counts anc=%d par=%d", c.FactCount("anc"), c.FactCount("par"))
	}
	c.MustAddFact(ast.NewAtom("par", ast.S("c"), ast.S("d")))
	if base.FactCount("par") != 2 || ov.FactCount("par") != 2 {
		t.Error("mutating the flattened clone affected the overlay or base")
	}
	if !strings.Contains(ov.String(), "par(a, b)") {
		t.Error("overlay String misses base facts")
	}
}

// TestOverlayIndexSharing checks a lazily built index on a shared base
// relation survives for later overlays — the amortization that replaces
// rebuilding indexes on every per-query clone.
func TestOverlayIndexSharing(t *testing.T) {
	base := baseStore(t)
	ov1 := base.Overlay()
	rel := ov1.Existing("par")
	if got := lookup(rel, []int{0}, []ast.Term{ast.S("a")}); len(got) != 1 {
		t.Fatalf("lookup = %v", got)
	}
	built := *rel.indexes.Load()
	ov2 := base.Overlay()
	if ov2.Existing("par") != rel {
		t.Fatal("the second overlay does not share the base relation")
	}
	if got := lookup(ov2.Existing("par"), []int{0}, []ast.Term{ast.S("b")}); len(got) != 1 {
		t.Fatalf("lookup = %v", got)
	}
	after := *rel.indexes.Load()
	if len(after) != 1 || len(built) != 1 {
		t.Fatalf("indexes: %d built by the first overlay, %d after the second; want 1 and 1", len(built), len(after))
	}
	for mask, idx := range built {
		if after[mask] != idx {
			t.Error("the second overlay rebuilt the index instead of reusing it")
		}
	}
}
