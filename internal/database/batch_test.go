package database

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
)

func atom(pred string, args ...string) ast.Atom {
	terms := make([]ast.Term, len(args))
	for i, a := range args {
		terms[i] = ast.S(a)
	}
	return ast.NewAtom(pred, terms...)
}

// TestApplyBatchInsertAndVersion pins the batch path: grouped bulk inserts,
// dedup within the batch and against stored rows, and the commit version.
func TestApplyBatchInsertAndVersion(t *testing.T) {
	s := NewStore()
	if s.Version() != 0 {
		t.Fatalf("fresh store version = %d", s.Version())
	}
	removed, added, err := s.Apply(nil, []ast.Atom{
		atom("p", "a", "b"),
		atom("q", "x"),
		atom("p", "b", "c"),
		atom("p", "a", "b"), // duplicate within the batch
	})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 || added != 3 {
		t.Fatalf("Apply = (%d removed, %d added), want (0, 3)", removed, added)
	}
	if s.Version() != 1 {
		t.Fatalf("version = %d, want 1", s.Version())
	}
	// A second batch: duplicate against stored rows plus a retract.
	removed, added, err = s.Apply([]ast.Atom{atom("p", "b", "c"), atom("p", "never", "there")},
		[]ast.Atom{atom("p", "a", "b"), atom("p", "c", "d")})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || added != 1 {
		t.Fatalf("Apply = (%d removed, %d added), want (1, 1)", removed, added)
	}
	if got := s.FactCount("p"); got != 2 {
		t.Fatalf("p holds %d facts, want 2 (a,b and c,d)", got)
	}
	if s.Version() != 2 {
		t.Fatalf("version = %d, want 2", s.Version())
	}
}

// TestApplyValidatesBeforeMutating pins all-or-nothing: groundness and
// arity errors anywhere in the batch leave the store untouched.
func TestApplyValidatesBeforeMutating(t *testing.T) {
	s := NewStore()
	if _, _, err := s.Apply(nil, []ast.Atom{atom("p", "a", "b")}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		retracts []ast.Atom
		asserts  []ast.Atom
		wantErr  string
	}{
		{"arity conflict with store", nil, []ast.Atom{atom("q", "x"), atom("p", "solo")}, "arity"},
		{"arity conflict within batch", nil, []ast.Atom{atom("r", "x"), atom("r", "x", "y")}, "arity"},
		{"retract arity conflict", []ast.Atom{atom("p", "solo")}, []ast.Atom{atom("q", "x")}, "arity"},
		{"non-ground assert", nil, []ast.Atom{ast.NewAtom("p", ast.V("X"), ast.S("b"))}, "not ground"},
	}
	for _, tc := range cases {
		_, _, err := s.Apply(tc.retracts, tc.asserts)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
		if got := s.FactCount("p"); got != 1 {
			t.Fatalf("%s: p changed to %d facts", tc.name, got)
		}
		if s.FactCount("q")+s.FactCount("r") != 0 {
			t.Fatalf("%s: refused batch created relations", tc.name)
		}
		if s.Version() != 1 {
			t.Fatalf("%s: refused batch advanced version to %d", tc.name, s.Version())
		}
	}
}

// TestPinCopyOnWrite pins the snapshot mechanics at the store level: a
// pinned view keeps its rows while the live store moves on, through batch
// asserts, batch retracts and the single-fact paths.
func TestPinCopyOnWrite(t *testing.T) {
	s := NewStore()
	if _, _, err := s.Apply(nil, []ast.Atom{atom("p", "a", "b"), atom("p", "b", "c")}); err != nil {
		t.Fatal(err)
	}
	pin := s.Pin()
	if !pin.pinned || pin.Version() != s.Version() {
		t.Fatalf("pin: pinned=%v version=%d, want true, %d", pin.pinned, pin.Version(), s.Version())
	}

	// Batch write after the pin: the live store must clone, not mutate.
	if _, _, err := s.Apply([]ast.Atom{atom("p", "a", "b")}, []ast.Atom{atom("p", "c", "d"), atom("q", "x")}); err != nil {
		t.Fatal(err)
	}
	if got := pin.FactCount("p"); got != 2 {
		t.Fatalf("pinned view p = %d facts, want 2", got)
	}
	if !pin.Existing("p").Contains(Tuple{ast.S("a"), ast.S("b")}) {
		t.Fatal("pinned view lost the retracted fact")
	}
	if got := s.FactCount("p"); got != 2 {
		t.Fatalf("live store p = %d facts, want 2 (b,c and c,d)", got)
	}
	if s.Existing("p").Contains(Tuple{ast.S("a"), ast.S("b")}) {
		t.Fatal("live store kept the retracted fact")
	}
	if pin.Existing("q") != nil {
		t.Fatal("pinned view sees a relation created after the pin")
	}

	// Single-fact paths respect pins too.
	pin2 := s.Pin()
	if _, err := s.AddFact(atom("p", "e", "f")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RemoveFact(atom("p", "b", "c")); err != nil {
		t.Fatal(err)
	}
	if got := pin2.FactCount("p"); got != 2 {
		t.Fatalf("second pinned view p = %d facts, want 2", got)
	}
	if got := s.FactCount("p"); got != 2 {
		t.Fatalf("live store p = %d facts, want 2 (c,d and e,f)", got)
	}

	// Writes to a pinned view are rejected.
	if _, _, err := pin.Apply(nil, []ast.Atom{atom("p", "z", "z")}); err == nil {
		t.Fatal("Apply on a pinned store succeeded")
	}
	if _, err := pin.AddFact(atom("p", "z", "z")); err == nil {
		t.Fatal("AddFact on a pinned store succeeded")
	}
	if _, err := pin.RemoveFact(atom("p", "a", "b")); err == nil {
		t.Fatal("RemoveFact on a pinned store succeeded")
	}
}

// TestPinSharedWithOverlayEvaluation pins that an overlay over a pinned
// view behaves like an overlay over the live store: private writes, shared
// reads.
func TestPinSharedWithOverlayEvaluation(t *testing.T) {
	s := NewStore()
	if _, _, err := s.Apply(nil, []ast.Atom{atom("e", "a", "b")}); err != nil {
		t.Fatal(err)
	}
	pin := s.Pin()
	ov := pin.Overlay()
	if _, err := ov.AddFact(atom("d", "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := ov.AddFact(atom("e", "b", "c")); err != nil {
		t.Fatal(err)
	}
	if pin.FactCount("e") != 1 || pin.FactCount("d") != 0 {
		t.Fatal("overlay write leaked into the pinned view")
	}
	if ov.FactCount("e") != 2 || ov.FactCount("d") != 1 {
		t.Fatal("overlay lost its private writes")
	}
}

// TestApplyLargeBatchMatchesIncremental cross-checks the bulk-intern /
// bulk-insert path against per-fact AddFact on a few thousand facts.
func TestApplyLargeBatchMatchesIncremental(t *testing.T) {
	const n = 3000
	batchAtoms := make([]ast.Atom, 0, n)
	for i := 0; i < n; i++ {
		batchAtoms = append(batchAtoms, atom("edge", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", (i*7)%n)))
	}
	bulk := NewStore()
	if _, added, err := bulk.Apply(nil, batchAtoms); err != nil || added != n {
		t.Fatalf("bulk Apply = %d added, %v", added, err)
	}
	one := NewStore()
	for _, a := range batchAtoms {
		if _, err := one.AddFact(a); err != nil {
			t.Fatal(err)
		}
	}
	if bulk.String() != one.String() {
		t.Fatal("bulk-applied store differs from incrementally built store")
	}
	// Indexed lookups agree too (exercises index maintenance under bulk).
	br := bulk.Existing("edge")
	or := one.Existing("edge")
	for i := 0; i < 50; i++ {
		key := []ast.Term{ast.S(fmt.Sprintf("v%d", i*31%n))}
		if len(lookup(br, []int{0}, key)) != len(lookup(or, []int{0}, key)) {
			t.Fatalf("lookup mismatch for %v", key)
		}
	}
}

// TestApplyBulkRetract pins the bulk retract path: grouped compaction, a
// fact retracted twice in one batch counting once, and absent facts
// skipped.
func TestApplyBulkRetract(t *testing.T) {
	s := NewStore()
	var atoms []ast.Atom
	for i := 0; i < 100; i++ {
		atoms = append(atoms, atom("p", fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)))
	}
	if _, _, err := s.Apply(nil, atoms); err != nil {
		t.Fatal(err)
	}
	removed, added, err := s.Apply([]ast.Atom{
		atom("p", "a3", "b3"),
		atom("p", "a3", "b3"), // duplicate retract: counts once
		atom("p", "a7", "b7"),
		atom("p", "nope", "nope"), // absent: skipped
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 || added != 0 {
		t.Fatalf("Apply = (%d removed, %d added), want (2, 0)", removed, added)
	}
	if got := s.FactCount("p"); got != 98 {
		t.Fatalf("p holds %d facts, want 98", got)
	}
	if s.Existing("p").Contains(Tuple{ast.S("a3"), ast.S("b3")}) {
		t.Fatal("retracted fact still present")
	}
	// Lookups see the shrunken relation (indexes repaired in place).
	rel := s.Existing("p")
	if got := lookup(rel, []int{0}, []ast.Term{ast.S("a4")}); len(got) != 1 {
		t.Fatalf("lookup after bulk retract returned %d positions, want 1", len(got))
	}
	// Re-inserting a retracted fact works (hash chains rebuilt correctly).
	if _, added, err := s.Apply(nil, []ast.Atom{atom("p", "a3", "b3")}); err != nil || added != 1 {
		t.Fatalf("re-insert after bulk retract: added=%d err=%v", added, err)
	}
}

// TestCloneKeepsIndexes pins that the snapshot copy-on-write clone carries
// the lazily built column indexes, so a commit after a pin does not cost
// the next query an index rebuild — and that the clone's index is private
// (inserts to it do not corrupt the original's buckets).
func TestCloneKeepsIndexes(t *testing.T) {
	s := NewStore()
	if _, _, err := s.Apply(nil, []ast.Atom{atom("p", "a", "b"), atom("p", "a", "c")}); err != nil {
		t.Fatal(err)
	}
	rel := s.Existing("p")
	if got := lookup(rel, []int{0}, []ast.Term{ast.S("a")}); len(got) != 2 {
		t.Fatalf("seed lookup returned %d, want 2", len(got))
	}

	pin := s.Pin()
	if _, _, err := s.Apply(nil, []ast.Atom{atom("p", "a", "d")}); err != nil {
		t.Fatal(err)
	}
	live := s.Existing("p")
	if live == rel {
		t.Fatal("commit after pin did not clone the relation")
	}
	if live.indexes.Load() == nil {
		t.Fatal("clone dropped the lazily built index")
	}
	if got := lookup(live, []int{0}, []ast.Term{ast.S("a")}); len(got) != 3 {
		t.Fatalf("live lookup returned %d, want 3", len(got))
	}
	// The pinned original's index must be unaffected by the clone's insert.
	if got := lookup(pin.Existing("p"), []int{0}, []ast.Term{ast.S("a")}); len(got) != 2 {
		t.Fatalf("pinned lookup returned %d, want 2", len(got))
	}
}

// TestRetractOfMissingPredicateDoesNotPinArity pins that a no-op retract of
// a never-stored predicate does not constrain the arity of asserts later in
// the same batch — matching what the equivalent per-fact sequence does.
func TestRetractOfMissingPredicateDoesNotPinArity(t *testing.T) {
	s := NewStore()
	removed, added, err := s.Apply([]ast.Atom{atom("p", "a")}, []ast.Atom{atom("p", "a", "b")})
	if err != nil {
		t.Fatalf("no-op retract pinned the batch arity: %v", err)
	}
	if removed != 0 || added != 1 {
		t.Fatalf("Apply = (%d removed, %d added), want (0, 1)", removed, added)
	}
	// A retract conflicting with an existing relation still fails closed.
	if _, _, err := s.Apply([]ast.Atom{atom("p", "solo")}, nil); err == nil {
		t.Fatal("want arity error for retract against existing p/2")
	}
}

// TestApplyDeltaNetsPairAmongOtherRows retracts and re-asserts one fact in
// the same batch as a plain retract and a plain assert. The pair must net
// out of both captured sides, leaving exactly the plain retract and the
// plain assert. The netted rows are windows into the retract side's slab,
// which deleting them from that side overwrites, so the assert side has to
// be netted first.
func TestApplyDeltaNetsPairAmongOtherRows(t *testing.T) {
	s := NewStore()
	if _, _, err := s.Apply(nil, []ast.Atom{atom("p", "a"), atom("p", "b"), atom("p", "c")}); err != nil {
		t.Fatal(err)
	}
	minus, plus, removed, added, err := s.ApplyDelta(
		[]ast.Atom{atom("p", "a"), atom("p", "b")},
		[]ast.Atom{atom("p", "a"), atom("p", "d")})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 || added != 2 {
		t.Fatalf("ApplyDelta = (%d removed, %d added), want (2, 2)", removed, added)
	}
	if got := minus.String(); got != "p/1 (1 tuples)\n  p(b)\n" {
		t.Errorf("retract side = %q, want only p(b)", got)
	}
	if got := plus.String(); got != "p/1 (1 tuples)\n  p(d)\n" {
		t.Errorf("assert side = %q, want only p(d)", got)
	}
}
