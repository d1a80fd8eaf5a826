package database

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/intern"
)

func tup(names ...string) Tuple {
	t := make(Tuple, len(names))
	for i, n := range names {
		t[i] = ast.S(n)
	}
	return t
}

func TestRelationInsertAndDedup(t *testing.T) {
	r := NewRelationWith(intern.NewTable(), "par", 2)
	ok, err := r.Insert(tup("john", "mary"))
	if err != nil || !ok {
		t.Fatalf("first insert: ok=%v err=%v", ok, err)
	}
	ok, err = r.Insert(tup("john", "mary"))
	if err != nil || ok {
		t.Fatalf("duplicate insert should be a no-op: ok=%v err=%v", ok, err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	if !r.Contains(tup("john", "mary")) || r.Contains(tup("mary", "john")) {
		t.Error("Contains wrong")
	}
}

func TestRelationInsertErrors(t *testing.T) {
	r := NewRelationWith(intern.NewTable(), "par", 2)
	if _, err := r.Insert(tup("only_one")); err == nil {
		t.Error("arity mismatch must error")
	}
	if _, err := r.Insert(Tuple{ast.V("X"), ast.S("a")}); err == nil {
		t.Error("non-ground tuple must error")
	}
}

func TestRelationLookup(t *testing.T) {
	r := NewRelationWith(intern.NewTable(), "par", 2)
	r.MustInsert(tup("john", "mary"))
	r.MustInsert(tup("john", "sue"))
	r.MustInsert(tup("mary", "bob"))

	got := lookup(r, []int{0}, []ast.Term{ast.S("john")})
	if len(got) != 2 {
		t.Errorf("Lookup(col0=john) = %v, want 2 positions", got)
	}
	got = lookup(r, []int{1}, []ast.Term{ast.S("bob")})
	if len(got) != 1 || !r.Tuple(got[0]).Equal(tup("mary", "bob")) {
		t.Errorf("Lookup(col1=bob) = %v", got)
	}
	got = lookup(r, []int{0, 1}, []ast.Term{ast.S("john"), ast.S("sue")})
	if len(got) != 1 {
		t.Errorf("Lookup(both) = %v", got)
	}
	got = lookup(r, nil, nil)
	if len(got) != 3 {
		t.Errorf("Lookup(no cols) = %v, want all", got)
	}
	got = lookup(r, []int{0}, []ast.Term{ast.S("nobody")})
	if len(got) != 0 {
		t.Errorf("Lookup(miss) = %v", got)
	}
}

func TestRelationIndexMaintainedAfterInsert(t *testing.T) {
	r := NewRelationWith(intern.NewTable(), "e", 2)
	r.MustInsert(tup("a", "b"))
	// Build index, then insert more and check the index sees the new tuples.
	_ = lookup(r, []int{0}, []ast.Term{ast.S("a")})
	r.MustInsert(tup("a", "c"))
	got := lookup(r, []int{0}, []ast.Term{ast.S("a")})
	if len(got) != 2 {
		t.Errorf("index not maintained incrementally: %v", got)
	}
}

// lookup collects the positions a term-keyed probe visits.
func lookup(r *Relation, cols []int, vals []ast.Term) []int {
	var out []int
	for c := r.Lookup(cols, vals); ; {
		pos := c.Next()
		if pos < 0 {
			return out
		}
		out = append(out, pos)
	}
}

func TestLookupUnsortedColumns(t *testing.T) {
	r := NewRelationWith(intern.NewTable(), "t", 3)
	r.MustInsert(tup("a", "b", "c"))
	r.MustInsert(tup("x", "b", "z"))
	got := lookup(r, []int{2, 0}, []ast.Term{ast.S("c"), ast.S("a")})
	if len(got) != 1 || !r.Tuple(got[0]).Equal(tup("a", "b", "c")) {
		t.Errorf("Lookup with unsorted columns = %v", got)
	}
}

func TestRelationCloneAndSorted(t *testing.T) {
	r := NewRelationWith(intern.NewTable(), "e", 2)
	r.MustInsert(tup("b", "x"))
	r.MustInsert(tup("a", "y"))
	c := r.Clone()
	c.MustInsert(tup("z", "z"))
	if r.Len() != 2 || c.Len() != 3 {
		t.Errorf("clone not independent: %d %d", r.Len(), c.Len())
	}
	s := r.Sorted()
	if s[0][0].String() != "a" || s[1][0].String() != "b" {
		t.Errorf("Sorted = %v", s)
	}
}

func TestTupleHelpers(t *testing.T) {
	a := tup("x", "y")
	if a.String() != "(x, y)" {
		t.Errorf("String = %s", a.String())
	}
	if !a.Equal(tup("x", "y")) || a.Equal(tup("x")) || a.Equal(tup("x", "z")) {
		t.Error("Equal wrong")
	}
	if (Tuple{ast.S("ab")}).Key() == (Tuple{ast.S("a"), ast.S("b")}).Key() {
		t.Error("Key collision between (ab) and (a,b)")
	}
}

func TestStoreAddFactAndCounts(t *testing.T) {
	s := NewStore()
	if _, err := s.AddFact(ast.NewAtom("par", ast.S("john"), ast.S("mary"))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddFact(ast.NewAtom("par", ast.S("mary"), ast.S("sue"))); err != nil {
		t.Fatal(err)
	}
	ok, err := s.AddFact(ast.NewAtom("par", ast.S("john"), ast.S("mary")))
	if err != nil || ok {
		t.Error("duplicate fact should return false")
	}
	if s.TotalFacts() != 2 || s.FactCount("par") != 2 || s.FactCount("missing") != 0 {
		t.Errorf("counts wrong: total=%d par=%d", s.TotalFacts(), s.FactCount("par"))
	}
	if _, err := s.AddFact(ast.NewAtom("par", ast.V("X"), ast.S("a"))); err == nil {
		t.Error("non-ground fact must be rejected")
	}
	if _, err := s.AddFact(ast.NewAtom("par", ast.S("x"))); err == nil {
		t.Error("arity clash must be rejected")
	}
	names := s.Names()
	if len(names) != 1 || names[0] != "par" {
		t.Errorf("Names = %v", names)
	}
}

func TestStoreAtomsRoundTrip(t *testing.T) {
	s := NewStore()
	s.MustAddFact(ast.NewAtom("par", ast.S("john"), ast.S("mary")))
	s.MustAddFact(ast.NewAdornedAtom("sg", "bf", ast.S("a"), ast.S("b")))
	atoms := s.Atoms("par")
	if len(atoms) != 1 || atoms[0].String() != "par(john, mary)" {
		t.Errorf("Atoms(par) = %v", atoms)
	}
	adorned := s.Atoms("sg^bf")
	if len(adorned) != 1 || adorned[0].Pred != "sg" || adorned[0].Adorn != "bf" {
		t.Errorf("Atoms(sg^bf) = %v", adorned)
	}
	if s.Atoms("missing") != nil {
		t.Error("Atoms of missing relation should be nil")
	}
}

func TestStoreCloneIndependence(t *testing.T) {
	s := NewStore()
	s.MustAddFact(ast.NewAtom("e", ast.S("a"), ast.S("b")))
	c := s.Clone()
	c.MustAddFact(ast.NewAtom("e", ast.S("b"), ast.S("c")))
	if s.TotalFacts() != 1 || c.TotalFacts() != 2 {
		t.Errorf("clone not independent: %d %d", s.TotalFacts(), c.TotalFacts())
	}
}

func TestStoreAddFactsAndString(t *testing.T) {
	s := NewStore()
	err := s.AddFacts([]ast.Atom{
		ast.NewAtom("e", ast.S("a"), ast.S("b")),
		ast.NewAtom("f", ast.S("c")),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := s.String()
	if out == "" || s.FactCount("e") != 1 || s.FactCount("f") != 1 {
		t.Errorf("store string/contents wrong:\n%s", out)
	}
	err = s.AddFacts([]ast.Atom{ast.NewAtom("e", ast.V("X"), ast.S("b"))})
	if err == nil {
		t.Error("AddFacts must stop on error")
	}
}

func TestStoreRelationArityConflict(t *testing.T) {
	s := NewStore()
	if _, err := s.Relation("p", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Relation("p", 3); err == nil {
		t.Error("conflicting arity must error")
	}
	if s.Existing("p") == nil || s.Existing("q") != nil {
		t.Error("Existing wrong")
	}
}

// randomTuple generates a ground tuple over a small domain so duplicates are
// common, exercising the dedup path.
type randomTuple struct{ T Tuple }

// Generate implements quick.Generator.
func (randomTuple) Generate(r *rand.Rand, size int) reflect.Value {
	t := make(Tuple, 2)
	for i := range t {
		if r.Intn(2) == 0 {
			t[i] = ast.S([]string{"a", "b", "c", "d"}[r.Intn(4)])
		} else {
			t[i] = ast.I(int64(r.Intn(5)))
		}
	}
	return reflect.ValueOf(randomTuple{T: t})
}

func TestQuickRelationSetSemantics(t *testing.T) {
	// Property: after inserting a sequence of tuples, Len equals the number
	// of distinct tuple keys, every inserted tuple is Contained, and a full
	// column lookup finds each tuple.
	f := func(tuples []randomTuple) bool {
		r := NewRelationWith(intern.NewTable(), "t", 2)
		distinct := make(map[string]bool)
		for _, rt := range tuples {
			r.MustInsert(rt.T)
			distinct[rt.T.Key()] = true
		}
		if r.Len() != len(distinct) {
			return false
		}
		for _, rt := range tuples {
			if !r.Contains(rt.T) {
				return false
			}
			hits := lookup(r, []int{0, 1}, []ast.Term{rt.T[0], rt.T[1]})
			if len(hits) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickLookupAgreesWithScan(t *testing.T) {
	// Property: index lookup on column 0 returns exactly the tuples a full
	// scan would find.
	f := func(tuples []randomTuple, probe randomTuple) bool {
		r := NewRelationWith(intern.NewTable(), "t", 2)
		for _, rt := range tuples {
			r.MustInsert(rt.T)
		}
		want := 0
		for _, tu := range r.Tuples() {
			if ast.Equal(tu[0], probe.T[0]) {
				want++
			}
		}
		got := lookup(r, []int{0}, []ast.Term{probe.T[0]})
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRelationDelete(t *testing.T) {
	r := NewRelationWith(intern.NewTable(), "p", 2)
	r.MustInsert(tup("a", "b"))
	r.MustInsert(tup("c", "d"))
	r.MustInsert(tup("e", "f"))
	// Build an index so deletion must invalidate it.
	if got := len(lookup(r, []int{0}, []ast.Term{ast.S("c")})); got != 1 {
		t.Fatalf("pre-delete lookup = %d, want 1", got)
	}

	ok, err := r.Delete(tup("c", "d"))
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if r.Contains(tup("c", "d")) {
		t.Error("deleted tuple still reported by Contains")
	}
	// The survivors are intact (swap deletion moves the last row into the
	// vacated slot, so here "e,f" takes the deleted row's position).
	tuples := r.Tuples()
	if !tuples[0].Equal(tup("a", "b")) || !tuples[1].Equal(tup("e", "f")) {
		t.Errorf("tuples after delete = %v", tuples)
	}
	// Lookups see the shrunken relation (index rebuilt lazily).
	if got := len(lookup(r, []int{0}, []ast.Term{ast.S("c")})); got != 0 {
		t.Errorf("post-delete lookup = %d, want 0", got)
	}
	if got := len(lookup(r, []int{0}, []ast.Term{ast.S("e")})); got != 1 {
		t.Errorf("post-delete lookup e = %d, want 1", got)
	}
	// Dedup state is consistent: the deleted tuple can be re-inserted once.
	if !r.MustInsert(tup("c", "d")) {
		t.Error("re-insert after delete reported duplicate")
	}
	if r.MustInsert(tup("c", "d")) {
		t.Error("second re-insert reported new")
	}

	// Deleting an absent or never-interned tuple is a clean no-op.
	if ok, err := r.Delete(tup("x", "y")); err != nil || ok {
		t.Errorf("Delete of absent tuple = %v, %v", ok, err)
	}
	if _, err := r.Delete(tup("a")); err == nil {
		t.Error("Delete with wrong arity did not error")
	}
}

func TestStoreRemoveFact(t *testing.T) {
	s := NewStore()
	s.MustAddFact(ast.NewAtom("p", ast.S("a"), ast.S("b")))
	s.MustAddFact(ast.NewAtom("p", ast.S("b"), ast.S("c")))
	ok, err := s.RemoveFact(ast.NewAtom("p", ast.S("a"), ast.S("b")))
	if err != nil || !ok {
		t.Fatalf("RemoveFact = %v, %v", ok, err)
	}
	if got := s.FactCount("p"); got != 1 {
		t.Errorf("FactCount = %d, want 1", got)
	}
	if ok, err := s.RemoveFact(ast.NewAtom("q", ast.S("a"))); err != nil || ok {
		t.Errorf("RemoveFact on missing relation = %v, %v", ok, err)
	}
	if _, err := s.RemoveFact(ast.NewAtom("p", ast.V("X"), ast.S("b"))); err == nil {
		t.Error("RemoveFact accepted a non-ground atom")
	}
	if _, err := s.Overlay().RemoveFact(ast.NewAtom("p", ast.S("b"), ast.S("c"))); err == nil {
		t.Error("RemoveFact on an overlay did not error")
	}
}
