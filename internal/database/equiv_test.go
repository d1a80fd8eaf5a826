package database

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/intern"
)

// stringRelation is a reference implementation of the Relation contract with
// the seed's string-keyed semantics: dedup by canonical tuple key, lookups by
// linear scan comparing canonical term keys. The property tests below check
// that the interned, hash-indexed Relation agrees with it on randomized
// tuple streams.
type stringRelation struct {
	arity  int
	tuples []Tuple
	seen   map[string]bool
}

func newStringRelation(arity int) *stringRelation {
	return &stringRelation{arity: arity, seen: make(map[string]bool)}
}

func (r *stringRelation) insert(t Tuple) bool {
	key := t.Key()
	if r.seen[key] {
		return false
	}
	r.seen[key] = true
	r.tuples = append(r.tuples, t)
	return true
}

func (r *stringRelation) contains(t Tuple) bool { return r.seen[t.Key()] }

// delete removes the tuples present and returns how many there were.
func (r *stringRelation) delete(ts ...Tuple) int {
	n := 0
	for _, t := range ts {
		key := t.Key()
		if !r.seen[key] {
			continue
		}
		delete(r.seen, key)
		r.tuples = slices.DeleteFunc(r.tuples, func(u Tuple) bool { return u.Key() == key })
		n++
	}
	return n
}

func (r *stringRelation) lookup(cols []int, values []ast.Term) []int {
	var out []int
	for pos, t := range r.tuples {
		match := true
		for i, c := range cols {
			if ast.Key(t[c]) != ast.Key(values[i]) {
				match = false
				break
			}
		}
		if match {
			out = append(out, pos)
		}
	}
	return out
}

// randTerm draws a ground term from a small universe so the stream contains
// plenty of duplicates: symbols, integers and occasionally nested compounds.
func randTerm(rng *rand.Rand, depth int) ast.Term {
	switch k := rng.Intn(10); {
	case k < 4:
		return ast.S(fmt.Sprintf("s%d", rng.Intn(12)))
	case k < 7:
		return ast.I(int64(rng.Intn(12) - 4))
	case k < 9 && depth < 2:
		return ast.C("f", randTerm(rng, depth+1), randTerm(rng, depth+1))
	default:
		return ast.S(fmt.Sprintf("t%d", rng.Intn(4)))
	}
}

func randTuple(rng *rand.Rand, arity int) Tuple {
	t := make(Tuple, arity)
	for i := range t {
		t[i] = randTerm(rng, 0)
	}
	return t
}

// TestRelationAgreesWithStringKeyedReference drives both implementations
// with the same randomized interleaving of inserts, deletes, membership
// tests and indexed lookups and requires identical observable behavior. Per
// arity, two relations follow the reference: one filled through Insert, one
// only through InsertRow, so no writer ever hands it a term. A delete is a
// single Delete (the swap delete) or, one time in ten, a DeleteBulk of about
// a third of the rows (the compaction path); after each, Len, Tuples,
// Sorted and a Clone must hold the reference's tuples.
func TestRelationAgreesWithStringKeyedReference(t *testing.T) {
	for _, arity := range []int{0, 1, 2, 3} {
		t.Run(fmt.Sprintf("arity=%d", arity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + arity)))
			tab := intern.NewTable()
			rels := []*Relation{NewRelationWith(tab, "r", arity), NewRelationWith(tab, "rows", arity)}
			insert := []func(Tuple) (bool, error){
				rels[0].Insert,
				func(tup Tuple) (bool, error) {
					row := make([]intern.ID, len(tup))
					for i, term := range tup {
						row[i] = rels[1].Table().Intern(term)
					}
					return rels[1].InsertRow(row)
				},
			}
			ref := newStringRelation(arity)
			check := func(step int) {
				t.Helper()
				want := tupleKeys(ref.tuples)
				for _, rel := range rels {
					if rel.Len() != len(ref.tuples) {
						t.Fatalf("step %d: %s: Len = %d, reference has %d", step, rel.Name, rel.Len(), len(ref.tuples))
					}
					sorted := rel.Sorted()
					if !sort.SliceIsSorted(sorted, func(i, j int) bool { return compareTuples(sorted[i], sorted[j]) < 0 }) {
						t.Fatalf("step %d: %s: Sorted is out of order: %v", step, rel.Name, sorted)
					}
					for name, got := range map[string][]Tuple{"Tuples": rel.Tuples(), "Sorted": sorted, "Clone": rel.Clone().Tuples()} {
						if got := tupleKeys(got); got != want {
							t.Fatalf("step %d: %s: %s = %s, reference has %s", step, rel.Name, name, got, want)
						}
					}
				}
			}
			for step := 0; step < 3000; step++ {
				switch rng.Intn(5) {
				case 0, 1: // insert
					tup := randTuple(rng, arity)
					want := ref.insert(tup)
					for i, rel := range rels {
						got, err := insert[i](tup)
						if err != nil {
							t.Fatalf("step %d: %s: insert error: %v", step, rel.Name, err)
						}
						if got != want {
							t.Fatalf("step %d: %s: insert(%s) = %v, reference says %v", step, rel.Name, tup, got, want)
						}
					}
				case 2: // contains
					tup := randTuple(rng, arity)
					for _, rel := range rels {
						if got, want := rel.Contains(tup), ref.contains(tup); got != want {
							t.Fatalf("step %d: %s: Contains(%s) = %v, reference says %v", step, rel.Name, tup, got, want)
						}
					}
				case 3: // lookup on a random bound-column pattern
					var cols []int
					for c := 0; c < arity; c++ {
						if rng.Intn(2) == 0 {
							cols = append(cols, c)
						}
					}
					// Shuffle the columns: Lookup must not require sorted input.
					rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
					values := make([]ast.Term, len(cols))
					for i := range values {
						values[i] = randTerm(rng, 0)
					}
					var want []Tuple
					for _, pos := range ref.lookup(cols, values) {
						want = append(want, ref.tuples[pos])
					}
					for _, rel := range rels {
						var got []Tuple
						for _, pos := range lookup(rel, cols, values) {
							got = append(got, rel.Tuple(pos))
						}
						if tupleKeys(got) != tupleKeys(want) {
							t.Fatalf("step %d: %s: Lookup(%v, %v) = %v, reference says %v", step, rel.Name, cols, values, got, want)
						}
					}
				case 4: // delete
					if rng.Intn(10) > 0 {
						tup := randTuple(rng, arity)
						want := ref.delete(tup) == 1
						for _, rel := range rels {
							if got, err := rel.Delete(tup); err != nil || got != want {
								t.Fatalf("step %d: %s: Delete(%s) = %v, %v; reference says %v", step, rel.Name, tup, got, err, want)
							}
						}
					} else {
						var victims []Tuple
						for _, tup := range ref.tuples {
							if rng.Intn(3) == 0 {
								victims = append(victims, tup)
							}
						}
						want := ref.delete(victims...)
						for _, rel := range rels {
							if got := rel.DeleteBulk(victims); got != want {
								t.Fatalf("step %d: %s: DeleteBulk removed %d, reference %d", step, rel.Name, got, want)
							}
						}
					}
					check(step)
				}
			}
			check(3000)
		})
	}
}

// tupleKeys renders a tuple set canonically: the sorted tuple keys.
func tupleKeys(ts []Tuple) string {
	keys := make([]string, len(ts))
	for i, tup := range ts {
		keys[i] = "(" + tup.Key() + ")"
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// TestCloneIsIndependent checks that a cloned relation dedups against the
// original contents but does not leak inserts back.
func TestCloneIsIndependent(t *testing.T) {
	rel := NewRelationWith(intern.NewTable(), "c", 2)
	rel.MustInsert(Tuple{ast.S("a"), ast.S("b")})
	clone := rel.Clone()
	if clone.MustInsert(Tuple{ast.S("a"), ast.S("b")}) {
		t.Error("clone re-inserted a tuple the original already had")
	}
	if !clone.MustInsert(Tuple{ast.S("x"), ast.S("y")}) {
		t.Error("clone rejected a fresh tuple")
	}
	if rel.Len() != 1 {
		t.Errorf("insert into clone changed the original (len %d)", rel.Len())
	}
	if got := len(lookup(clone, []int{0}, []ast.Term{ast.S("x")})); got != 1 {
		t.Errorf("clone lookup found %d tuples, want 1", got)
	}
}

// TestIndexMaintainedAcrossInserts builds an index, keeps inserting, and
// checks that lookups stay exact (the index is maintained incrementally, not
// rebuilt).
func TestIndexMaintainedAcrossInserts(t *testing.T) {
	rel := NewRelationWith(intern.NewTable(), "m", 2)
	for i := 0; i < 10; i++ {
		rel.MustInsert(Tuple{ast.I(int64(i % 3)), ast.I(int64(i))})
	}
	if got := len(lookup(rel, []int{0}, []ast.Term{ast.I(0)})); got != 4 {
		t.Fatalf("initial lookup: %d tuples, want 4", got)
	}
	for i := 10; i < 20; i++ {
		rel.MustInsert(Tuple{ast.I(int64(i % 3)), ast.I(int64(i))})
	}
	if got := len(lookup(rel, []int{0}, []ast.Term{ast.I(0)})); got != 7 {
		t.Fatalf("post-insert lookup: %d tuples, want 7", got)
	}
	if n := len(*rel.indexes.Load()); n != 1 {
		t.Errorf("%d indexes after two lookups on the same column; want the one index, maintained", n)
	}
}

// TestLookupUnknownTerm probes with a constant that no relation has ever
// seen; the result must be empty, not a panic or a table mutation.
func TestLookupUnknownTerm(t *testing.T) {
	rel := NewRelationWith(intern.NewTable(), "u", 1)
	rel.MustInsert(Tuple{ast.S("known")})
	name := strings.Repeat("never-interned-", 3)
	if got := lookup(rel, []int{0}, []ast.Term{ast.S(name)}); len(got) != 0 {
		t.Errorf("lookup of unknown constant returned %v", got)
	}
	if rel.Contains(Tuple{ast.S(name)}) {
		t.Error("Contains reported an unknown constant")
	}
}

// TestCloneIndexBucketsAreIndependent builds an index, clones, and then grows
// and shrinks buckets on both sides. The clone's buckets are carved out of
// one backing array, so this is the check that a bucket growing on one side
// never shows up in the other relation or in a neighbouring bucket.
func TestCloneIndexBucketsAreIndependent(t *testing.T) {
	rel := NewRelationWith(intern.NewTable(), "e", 2)
	for k := 0; k < 8; k++ {
		for v := 0; v < 3; v++ {
			rel.MustInsert(Tuple{ast.I(int64(k)), ast.I(int64(v))})
		}
	}
	count := func(r *Relation, k int) int { return len(lookup(r, []int{0}, []ast.Term{ast.I(int64(k))})) }
	if count(rel, 0) != 3 {
		t.Fatal("index not built")
	}
	clone := rel.Clone()
	for k := 0; k < 8; k += 2 {
		clone.MustInsert(Tuple{ast.I(int64(k)), ast.I(100)})
		clone.MustInsert(Tuple{ast.I(int64(k)), ast.I(101)})
	}
	rel.MustInsert(Tuple{ast.I(1), ast.I(200)})
	clone.DeleteBulk([]Tuple{{ast.I(3), ast.I(0)}, {ast.I(3), ast.I(1)}})
	clone.MustInsert(Tuple{ast.I(3), ast.I(300)})
	wantRel := []int{3, 4, 3, 3, 3, 3, 3, 3}
	wantClone := []int{5, 3, 5, 2, 5, 3, 5, 3}
	for k := 0; k < 8; k++ {
		if got := count(rel, k); got != wantRel[k] {
			t.Errorf("original: key %d has %d rows, want %d", k, got, wantRel[k])
		}
		if got := count(clone, k); got != wantClone[k] {
			t.Errorf("clone: key %d has %d rows, want %d", k, got, wantClone[k])
		}
		for _, pos := range lookup(clone, []int{0}, []ast.Term{ast.I(int64(k))}) {
			if clone.Tuple(pos)[0] != ast.Term(ast.I(int64(k))) {
				t.Errorf("clone: bucket of key %d holds %s", k, clone.Tuple(pos))
			}
		}
	}
}
