package database

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/intern"
)

// idRow interns the given symbols and returns the ID row.
func idRow(tab *intern.Table, names ...string) []intern.ID {
	t := tup(names...)
	row := make([]intern.ID, len(t))
	for i, term := range t {
		row[i] = tab.Intern(term)
	}
	return row
}

func TestScatterShardPartitionsAndDedups(t *testing.T) {
	tab := intern.NewTable()
	src := NewRelationWith(tab, "edge", 2)
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := src.InsertRow(idRow(tab, fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	const k = 4
	shards := make([]*Relation, k)
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		shards[w] = NewRelationWith(tab, "edge", 2)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src.ScatterShard(shards[w], w, k)
		}(w)
	}
	wg.Wait()

	total := 0
	for w, sh := range shards {
		total += sh.Len()
		for pos := 0; pos < sh.Len(); pos++ {
			if !src.ContainsRow(sh.Row(pos)) {
				t.Fatalf("shard %d holds a row the source does not", w)
			}
			// A row lands on exactly the shard its hash selects, so shards
			// are pairwise disjoint.
			for w2, other := range shards {
				if w2 != w && other.ContainsRow(sh.Row(pos)) {
					t.Fatalf("row present in shards %d and %d", w, w2)
				}
			}
		}
	}
	if total != n {
		t.Errorf("shards hold %d rows in total, want %d", total, n)
	}

	// Re-scattering the same source into a shard that already holds the rows
	// adds nothing: the scatter is dup-checked against the destination.
	before := shards[0].Len()
	src.ScatterShard(shards[0], 0, k)
	if shards[0].Len() != before {
		t.Errorf("re-scatter grew shard 0 from %d to %d rows", before, shards[0].Len())
	}
}

func TestMergeFromCountsOnlyNewRows(t *testing.T) {
	tab := intern.NewTable()
	main := NewRelationWith(tab, "p", 2)
	src := NewRelationWith(tab, "p", 2)
	main.MustInsert(tup("a", "b"))
	src.MustInsert(tup("a", "b")) // already in main
	src.MustInsert(tup("c", "d"))
	src.MustInsert(tup("e", "f"))

	if added := main.MergeFrom(src); added != 2 {
		t.Errorf("MergeFrom added = %d, want 2", added)
	}
	if main.Len() != 3 {
		t.Errorf("main.Len = %d, want 3", main.Len())
	}
	if !main.Contains(tup("c", "d")) || !main.Contains(tup("e", "f")) {
		t.Error("merged rows missing from main")
	}
	// Merging again is a no-op.
	if added := main.MergeFrom(src); added != 0 {
		t.Errorf("second MergeFrom added = %d, want 0", added)
	}

	// The source can be reset (its outer slices truncate) without disturbing
	// the rows main now shares.
	src.Reset()
	if !main.Contains(tup("c", "d")) {
		t.Error("row lost after resetting the merge source")
	}
}

func TestMergeFromZeroArity(t *testing.T) {
	tab := intern.NewTable()
	main := NewRelationWith(tab, "ok", 0)
	src := NewRelationWith(tab, "ok", 0)
	if _, err := src.InsertRow(nil); err != nil {
		t.Fatal(err)
	}
	if added := main.MergeFrom(src); added != 1 {
		t.Errorf("MergeFrom added = %d, want 1", added)
	}
	// A zero-arity row has no IDs, so its tuple is built from the row count
	// alone: the empty tuple, not nil.
	if got := main.Tuple(0); got == nil || len(got) != 0 {
		t.Errorf("zero-arity tuple = %v, want empty tuple", got)
	}
}

func TestContainsRowConcurrentReaders(t *testing.T) {
	tab := intern.NewTable()
	rel := NewRelationWith(tab, "edge", 2)
	rows := make([][]intern.ID, 200)
	for i := range rows {
		rows[i] = idRow(tab, fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i))
		if _, err := rel.InsertRow(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	absent := idRow(tab, "nope", "nope")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, row := range rows {
				if !rel.ContainsRow(row) {
					t.Error("stored row reported absent")
					return
				}
			}
			if rel.ContainsRow(absent) {
				t.Error("absent row reported present")
			}
		}()
	}
	wg.Wait()
}
