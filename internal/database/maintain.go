package database

import (
	"fmt"

	"repro/internal/intern"
)

// This file holds the relation and store operations the incremental view
// maintenance layer (internal/eval.Maintainer) builds on: per-row derivation
// counts for counting-based maintenance of non-recursive predicates, row-level
// membership and bulk deletion by ID row, eager term-tuple materialization
// (so maintained base relations stay safe for concurrent snapshot readers),
// and dropping a materialization's relations.

// EnableCounts switches the relation to counted mode: every row carries a
// derivation count, maintained through IncRow/AddAt and compacted by the
// deletion paths. Existing rows start at count 1. Counted mode survives
// Clone and Reset. It is a single-writer operation like every mutation.
func (r *Relation) EnableCounts() {
	if r.counts != nil {
		return
	}
	r.counts = make([]int32, r.Len())
	for i := range r.counts {
		r.counts[i] = 1
	}
}

// CountAt returns the derivation count of the row at the given position; an
// uncounted relation reports 1 (present, multiplicity untracked).
func (r *Relation) CountAt(pos int) int32 {
	if r.counts == nil {
		return 1
	}
	return r.counts[pos]
}

// AddAt adds delta (possibly negative) to the count of the row at the given
// position and returns the new count. The relation must be counted.
func (r *Relation) AddAt(pos int, delta int32) int32 {
	r.counts[pos] += delta
	return r.counts[pos]
}

// IncRow adds delta to the derivation count of the given row, inserting the
// row with count delta if it is absent, and returns the resulting total
// count and whether the row was newly inserted. It enables counted mode on
// first use. The maintenance layer uses counted side relations to accumulate
// pending increments and decrements per batch.
func (r *Relation) IncRow(row []intern.ID, delta int32) (total int32, added bool, err error) {
	if len(row) != r.Arity {
		return 0, false, fmt.Errorf("relation %s: counting row of arity %d in relation of arity %d", r.Name, len(row), r.Arity)
	}
	r.EnableCounts()
	h := hashRow(row)
	if pos := r.findRowHash(h, row); pos >= 0 {
		r.counts[pos] += delta
		return r.counts[pos], false, nil
	}
	r.appendRow(row, nil, h)
	r.counts[len(r.counts)-1] = delta
	return delta, true, nil
}

// RowPos returns the position of the given ID row, or -1 if absent.
func (r *Relation) RowPos(row []intern.ID) int {
	if len(row) != r.Arity {
		return -1
	}
	return r.findRow(row)
}

// ContainsRow reports whether the relation holds the given ID row. It is a
// read-only probe of the duplicate-detection table, safe concurrently with
// other readers; parallel shard workers use it to drop already-known
// derivations while the relation is frozen at a round barrier.
func (r *Relation) ContainsRow(row []intern.ID) bool { return r.RowPos(row) >= 0 }

// insertRowTuple records a row with its already-materialized term tuple,
// skipping duplicates. Deletion capture uses it so captured rows never need
// a lazy term fill.
func (r *Relation) insertRowTuple(row []intern.ID, t Tuple) bool {
	h := hashRow(row)
	if r.findRowHash(h, row) >= 0 {
		return false
	}
	r.appendRow(row, t, h)
	return true
}

// DeleteRows removes the given ID rows in one compaction pass (rows not
// present are ignored) and returns how many were removed. It is the ID-level
// sibling of DeleteBulk, used by the maintenance layer to apply set-level
// IDB deletions.
func (r *Relation) DeleteRows(rows [][]intern.ID) int {
	var remove []int
	for _, row := range rows {
		if len(row) != r.Arity {
			continue
		}
		if pos := r.findRow(row); pos >= 0 {
			remove = append(remove, pos)
		}
	}
	return r.removeAt(remove, nil)
}

// MaterializeTuples fills the term-tuple cache for every row that exists
// only as an ID row. The maintenance layer calls it (under the store's write
// lock) on every relation it touched before the commit returns, restoring
// the invariant that live base-store relations are fully term-backed — so a
// concurrent snapshot reader's Tuple call is never a mutating lazy fill.
// The sweep runs from the tail and stops once every pending tuple is built
// (the relation tracks how many there are): maintenance appends its new rows
// after the deletion phase has finished, so the unmaterialized rows cluster
// at the end and the per-commit cost is O(rows added by the batch), not
// O(relation).
func (r *Relation) MaterializeTuples() {
	for pos := r.Len() - 1; r.lazy > 0 && pos >= 0; pos-- {
		if r.tuples[pos] == nil {
			r.materialize(pos)
		}
	}
}

// DropRelation removes the named relation from a live base store, reporting
// whether it existed. Pinned snapshot views keep the relations they
// captured, exactly as with every other write path; the live store simply
// stops listing the name. The materialization layer drops a program's IDB
// relations when its registration is removed, so later evaluations cannot
// mistake stale derived rows for base facts.
func (s *Store) DropRelation(name string) bool {
	if s.pinned {
		panic("database: DropRelation on a pinned snapshot store")
	}
	if s.base != nil {
		panic("database: DropRelation on an overlay store")
	}
	if _, ok := s.relations[name]; !ok {
		return false
	}
	delete(s.relations, name)
	for i, n := range s.order {
		if n == name {
			// A fresh array: pinned views share the old one (Store.Pin).
			s.order = append(s.order[:i:i], s.order[i+1:]...)
			break
		}
	}
	return true
}
