package database

import (
	"fmt"

	"repro/internal/intern"
)

// This file holds the relation and store operations the incremental view
// maintenance layer (internal/eval.Maintainer) builds on: per-row derivation
// counts for counting-based maintenance of non-recursive predicates, row-level
// membership and bulk deletion by ID row, and dropping a materialization's
// relations.

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
	r.appendRow(row, h)
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
