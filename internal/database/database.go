// Package database implements the extensional and intensional fact store
// used by the evaluators: relations of ground tuples with hash indexes on
// arbitrary subsets of columns.
//
// A database D is a finite set of finite relations (Section 1.1 of the
// paper). Derived relations computed during bottom-up evaluation are stored
// in the same structure, so a Store holds both the EDB and, after
// evaluation, the IDB.
//
// Storage layout: every ground term of every tuple is interned into the
// store's symbol table (internal/intern), and a relation keeps one dense
// []intern.ID row per tuple. Duplicate detection and the bound-column hash
// indexes hash those ID rows directly, so no canonical key strings are built
// on the insert or probe path. A relation stores no terms: the few callers
// that read tuples back out as terms (display, golden tests, the top-down
// interpreter) build them from the ID rows on each read. Each index covers
// one set of columns (a bound-column pattern) and is maintained
// incrementally on insert once built.
//
// Every Store owns its own intern.Table (shared with its clones and
// siblings), so a long-lived process evaluating many independent programs
// does not grow one shared append-only symbol table without bound.
// A relation created standalone with NewRelationWith interns into the
// table it is given.
package database

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/intern"
)

// Tuple is a ground tuple of a relation.
type Tuple []ast.Term

// Key returns a canonical encoding of the tuple usable as a map key.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, term := range t {
		b.WriteString(ast.Key(term))
		b.WriteByte(',')
	}
	return b.String()
}

// String renders the tuple as (a, b, c).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, term := range t {
		parts[i] = term.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Equal reports whether two tuples are identical.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !ast.Equal(t[i], o[i]) {
			return false
		}
	}
	return true
}

// fnv1aOffset and fnv1aPrime are the 64-bit FNV-1a parameters used to hash
// ID rows and projections.
const (
	fnv1aOffset uint64 = 14695981039346656037
	fnv1aPrime  uint64 = 1099511628211
)

// hashID folds one interned ID into an FNV-1a-style hash state. The whole
// 32-bit ID is folded in one multiply instead of byte-at-a-time; buckets are
// verified by ID comparison, so hash quality only affects bucket sizes.
func hashID(h uint64, id intern.ID) uint64 {
	return (h ^ uint64(uint32(id))) * fnv1aPrime
}

// hashRow hashes a full ID row.
func hashRow(row []intern.ID) uint64 {
	h := fnv1aOffset
	for _, id := range row {
		h = hashID(h, id)
	}
	return h
}

// hashProjection hashes the row restricted to the given columns.
func hashProjection(row []intern.ID, cols []int) uint64 {
	h := fnv1aOffset
	for _, c := range cols {
		h = hashID(h, row[c])
	}
	return h
}

// colIndex is a hash table over one set of columns, kept in flat slices so
// that copying it is a few slice copies: the hash of a row's projection
// picks a slot, and each slot chains the positions of the rows hashing to
// it, oldest first. slots interleaves every slot's head and tail position
// (-1 when empty); next links a position to the next one in its chain (-1
// ends it). Chains may mix projections that share a slot, so readers check
// each candidate against the probe IDs. A relation's duplicate-detection
// table is the colIndex over every column (nil cols).
type colIndex struct {
	mask  uint64 // the column bitmask the index serves
	cols  []int  // sorted column positions; nil means every column
	slots []int32
	next  []int32
	shift uint8 // 64 - log2(slot count)
}

// hash hashes the row's projection onto the index columns.
func (x *colIndex) hash(row []intern.ID) uint64 {
	if x.cols == nil {
		return hashRow(row)
	}
	return hashProjection(row, x.cols)
}

// slot maps a hash to its slot (Fibonacci hashing on the high bits).
func (x *colIndex) slot(h uint64) int { return int((h * 0x9E3779B97F4A7C15) >> x.shift) }

// head returns the oldest position chained under the hash, or -1.
func (x *colIndex) head(h uint64) int32 {
	if len(x.slots) == 0 {
		return -1
	}
	return x.slots[2*x.slot(h)]
}

// push chains the new last row of r, at pos, under its hash h; once the rows
// outnumber the slots, the table is rebuilt at twice the size instead.
func (x *colIndex) push(r *Relation, h uint64, pos int32) {
	if int(pos) >= len(x.slots)/2 {
		x.rebuild(r, int(pos)+1)
		return
	}
	x.next = append(x.next, -1)
	x.link(x.slot(h), pos)
}

func (x *colIndex) link(s int, pos int32) {
	if t := x.slots[2*s+1]; t >= 0 {
		x.next[t] = pos
	} else {
		x.slots[2*s] = pos
	}
	x.slots[2*s+1] = pos
}

// rebuild chains every row of r, in position order, into a fresh table with
// at least want slots. The slices are new, so a Cursor still walking the old
// chains is unaffected.
func (x *colIndex) rebuild(r *Relation, want int) {
	size := 8
	for size < want {
		size *= 2
	}
	x.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	x.slots = make([]int32, 2*size)
	for i := range x.slots {
		x.slots[i] = -1
	}
	n := r.Len()
	x.next = make([]int32, n, max(n, size))
	for pos := range n {
		x.next[pos] = -1
		x.link(x.slot(x.hash(r.Row(pos))), int32(pos))
	}
}

// unlink removes the row at pos from its chain, before a swap delete.
func (x *colIndex) unlink(r *Relation, pos int32) {
	s := x.slot(x.hash(r.Row(int(pos))))
	prev := int32(-1)
	for p := x.slots[2*s]; p != pos; p = x.next[p] {
		prev = p
	}
	if prev < 0 {
		x.slots[2*s] = x.next[pos]
	} else {
		x.next[prev] = x.next[pos]
	}
	if x.slots[2*s+1] == pos {
		x.slots[2*s+1] = prev
	}
}

// move renames the row at from to position to, keeping its place in its
// chain: the swap half of a swap delete.
func (x *colIndex) move(r *Relation, from, to int32) {
	s := x.slot(x.hash(r.Row(int(from))))
	if x.slots[2*s] == from {
		x.slots[2*s] = to
	} else {
		p := x.slots[2*s]
		for x.next[p] != from {
			p = x.next[p]
		}
		x.next[p] = to
	}
	if x.slots[2*s+1] == from {
		x.slots[2*s+1] = to
	}
	x.next[to] = x.next[from]
}

// clone copies the table; the column list is immutable and shared.
func (x *colIndex) clone() colIndex {
	return colIndex{mask: x.mask, cols: x.cols, slots: cloneCap(x.slots), next: cloneCap(x.next), shift: x.shift}
}

// cloneCap copies a slice with room to grow, so the copy's next appends do
// not move it again; each byte of the new array is written once.
func cloneCap[T any](s []T) []T {
	if s == nil {
		return nil
	}
	return append(s[:len(s):len(s)], make([]T, len(s)/8+8)...)[:len(s)]
}

// Relation is a set of ground tuples of fixed arity with optional hash
// indexes on subsets of columns. Tuples are appended in insertion order and
// adding a duplicate tuple is a no-op; deletions swap the last row into the
// vacated position (see Delete), so positions are stable only between
// deletions and readers wanting a canonical order use Sorted.
//
// The rows live in one ID slab with a stride of Arity, and the slab, the
// hash tables and the optional counts are all the relation holds: every
// part is pointer-free, and term tuples are built on demand from the slab.
// A Row slice is a window into the slab: it stays valid until the next
// delete on the relation, which may overwrite it, so callers that keep IDs
// across a delete copy them.
type Relation struct {
	// Name is the predicate key this relation stores (e.g. "anc", "sg^bf",
	// "magic_sg^bf").
	Name string
	// Arity is the width of every tuple in the relation.
	Arity int

	// tab is the symbol table the relation's rows are interned in.
	tab *intern.Table

	rows []intern.ID
	// n counts the rows: a zero-arity relation's slab stays empty.
	n int
	// dedup is the duplicate-detection table: the colIndex on every column.
	// Positions are int32: a relation holds fewer than 2^31 rows.
	dedup colIndex
	// indexes lists the built column indexes. It is reached through an
	// atomic pointer so that concurrent read-only users of a shared relation
	// (evaluations running against overlay stores of the same base) can
	// probe existing indexes lock-free while another evaluation builds a new
	// one: builders copy the list under buildMu and publish the copy.
	// Inserts, which also maintain the indexes, are only ever performed by a
	// single writer with no concurrent readers (private relations of one
	// evaluation, or the engine store under its write lock).
	indexes atomic.Pointer[[]*colIndex]
	buildMu sync.Mutex

	// counts, when non-nil, holds one derivation count per row (parallel to
	// rows): the number of distinct rule-body instantiations currently
	// deriving the tuple. The incremental maintenance layer (internal/eval)
	// enables it on materialized non-recursive IDB relations so a retract can
	// decrement instead of recompute; see maintain.go. A nil slice means the
	// relation is an ordinary set.
	counts []int32

	// pins counts the live store snapshots holding the relation (Store.Pin,
	// Store.Release). While it is above zero the relation must not be
	// mutated in place: the copy-on-write accessors (Store.Relation,
	// Store.writable) clone it before the first write, so every pinned view
	// keeps observing the state it was taken at. Atomic because snapshots
	// are taken and released concurrently by the store's readers.
	pins atomic.Int32
}

// NewRelationWith creates an empty relation with the given predicate key
// and arity, interning into the given table.
func NewRelationWith(tab *intern.Table, name string, arity int) *Relation {
	return &Relation{Name: name, Arity: arity, tab: tab}
}

// Table returns the symbol table the relation interns its rows in.
func (r *Relation) Table() *intern.Table { return r.tab }

// Len returns the number of tuples in the relation.
func (r *Relation) Len() int { return r.n }

// Tuples returns the tuples in position order (insertion order until the
// first deletion; see Delete), built from the ID rows on each call and
// owned by the caller. Nothing is cached, so it is a pure read.
func (r *Relation) Tuples() []Tuple {
	rd := r.tab.Reader()
	terms := make(Tuple, 0, r.n*r.Arity)
	out := make([]Tuple, r.n)
	for pos := range out {
		terms = AppendTerms(terms, &rd, r.Row(pos))
		out[pos] = terms[len(terms)-r.Arity : len(terms) : len(terms)]
	}
	return out
}

// AppendTerms appends the terms of an ID row, read through rd, to dst.
func AppendTerms(dst Tuple, rd *intern.Reader, row []intern.ID) Tuple {
	for _, id := range row {
		dst = append(dst, rd.Term(id))
	}
	return dst
}

// findRowHash returns the position of the row equal to the given IDs under
// the precomputed full-row hash, or -1, by walking the hash chain.
func (r *Relation) findRowHash(h uint64, row []intern.ID) int {
	for p := r.dedup.head(h); p >= 0; p = r.dedup.next[p] {
		if slices.Equal(r.Row(int(p)), row) {
			return int(p)
		}
	}
	return -1
}

// findRow returns the position of the row equal to the given IDs, or -1.
func (r *Relation) findRow(row []intern.ID) int {
	return r.findRowHash(hashRow(row), row)
}

// findTuple returns the position of the tuple, or -1; a tuple of the wrong
// arity or with a term the table never interned is in no row.
func (r *Relation) findTuple(t Tuple) int {
	if len(t) != r.Arity {
		return -1
	}
	row := make([]intern.ID, len(t))
	for i, term := range t {
		id, ok := r.tab.Find(term)
		if !ok {
			return -1
		}
		row[i] = id
	}
	return r.findRow(row)
}

// Contains reports whether the relation already holds the tuple.
func (r *Relation) Contains(t Tuple) bool { return r.findTuple(t) >= 0 }

// Insert adds a tuple to the relation. It returns true if the tuple is new,
// false if it was already present. Inserting a tuple of the wrong arity or a
// non-ground tuple returns an error.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if len(t) != r.Arity {
		return false, fmt.Errorf("relation %s: inserting tuple of arity %d into relation of arity %d", r.Name, len(t), r.Arity)
	}
	for _, term := range t {
		if !ast.IsGround(term) {
			return false, fmt.Errorf("relation %s: tuple %s is not ground", r.Name, t)
		}
	}
	row := make([]intern.ID, len(t))
	for i, term := range t {
		row[i] = r.tab.Intern(term)
	}
	h := hashRow(row)
	if r.findRowHash(h, row) >= 0 {
		return false, nil
	}
	r.appendRow(row, h)
	return true, nil
}

// appendRow copies a verified-new row onto the slab under the given full-row
// hash, maintaining existing indexes incrementally. The row count goes up
// before the tables are pushed, since a push may rebuild from every row.
func (r *Relation) appendRow(row []intern.ID, h uint64) {
	pos := int32(r.n)
	r.rows = append(r.rows, row...)
	r.n++
	if r.counts != nil {
		r.counts = append(r.counts, 1)
	}
	r.dedup.push(r, h, pos)
	if m := r.indexes.Load(); m != nil {
		for _, x := range *m {
			x.push(r, x.hash(row), pos)
		}
	}
}

// InsertRow adds a tuple given as an ID row interned in the relation's
// table. It returns true if the row is new. The relation copies the IDs, so
// executors may reuse a scratch buffer across calls.
func (r *Relation) InsertRow(row []intern.ID) (bool, error) {
	if len(row) != r.Arity {
		return false, fmt.Errorf("relation %s: inserting row of arity %d into relation of arity %d", r.Name, len(row), r.Arity)
	}
	h := hashRow(row)
	if r.findRowHash(h, row) >= 0 {
		return false, nil
	}
	r.appendRow(row, h)
	return true, nil
}

// Row returns the ID row at the given position: a window into the slab that
// must not be modified and is valid until the next delete on the relation.
func (r *Relation) Row(pos int) []intern.ID {
	i := pos * r.Arity
	return r.rows[i : i+r.Arity : i+r.Arity]
}

// ScatterShard appends to dst the source rows whose full-row hash falls into
// shard w of k, skipping rows dst already holds. One call per shard runs
// concurrently — each call reads r but writes only its own dst.
func (r *Relation) ScatterShard(dst *Relation, w, k int) {
	kk, ww := uint64(k), uint64(w)
	for pos := range r.Len() {
		row := r.Row(pos)
		h := hashRow(row)
		if h%kk != ww {
			continue
		}
		if dst.findRowHash(h, row) < 0 {
			dst.appendRow(row, h)
		}
	}
}

// MergeFrom appends every row of src that r does not already hold and
// returns the number of rows added. It is the serial round-barrier merge
// path of the parallel evaluator.
func (r *Relation) MergeFrom(src *Relation) int {
	added := 0
	for pos := range src.Len() {
		row := src.Row(pos)
		h := hashRow(row)
		if r.findRowHash(h, row) < 0 {
			r.appendRow(row, h)
			added++
		}
	}
	return added
}

// InsertBulk appends the n pre-validated, pre-interned rows of one batch
// group: ids holds the concatenated ID rows (Arity entries per row, in
// batch order), and n counts them, since a zero-arity batch has no IDs.
// Duplicate rows (within the batch or against the stored ones) are skipped;
// existing indexes are maintained incrementally by the same appendRow path
// as single-row inserts, so the batch publishes its index updates together
// with its rows. It returns the number of rows actually added. Callers have
// already checked groundness and arity (Store.Apply); like all inserts it is
// a single-writer operation.
func (r *Relation) InsertBulk(ids []intern.ID, n int) int {
	return r.insertBulk(ids, n, nil)
}

// insertBulk is InsertBulk with optional delta capture: rows actually added
// are recorded into capture too, for Store.ApplyDelta. A row new to r
// cannot already be in the batch-private capture relation, so it is
// appended without a second duplicate check.
func (r *Relation) insertBulk(ids []intern.ID, n int, capture *Relation) int {
	// Pre-size the slab and the hash table: growing them row by row rehashes
	// and copies log-many times, which profiles as a top cost of bulk loads.
	r.rows = slices.Grow(r.rows, n*r.Arity)
	if want := r.n + n; want > len(r.dedup.slots)/2 {
		r.dedup.rebuild(r, want)
	}
	added := 0
	for i := range n {
		row := ids[i*r.Arity : (i+1)*r.Arity : (i+1)*r.Arity]
		h := hashRow(row)
		if r.findRowHash(h, row) >= 0 {
			continue
		}
		r.appendRow(row, h)
		if capture != nil {
			capture.appendRow(row, h)
		}
		added++
	}
	return added
}

// Delete removes a tuple from the relation, reporting whether it was
// present. It is an O(1) swap deletion (see removeAt): the last row moves
// into the vacated slot, so deletion does not preserve the position order of
// the survivors, but built indexes and the duplicate-detection hash chains
// are repaired in place rather than rebuilt. Like inserts, Delete is a
// single-writer operation: it must not run concurrently with any other
// access to the relation (the engine calls it only under its write lock,
// with no evaluation in flight).
func (r *Relation) Delete(t Tuple) (bool, error) {
	if len(t) != r.Arity {
		return false, fmt.Errorf("relation %s: deleting tuple of arity %d from relation of arity %d", r.Name, len(t), r.Arity)
	}
	pos := r.findTuple(t)
	if pos < 0 {
		return false, nil
	}
	r.swapDelete(pos)
	return true, nil
}

// DeleteBulk removes every stored tuple of ts from the relation, returning
// how many were present (a tuple retracted twice counts once, like two
// Delete calls). The bulk path locates all positions first, then removes
// them through removeAt: O(k) swap deletions with in-place index repair when
// k is small against the relation, one compaction pass with a hash rebuild
// and an index drop when it is not. Like Delete it is a single-writer
// operation.
func (r *Relation) DeleteBulk(ts []Tuple) int {
	return r.deleteBulk(ts, nil)
}

// deleteBulk is DeleteBulk with optional delta capture: when capture is
// non-nil, every row actually removed is recorded into it before the
// compaction. Store.ApplyDelta uses it to hand the maintenance layer the
// exact set of facts a commit retracted.
func (r *Relation) deleteBulk(ts []Tuple, capture *Relation) int {
	var remove []int
	for _, t := range ts {
		if pos := r.findTuple(t); pos >= 0 {
			remove = append(remove, pos)
		}
	}
	return r.removeAt(remove, capture)
}

// removeAt deletes the rows at the given positions (unsorted, possibly
// duplicated), optionally capturing the removed rows, and returns how many
// rows were removed. Small deletions (the incremental-maintenance steady
// state: a handful of rows out of a large relation) are applied by swapping
// the last row into each vacated slot, fixing the hash chains of just the
// two rows involved — O(k), independent of the relation size. Mass
// deletions fall back to a single compaction pass with a hash rebuild and
// an index drop, which is cheaper than k swap fixups once k is a real
// fraction of the rows. Deletion does not preserve the insertion order of
// the survivors (the swap moves the last row into the gap).
func (r *Relation) removeAt(remove []int, capture *Relation) int {
	if len(remove) == 0 {
		return 0
	}
	// Sort and deduplicate (the same fact may appear twice in one batch).
	sort.Ints(remove)
	remove = slices.Compact(remove)
	if capture != nil {
		// The positions are distinct, so are their rows: each is new to the
		// batch-private capture relation.
		for _, pos := range remove {
			capture.appendRow(r.Row(pos), hashRow(r.Row(pos)))
		}
	}
	if len(remove)*8 < r.Len() {
		// Descending order: every position above the one being removed has
		// already been removed or is a keeper, so the last row is always a
		// keeper (or the removed row itself) when it is swapped in.
		for k := len(remove) - 1; k >= 0; k-- {
			r.swapDelete(remove[k])
		}
		return len(remove)
	}
	out, k := 0, 0
	for pos := range r.Len() {
		if k < len(remove) && remove[k] == pos {
			k++
			continue
		}
		copy(r.Row(out), r.Row(pos))
		if r.counts != nil {
			r.counts[out] = r.counts[pos]
		}
		out++
	}
	r.truncate(out)
	r.dedup.rebuild(r, out)
	r.indexes.Store(nil)
	return len(remove)
}

// swapDelete removes the row at pos by copying the last row over it,
// repairing the chains of exactly the two rows involved in the
// duplicate-detection table and every built index.
func (r *Relation) swapDelete(pos int) {
	last := r.Len() - 1
	for _, x := range r.tables() {
		x.unlink(r, int32(pos))
		if pos != last {
			x.move(r, int32(last), int32(pos))
		}
		x.next = x.next[:last]
	}
	if pos != last {
		copy(r.Row(pos), r.Row(last))
		if r.counts != nil {
			r.counts[pos] = r.counts[last]
		}
	}
	r.truncate(last)
}

// tables returns the duplicate-detection table and every built index.
func (r *Relation) tables() []*colIndex {
	tables := []*colIndex{&r.dedup}
	if m := r.indexes.Load(); m != nil {
		tables = append(tables, *m...)
	}
	return tables
}

// truncate keeps the first n rows of the slab and the counts; the hash
// tables are the caller's to repair.
func (r *Relation) truncate(n int) {
	r.rows = r.rows[:n*r.Arity]
	r.n = n
	if r.counts != nil {
		r.counts = r.counts[:n]
	}
}

// MustInsert is Insert that panics on error; for use with generated data.
func (r *Relation) MustInsert(t Tuple) bool {
	ok, err := r.Insert(t)
	if err != nil {
		panic(err)
	}
	return ok
}

// colMask encodes a sorted set of column positions as a bitmask. Columns
// beyond 63 (which no workload in this repository reaches) fall back to an
// unindexed scan in Probe.
func colMask(cols []int) (uint64, bool) {
	var m uint64
	for _, c := range cols {
		if c >= 64 {
			return 0, false
		}
		m |= 1 << uint(c)
	}
	return m, true
}

// ensureIndex builds (or returns) the hash index on the given sorted columns.
// Concurrent builders are serialized by buildMu and publish a fresh copy of
// the index list, so lock-free readers always see fully built indexes.
func (r *Relation) ensureIndex(mask uint64, cols []int) *colIndex {
	if x := r.index(mask); x != nil {
		return x
	}
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	if x := r.index(mask); x != nil {
		return x
	}
	x := &colIndex{mask: mask, cols: slices.Clone(cols)}
	x.rebuild(r, r.Len())
	var next []*colIndex
	if old := r.indexes.Load(); old != nil {
		next = append(next, *old...)
	}
	next = append(next, x)
	r.indexes.Store(&next)
	return x
}

// index returns the built index on the column mask, or nil.
func (r *Relation) index(mask uint64) *colIndex {
	if m := r.indexes.Load(); m != nil {
		for _, x := range *m {
			if x.mask == mask {
				return x
			}
		}
	}
	return nil
}

// Cursor walks the positions of the rows matching one probe (see Probe).
// The zero Cursor matches nothing.
type Cursor struct {
	r    *Relation
	cols []int
	ids  []intern.ID
	next []int32 // the probed index's chains; nil scans every row
	pos  int32
	end  int32 // the row count at probe time
}

// Probe returns a cursor over the positions of rows whose IDs at the given
// columns equal the given IDs, in insertion order, using (and building if
// needed) a hash index on that bound-column pattern. cols must be sorted
// ascending; with no columns every row matches. It is the ID-level probe
// the compiled join pipelines use: it allocates nothing and checks each
// candidate inline. Rows inserted after the probe are not visited.
func (r *Relation) Probe(cols []int, ids []intern.ID) Cursor {
	c := Cursor{r: r, cols: cols, ids: ids, end: int32(r.Len())}
	if mask, ok := colMask(cols); ok && len(cols) > 0 && c.end > 0 {
		x := r.ensureIndex(mask, cols)
		c.next, c.pos = x.next, x.head(hashRow(ids))
	}
	return c
}

// Next returns the next matching position, or -1 once the probe is done.
func (c *Cursor) Next() int {
	for c.pos >= 0 && c.pos < c.end {
		p := int(c.pos)
		if c.next != nil {
			c.pos = c.next[p]
		} else {
			c.pos++
		}
		if rowMatches(c.r.Row(p), c.cols, c.ids) {
			return p
		}
	}
	return -1
}

// Lookup is Probe for ground terms, with the columns in any order: a term
// the relation's table never interned occurs in no row.
func (r *Relation) Lookup(cols []int, vals []ast.Term) Cursor {
	sorted := cols
	if !slices.IsSorted(cols) {
		sorted = slices.Sorted(slices.Values(cols))
	}
	ids := make([]intern.ID, len(vals))
	for i, v := range vals {
		id, ok := r.tab.Find(v)
		if !ok {
			return Cursor{}
		}
		ids[slices.Index(sorted, cols[i])] = id
	}
	return r.Probe(sorted, ids)
}

// LookupIDs returns the positions Probe visits, as a slice.
func (r *Relation) LookupIDs(cols []int, ids []intern.ID) []int {
	var out []int
	for c := r.Probe(cols, ids); ; {
		pos := c.Next()
		if pos < 0 {
			return out
		}
		out = append(out, pos)
	}
}

func rowMatches(row []intern.ID, cols []int, ids []intern.ID) bool {
	for i, c := range cols {
		if row[c] != ids[i] {
			return false
		}
	}
	return true
}

// Tuple returns the tuple at the given position, built from its ID row and
// owned by the caller. Like Tuples it caches nothing and is a pure read.
func (r *Relation) Tuple(pos int) Tuple {
	rd := r.tab.Reader()
	return AppendTerms(make(Tuple, 0, r.Arity), &rd, r.Row(pos))
}

// Reset empties the relation in place for reuse, keeping the allocated
// backing storage and the index definitions. The semi-naive evaluator
// resets its two per-component delta stores instead of
// allocating fresh ones every round.
func (r *Relation) Reset() {
	r.truncate(0)
	for _, x := range r.tables() {
		x.next = x.next[:0]
		for i := range x.slots {
			x.slots[i] = -1
		}
	}
}

// Clone returns a deep copy of the relation, including its lazily built
// column indexes, so that a commit cloning a pinned relation does not cost
// the next query an index rebuild; the clone starts unpinned. Every part is
// a flat, pointer-free slice, so the copy is a handful of slice copies. The
// clone shares the symbol table, so ID rows stay comparable. Cloning
// concurrently with snapshot readers is safe: readers never mutate published
// indexes, and a pinned relation's rows are immutable by the copy-on-write
// contract.
func (r *Relation) Clone() *Relation {
	c := &Relation{
		Name:   r.Name,
		Arity:  r.Arity,
		tab:    r.tab,
		rows:   cloneCap(r.rows),
		n:      r.n,
		dedup:  r.dedup.clone(),
		counts: cloneCap(r.counts),
	}
	if m := r.indexes.Load(); m != nil {
		next := make([]*colIndex, len(*m))
		for i, x := range *m {
			cx := x.clone()
			next[i] = &cx
		}
		c.indexes.Store(&next)
	}
	return c
}

// Sorted returns the tuples sorted by the total term order, for deterministic
// display and golden tests.
func (r *Relation) Sorted() []Tuple {
	out := r.Tuples()
	sort.Slice(out, func(i, j int) bool { return compareTuples(out[i], out[j]) < 0 })
	return out
}

func compareTuples(a, b Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := ast.CompareTerms(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// Store is a collection of relations keyed by predicate key. It serves both
// as the extensional database (base facts) and, during and after bottom-up
// evaluation, as the store of derived facts. Every store owns an intern
// table scoped to it (shared with clones, overlays and siblings created
// through NewStoreWith), so independent stores do not grow each other's
// symbol tables.
type Store struct {
	tab *intern.Table
	// base, when non-nil, makes this store a copy-on-write overlay: reads of
	// relations not present in the overlay fall through to the base, and the
	// mutating accessor Relation copies a base relation into the overlay
	// before it is ever written. See Overlay.
	base      *Store
	relations map[string]*Relation
	order     []string
	// version counts the committed write batches applied to the store (see
	// Apply); Pin carries it into the snapshot view, so a pinned store
	// identifies exactly which commit it observes.
	version uint64
	// pinned marks the store as an immutable snapshot view produced by Pin:
	// every write entry point rejects it, and Relation returns pinned
	// relations without the copy-on-write step (the snapshot's whole point is
	// to keep reading the shared pinned state). released records that
	// Release ended the view's pins.
	pinned   bool
	released atomic.Bool
}

// NewStore returns an empty store with a fresh symbol table of its own.
func NewStore() *Store {
	return NewStoreWith(intern.NewTable())
}

// NewStoreWith returns an empty store interning into the given table. The
// evaluators use it to create delta stores whose ID rows are comparable
// with the main store's.
func NewStoreWith(tab *intern.Table) *Store {
	return &Store{tab: tab, relations: make(map[string]*Relation)}
}

// Table returns the store's symbol table.
func (s *Store) Table() *intern.Table { return s.tab }

// Overlay returns a copy-on-write view of the store: reads fall through to
// the base store's relations, while any relation obtained through the
// mutating accessor Relation (directly or via AddFact) is first copied into
// the overlay, leaving the base untouched. The overlay shares the base's
// symbol table, so ID rows remain comparable across the two. It replaces
// the full Clone the evaluators used to take per evaluation: creating an
// overlay is O(1) and only the relations actually written are ever copied.
//
// The base may be shared by any number of concurrent overlays as long as
// nothing mutates it while they are alive: lazy index building on shared
// relations is internally synchronized, and every other read is pure.
func (s *Store) Overlay() *Store {
	return &Store{tab: s.tab, base: s, relations: make(map[string]*Relation)}
}

// Relation returns the relation with the given predicate key, creating it
// with the given arity if absent. If it exists with a different arity an
// error is returned. On an overlay store this is the copy-on-write point: a
// relation present only in the base is deep-copied into the overlay before
// it is returned. On a live base store it is the snapshot copy-on-write
// point instead: a relation pinned by a snapshot (Store.Pin) is deep-copied
// and the copy installed in its place before it is returned, so writers
// never mutate state a pinned view still reads.
func (s *Store) Relation(name string, arity int) (*Relation, error) {
	if s.pinned {
		return nil, fmt.Errorf("relation %s: write access to a pinned snapshot store", name)
	}
	if r, ok := s.relations[name]; ok {
		if r.Arity != arity {
			return nil, fmt.Errorf("relation %s exists with arity %d, requested %d", name, r.Arity, arity)
		}
		return s.writable(name), nil
	}
	var r *Relation
	if s.base != nil {
		if br := s.base.Existing(name); br != nil {
			if br.Arity != arity {
				return nil, fmt.Errorf("relation %s exists with arity %d, requested %d", name, br.Arity, arity)
			}
			r = br.Clone()
		}
	}
	if r == nil {
		r = NewRelationWith(s.tab, name, arity)
	}
	s.relations[name] = r
	s.order = append(s.order, name)
	return r, nil
}

// Fresh installs an empty relation under a name the store does not hold
// yet, hiding a base relation of that key (see eval.PrepareWith).
func (s *Store) Fresh(name string, arity int) {
	s.relations[name] = NewRelationWith(s.tab, name, arity)
	s.order = append(s.order, name)
}

// Existing returns the relation with the given predicate key, or nil if
// neither the store nor (for overlays) its base has such a relation.
func (s *Store) Existing(name string) *Relation {
	if r, ok := s.relations[name]; ok {
		return r
	}
	if s.base != nil {
		return s.base.Existing(name)
	}
	return nil
}

// AddFact inserts a ground atom into the store. It returns true if the fact
// is new. On a base store a successful insert advances the commit version,
// like a one-fact Apply, so two stores at equal versions always hold
// identical facts whichever write path built them; overlay stores (whose
// writes are evaluation-private) have no version to advance.
func (s *Store) AddFact(a ast.Atom) (bool, error) {
	if !ast.IsGroundAtom(a) {
		return false, fmt.Errorf("fact %s is not ground", a)
	}
	rel, err := s.Relation(a.PredKey(), len(a.Args))
	if err != nil {
		return false, err
	}
	added, err := rel.Insert(Tuple(a.Args))
	if added && s.base == nil {
		s.version++
	}
	return added, err
}

// RemoveFact deletes a ground atom from the store, reporting whether it was
// present. It must be called on a base store (not an overlay): deleting
// through an overlay would mutate the shared base relation. Like AddFact it
// is a write operation, serialized by the caller against in-flight
// evaluations.
func (s *Store) RemoveFact(a ast.Atom) (bool, error) {
	if !ast.IsGroundAtom(a) {
		return false, fmt.Errorf("fact %s is not ground", a)
	}
	if s.base != nil {
		return false, fmt.Errorf("RemoveFact on an overlay store")
	}
	if s.pinned {
		return false, fmt.Errorf("RemoveFact on a pinned snapshot store")
	}
	rel := s.writable(a.PredKey())
	if rel == nil {
		return false, nil
	}
	removed, err := rel.Delete(Tuple(a.Args))
	if removed {
		s.version++
	}
	return removed, err
}

// MustAddFact is AddFact that panics on error.
func (s *Store) MustAddFact(a ast.Atom) bool {
	ok, err := s.AddFact(a)
	if err != nil {
		panic(err)
	}
	return ok
}

// AddFacts inserts each ground atom, stopping at the first error.
func (s *Store) AddFacts(atoms []ast.Atom) error {
	for _, a := range atoms {
		if _, err := s.AddFact(a); err != nil {
			return err
		}
	}
	return nil
}

// Names returns the predicate keys of all relations in insertion order; for
// an overlay the base's names come first, followed by the overlay's own new
// relations (shadowed names are not repeated).
func (s *Store) Names() []string {
	if s.base == nil {
		return append([]string(nil), s.order...)
	}
	names := s.base.Names()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, n := range s.order {
		if !have[n] {
			names = append(names, n)
		}
	}
	return names
}

// TotalFacts returns the total number of tuples across all relations
// (including, for overlays, the unshadowed base relations).
func (s *Store) TotalFacts() int {
	n := 0
	for _, r := range s.relations {
		n += r.Len()
	}
	if s.base != nil {
		for _, name := range s.base.Names() {
			if _, ok := s.relations[name]; !ok {
				n += s.base.FactCount(name)
			}
		}
	}
	return n
}

// FactCount returns the number of tuples in the named relation (0 if the
// relation does not exist).
func (s *Store) FactCount(name string) int {
	if r := s.Existing(name); r != nil {
		return r.Len()
	}
	return 0
}

// Reset empties every relation of the store in place, keeping relations and
// their index definitions (see Relation.Reset) — the evaluators reuse their
// private delta stores this way. It refuses
// pinned snapshot views, and a relation pinned by a snapshot is replaced by
// a fresh empty one instead of being emptied in place, so the snapshot
// keeps its rows like under every other write path.
func (s *Store) Reset() {
	if s.pinned {
		panic("database: Reset on a pinned snapshot store")
	}
	for name, r := range s.relations {
		if r.pins.Load() > 0 {
			s.relations[name] = NewRelationWith(s.tab, r.Name, r.Arity)
		} else {
			r.Reset()
		}
	}
}

// Version returns the number of committed write batches applied to the
// store (see Apply); on a pinned view it is the version the snapshot was
// taken at.
func (s *Store) Version() uint64 { return s.version }

// SetVersion overrides the store's commit version. It exists for crash
// recovery only: after loading a checkpoint captured at version V, the
// recovery path sets the version to V so that replaying the log's post-V
// records — each of which bumps the version exactly once via Apply —
// re-establishes the exact pre-crash committed version. Outside recovery
// the version is advanced solely by Apply.
func (s *Store) SetVersion(v uint64) {
	if s.base != nil || s.pinned {
		panic("database: SetVersion on an overlay or pinned store")
	}
	s.version = v
}

// Pin returns an immutable snapshot view of the store: a shallow copy
// sharing the current relations, each counting one more pin, so that until
// the view is released the next write to a relation through the live store
// clones it instead of mutating it in place (see Store.Relation and Apply).
// Taking a pin is O(#relations), never O(facts); a pinned view and the live
// store stay byte-identical until the next commit, after which the pin
// keeps reading exactly the relations it captured. The view shares the
// symbol table (append-only, internally synchronized), so ID rows and
// compiled pipelines remain valid across it. Pinning is a read operation:
// the caller may hold a read lock on the store, and concurrent Pin calls
// are safe (the counts are atomic); it must only be excluded against
// writers, like any other read. A view that is never released keeps its
// pins: each relation it holds is then copied by the first write to it.
func (s *Store) Pin() *Store {
	if s.base != nil {
		// Overlays are evaluation-private; pinning one is a programming error.
		panic("database: Pin on an overlay store")
	}
	c := &Store{
		tab:       s.tab,
		relations: make(map[string]*Relation, len(s.relations)),
		order:     s.order[:len(s.order):len(s.order)], // the live store appends past it, drops copy
		version:   s.version,
		pinned:    true,
	}
	for name, r := range s.relations {
		r.pins.Add(1)
		c.relations[name] = r
	}
	return c
}

// Release ends the pins of a view returned by Pin, once: a relation no live
// view holds is written in place again. It reports whether this call ended
// them; later calls, and calls on stores that are not pinned views, do
// nothing. The view must not be read after it is released, since the live
// store may then overwrite the rows it shares.
func (s *Store) Release() bool {
	if !s.pinned || !s.released.CompareAndSwap(false, true) {
		return false
	}
	for _, r := range s.relations {
		r.pins.Add(-1)
	}
	return true
}

// Released reports whether Release has ended the view's pins.
func (s *Store) Released() bool { return s.released.Load() }

// writable returns the named relation ready for in-place mutation, cloning
// it first while a live snapshot pins it; nil if the relation does not
// exist.
func (s *Store) writable(name string) *Relation {
	r, ok := s.relations[name]
	if !ok {
		return nil
	}
	if r.pins.Load() > 0 {
		r = r.Clone()
		s.relations[name] = r
	}
	return r
}

// Apply atomically applies one write batch to a live base store: every
// retract, then every assert, validated up front so that a bad atom leaves
// the store completely untouched. It is the single batch entry point the
// transaction layer commits through: atoms are validated (groundness, arity
// consistency within the batch and against existing relations) before the
// first mutation, asserts are grouped per relation and their constants
// bulk-interned with a handful of symbol-table lock acquisitions
// (intern.Table.InternMany), rows are bulk-inserted with indexes maintained
// in the same step (Relation.InsertBulk), and the store's commit version is
// advanced once at the end — replacing the per-fact lock-and-intern
// round-trips of N AddFact calls. Relations pinned by snapshots are cloned
// before the batch writes them, so every pinned view keeps observing its
// commit. It returns the number of facts actually removed and added
// (retracting an absent fact and asserting a present one are no-ops, as in
// RemoveFact/AddFact).
func (s *Store) Apply(retracts, asserts []ast.Atom) (removed, added int, err error) {
	return s.applyBatch(retracts, asserts, nil, nil)
}

// ApplyDelta is Apply that additionally captures the batch's effective
// delta: the facts actually removed and actually added (no-op retracts of
// absent facts and asserts of present facts excluded) are recorded into two
// fresh side stores sharing s's symbol table, so their ID rows are directly
// comparable with s's. The incremental view maintenance layer seeds its
// semi-naive delta rounds from these stores; the batch is the Δ unit. On
// error both side stores are nil and s is untouched, exactly like Apply.
func (s *Store) ApplyDelta(retracts, asserts []ast.Atom) (minus, plus *Store, removed, added int, err error) {
	minus, plus = NewStoreWith(s.tab), NewStoreWith(s.tab)
	removed, added, err = s.applyBatch(retracts, asserts, minus, plus)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	netDelta(minus, plus)
	return minus, plus, removed, added, nil
}

// netDelta cancels retract-then-assert pairs out of a captured batch delta:
// a row removed and re-added in one batch is present before and after the
// commit, so for the maintenance layer it is a no-op — leaving it in both
// sides would make the reconstructed OLD state wrong (the exclusion of the
// plus side would hide a row that did exist before the batch).
func netDelta(minus, plus *Store) {
	for _, name := range minus.Names() {
		mrel := minus.Existing(name)
		prel := plus.Existing(name)
		if prel == nil {
			continue
		}
		var both [][]intern.ID
		for pos := 0; pos < mrel.Len(); pos++ {
			if prel.ContainsRow(mrel.Row(pos)) {
				both = append(both, mrel.Row(pos))
			}
		}
		if len(both) > 0 {
			// plus first: both are windows into minus's slab, which the
			// swap deletes of minus overwrite.
			prel.DeleteRows(both)
			mrel.DeleteRows(both)
		}
	}
}

// ValidateBatch runs the same validation pass Apply runs before its first
// mutation — groundness, arity consistency within the batch and against
// existing relations — without touching the store. The durability layer
// calls it before appending a batch to the write-ahead log, so only batches
// Apply will accept are ever logged (a logged batch failing on replay would
// be unrecoverable corruption).
func (s *Store) ValidateBatch(retracts, asserts []ast.Atom) error {
	_, err := s.validateBatch(retracts, asserts)
	return err
}

// validateBatch checks every atom of a batch without mutating the store; it
// also reports whether all asserts target a single predicate (the bulk-load
// fast path). Batches touch few distinct predicates, so the batch-local
// arity record is a small linear-scanned slice, not a map.
func (s *Store) validateBatch(retracts, asserts []ast.Atom) (singlePred bool, err error) {
	type predArity struct {
		key   string
		arity int
	}
	var batchPreds []predArity
	arityOf := func(a ast.Atom) error {
		if !ast.IsGroundAtom(a) {
			return fmt.Errorf("fact %s is not ground", a)
		}
		key := a.PredKey()
		want := -1
		for _, p := range batchPreds {
			if p.key == key {
				want = p.arity
				break
			}
		}
		if want < 0 {
			if r, exists := s.relations[key]; exists {
				want = r.Arity
			} else {
				want = len(a.Args)
			}
			batchPreds = append(batchPreds, predArity{key, want})
		}
		if len(a.Args) != want {
			return fmt.Errorf("fact %s has arity %d, relation %s has arity %d", a, len(a.Args), key, want)
		}
		return nil
	}
	// Retracts only validate against relations that exist: a retract of a
	// never-stored predicate is a pure no-op (retracts apply before asserts,
	// against the pre-batch state), so it must not pin an arity the batch's
	// asserts are then held to — the per-fact path accepts that sequence too.
	for _, a := range retracts {
		if !ast.IsGroundAtom(a) {
			return false, fmt.Errorf("fact %s is not ground", a)
		}
		if r, exists := s.relations[a.PredKey()]; exists && len(a.Args) != r.Arity {
			return false, fmt.Errorf("fact %s has arity %d, relation %s has arity %d", a, len(a.Args), a.PredKey(), r.Arity)
		}
	}
	singlePred = true
	for i, a := range asserts {
		if err := arityOf(a); err != nil {
			return false, err
		}
		if i > 0 && a.PredKey() != asserts[0].PredKey() {
			singlePred = false
		}
	}
	return singlePred, nil
}

// applyBatch implements Apply/ApplyDelta; minus and plus, when non-nil,
// capture the effective retract and assert deltas.
func (s *Store) applyBatch(retracts, asserts []ast.Atom, minus, plus *Store) (removed, added int, err error) {
	if s.base != nil {
		return 0, 0, fmt.Errorf("Apply on an overlay store")
	}
	if s.pinned {
		return 0, 0, fmt.Errorf("Apply on a pinned snapshot store")
	}

	// Validation pass: nothing below may mutate the store until every atom of
	// the batch has been checked, so a mid-batch error cannot leave a prefix
	// committed.
	singlePred, err := s.validateBatch(retracts, asserts)
	if err != nil {
		return 0, 0, err
	}

	// Mutation pass: all-or-nothing from here on (no error paths remain that
	// could abandon a half-applied batch).
	removed = s.applyRetracts(retracts, minus)
	if len(asserts) > 0 {
		if singlePred {
			// The common bulk-load shape — one relation for the whole batch
			// (an EDB file per predicate) — inserts straight from the callers'
			// slice, with no per-group copying.
			added = s.applyGroup(asserts[0].PredKey(), len(asserts[0].Args), asserts, plus)
		} else {
			added = s.applyGrouped(asserts, plus)
		}
	}
	s.version++
	return removed, added, nil
}

// applyRetracts removes the validated batch retracts, one bulk compaction
// per touched relation (Relation.DeleteBulk) rather than one O(rows) Delete
// per fact. Retract batches touch few distinct predicates, so the grouping
// is a linear-scanned slice.
func (s *Store) applyRetracts(retracts []ast.Atom, minus *Store) (removed int) {
	if len(retracts) == 0 {
		return 0
	}
	type rgroup struct {
		key    string
		tuples []Tuple
	}
	var groups []*rgroup
	for _, a := range retracts {
		key := a.PredKey()
		var g *rgroup
		for _, c := range groups {
			if c.key == key {
				g = c
				break
			}
		}
		if g == nil {
			g = &rgroup{key: key}
			groups = append(groups, g)
		}
		g.tuples = append(g.tuples, Tuple(a.Args))
	}
	for _, g := range groups {
		rel := s.writable(g.key)
		if rel == nil {
			continue
		}
		var capture *Relation
		if minus != nil {
			capture = must(minus.Relation(g.key, rel.Arity))
		}
		removed += rel.deleteBulk(g.tuples, capture)
	}
	return removed
}

// must unwraps a relation accessor that cannot fail on a validated batch.
func must(r *Relation, err error) *Relation {
	if err != nil {
		panic(fmt.Sprintf("database: validated batch relation access failed: %v", err))
	}
	return r
}

// applyGroup bulk-interns and bulk-inserts one relation's validated asserts.
func (s *Store) applyGroup(key string, arity int, atoms []ast.Atom, plus *Store) int {
	rel := s.writable(key)
	if rel == nil {
		var err error
		rel, err = s.Relation(key, arity)
		if err != nil {
			panic(fmt.Sprintf("database: validated assert group failed: %v", err))
		}
	}
	var capture *Relation
	if plus != nil {
		capture = must(plus.Relation(key, arity))
	}
	// Flatten the group's constants and intern them in bulk: one ID slice
	// backs every row of the group.
	flat := make([]ast.Term, 0, len(atoms)*arity)
	for _, a := range atoms {
		flat = append(flat, a.Args...)
	}
	return rel.insertBulk(s.tab.InternMany(flat), len(atoms), capture)
}

// applyGrouped splits a validated multi-predicate batch into per-relation
// groups (first-appearance order, batch order within each group) and
// bulk-inserts each.
func (s *Store) applyGrouped(asserts []ast.Atom, plus *Store) int {
	type group struct {
		key   string
		arity int
		atoms []ast.Atom
	}
	var groups []*group
	byKey := make(map[string]*group)
	for _, a := range asserts {
		key := a.PredKey()
		g, ok := byKey[key]
		if !ok {
			g = &group{key: key, arity: len(a.Args)}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.atoms = append(g.atoms, a)
	}
	added := 0
	for _, g := range groups {
		added += s.applyGroup(g.key, g.arity, g.atoms, plus)
	}
	return added
}

// Clone returns a deep copy of the store, sharing the original's symbol
// table so ID rows stay comparable. Cloning an overlay flattens it: the
// clone holds private copies of the base relations too.
func (s *Store) Clone() *Store {
	c := NewStoreWith(s.tab)
	for _, name := range s.Names() {
		c.relations[name] = s.Existing(name).Clone()
		c.order = append(c.order, name)
	}
	return c
}

// Atoms returns all tuples of the named relation as ground atoms, in
// insertion order.
func (s *Store) Atoms(name string) []ast.Atom {
	r := s.Existing(name)
	if r == nil {
		return nil
	}
	out := make([]ast.Atom, 0, r.Len())
	for _, t := range r.Tuples() {
		out = append(out, ast.Atom{Pred: baseName(name), Adorn: adornOf(name), Args: t})
	}
	return out
}

// baseName splits a predicate key "p^bf" into its name part.
func baseName(key string) string {
	if i := strings.IndexByte(key, '^'); i >= 0 {
		return key[:i]
	}
	return key
}

// adornOf splits a predicate key "p^bf" into its adornment part.
func adornOf(key string) ast.Adornment {
	if i := strings.IndexByte(key, '^'); i >= 0 {
		return ast.Adornment(key[i+1:])
	}
	return ""
}

// String renders the store contents, one relation per block, sorted for
// stable output.
func (s *Store) String() string {
	var b strings.Builder
	names := s.Names()
	sort.Strings(names)
	for _, name := range names {
		r := s.Existing(name)
		fmt.Fprintf(&b, "%s/%d (%d tuples)\n", name, r.Arity, r.Len())
		for _, t := range r.Sorted() {
			fmt.Fprintf(&b, "  %s%s\n", name, t)
		}
	}
	return b.String()
}
