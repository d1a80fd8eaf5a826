// Package intern maintains symbol tables mapping ground terms to dense
// uint32 IDs. The fact store (internal/database) keeps every tuple as a
// slice of IDs, so duplicate detection and bound-column index probes hash a
// few machine words instead of building and comparing canonical key strings.
//
// A Table is append-only: a term, once interned, keeps its ID for the
// table's lifetime. IDs are comparable only within one table: every
// database.Store owns its own table (shared by its clones and the
// evaluator's delta stores), and a standalone relation names its table at
// construction, so IDs must never be moved between relations of different
// tables. Access is guarded by a read-write mutex; the steady-state path
// (re-interning an already known term) takes only the read lock, and the
// evaluator's hot loop reads ID metadata lock-free through a Reader
// snapshot.
package intern

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/ast"
)

// ID is the dense identifier of an interned ground term. IDs start at 0 and
// grow by 1 per distinct term.
type ID uint32

// compParts is the ID-level decomposition of an interned compound term:
// its functor and the IDs of its (already interned) arguments. The compiled
// join pipelines of internal/eval destructure stored compounds through this
// record instead of re-walking the materialized term.
type compParts struct {
	functor string
	args    []ID
}

// Table interns ground terms. The zero value is not usable; use NewTable.
type Table struct {
	mu    sync.RWMutex
	syms  map[string]ID
	ints  map[int64]ID
	comps map[string]ID // functor + NUL + little-endian argument IDs
	terms []ast.Term
	// kinds, intVals and parts are parallel to terms and give O(1) ID-level
	// access without re-inspecting the materialized term: kinds[id] is one of
	// kindSym/kindInt/kindComp, intVals[id] is the value of an integer ID,
	// and parts[id] the decomposition of a compound ID.
	kinds   []byte
	intVals []int64
	parts   []compParts
}

// Term kinds recorded in Table.kinds.
const (
	kindSym byte = iota
	kindInt
	kindComp
)

// TermKind classifies an interned ID without materializing its term. It is
// the ID-level counterpart of a type switch on ast.Term (ground terms only,
// so there is no variable kind).
type TermKind uint8

// The interned term kinds.
const (
	// KindSym is a symbolic constant.
	KindSym TermKind = iota
	// KindInt is an integer constant.
	KindInt
	// KindComp is a compound term.
	KindComp
)

// NewTable returns an empty symbol table.
func NewTable() *Table {
	return &Table{
		syms:  make(map[string]ID),
		ints:  make(map[int64]ID),
		comps: make(map[string]ID),
	}
}

// Key encodes a name plus a sequence of IDs into a compact string usable as
// a map key: the name, a NUL separator, then each ID as 4 little-endian
// bytes. It is the encoding the table uses for compound terms; other
// packages (e.g. the top-down evaluator's goal table) reuse it so there is
// a single definition of the binary key layout.
func Key(name string, ids []ID) string {
	b := make([]byte, 0, len(name)+1+4*len(ids))
	b = append(b, name...)
	b = append(b, 0)
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	return string(b)
}

// compKey builds the lookup key of a compound term from its functor and the
// IDs of its (already interned) arguments.
func compKey(functor string, args []ID) string { return Key(functor, args) }

// Intern returns the ID of the term, assigning a fresh one if the term has
// not been seen before. It panics on non-ground terms: callers are expected
// to have checked groundness (the fact store rejects non-ground tuples
// before interning).
func (tb *Table) Intern(t ast.Term) ID {
	if id, ok := tb.Find(t); ok {
		return id
	}
	return tb.intern(t)
}

func (tb *Table) intern(t ast.Term) ID {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.internLocked(t)
}

// internBatchChunk is how many terms InternMany interns per write-lock
// acquisition: large enough that the per-fact lock round-trips of the
// one-at-a-time path are amortized away, small enough that concurrent
// readers (snapshot queries resolving probe values) are never starved for
// the duration of a large batch commit.
const internBatchChunk = 512

// InternMany interns every term of the slice and returns their IDs in
// order. Unlike N calls to Intern it takes the write lock once per chunk of
// internBatchChunk terms instead of (up to) twice per term, which is what
// makes the batch commit path of a transaction cheap: the symbol-table lock
// is acquired a handful of times for a ten-thousand-fact batch. Like Intern
// it panics on non-ground terms.
func (tb *Table) InternMany(terms []ast.Term) []ID {
	ids := make([]ID, len(terms))
	for start := 0; start < len(terms); start += internBatchChunk {
		end := start + internBatchChunk
		if end > len(terms) {
			end = len(terms)
		}
		tb.mu.Lock()
		if start == 0 {
			tb.growLocked(len(terms))
		}
		for i := start; i < end; i++ {
			ids[i] = tb.internLocked(terms[i])
		}
		tb.mu.Unlock()
	}
	return ids
}

// growLocked pre-sizes the table for up to n additional terms: the parallel
// metadata slices grow once instead of doubling repeatedly mid-batch, and a
// still-empty symbol map is replaced by one sized for the batch, avoiding
// the incremental rehashes that otherwise dominate a bulk load into a fresh
// table. n is an upper bound (duplicate terms intern to existing IDs), so
// over-allocation is capped at one batch width. Callers hold the write lock.
func (tb *Table) growLocked(n int) {
	if n <= 64 {
		return
	}
	tb.terms = slices.Grow(tb.terms, n)
	tb.kinds = slices.Grow(tb.kinds, n)
	tb.intVals = slices.Grow(tb.intVals, n)
	tb.parts = slices.Grow(tb.parts, n)
	// Which kind dominates the batch is unknown here, so every still-empty
	// kind map is pre-sized — integer- and compound-heavy EDBs benefit
	// exactly like symbolic ones, and an unused pre-sized map is bounded by
	// one batch width like the slice over-allocation.
	if len(tb.syms) == 0 {
		tb.syms = make(map[string]ID, n)
	}
	if len(tb.ints) == 0 {
		tb.ints = make(map[int64]ID, n)
	}
	if len(tb.comps) == 0 {
		tb.comps = make(map[string]ID, n)
	}
}

// internLocked interns with the write lock already held — the single
// definition of the interning logic, shared by the one-at-a-time path
// (intern) and the batch path (InternMany); compound arguments recurse
// without re-locking.
func (tb *Table) internLocked(t ast.Term) ID {
	switch x := t.(type) {
	case ast.Sym:
		if id, ok := tb.syms[x.Name]; ok {
			return id
		}
		id := tb.appendTerm(t, kindSym, 0, compParts{})
		tb.syms[x.Name] = id
		return id
	case ast.Int:
		if id, ok := tb.ints[x.Value]; ok {
			return id
		}
		id := tb.appendTerm(t, kindInt, x.Value, compParts{})
		tb.ints[x.Value] = id
		return id
	case ast.Compound:
		args := make([]ID, len(x.Args))
		for i, a := range x.Args {
			args[i] = tb.internLocked(a)
		}
		key := compKey(x.Functor, args)
		if id, ok := tb.comps[key]; ok {
			return id
		}
		id := tb.appendTerm(t, kindComp, 0, compParts{functor: x.Functor, args: args})
		tb.comps[key] = id
		return id
	default:
		panic(fmt.Sprintf("intern: cannot intern non-ground term %v", t))
	}
}

// appendTerm records a fresh term and its ID-level metadata. Callers hold
// the write lock.
func (tb *Table) appendTerm(t ast.Term, kind byte, intVal int64, parts compParts) ID {
	id := ID(len(tb.terms))
	tb.terms = append(tb.terms, t)
	tb.kinds = append(tb.kinds, kind)
	tb.intVals = append(tb.intVals, intVal)
	tb.parts = append(tb.parts, parts)
	return id
}

// Kind classifies the term interned under id. It panics if the ID was never
// handed out by this table.
func (tb *Table) Kind(id ID) TermKind {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	return kindOf(tb.kinds[id])
}

// kindOf maps the internal kind byte to the exported classification.
func kindOf(k byte) TermKind {
	switch k {
	case kindInt:
		return KindInt
	case kindComp:
		return KindComp
	default:
		return KindSym
	}
}

// IntValue returns the integer value of an interned ID and whether the ID
// denotes an integer constant at all. It is the ID-level counterpart of a
// type assertion on ast.Int.
func (tb *Table) IntValue(id ID) (int64, bool) {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	if tb.kinds[id] != kindInt {
		return 0, false
	}
	return tb.intVals[id], true
}

// CompoundParts returns the functor and argument IDs of an interned compound
// term, or ok=false when the ID denotes a constant. The returned slice is
// owned by the table and must not be modified.
func (tb *Table) CompoundParts(id ID) (functor string, args []ID, ok bool) {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	if tb.kinds[id] != kindComp {
		return "", nil, false
	}
	p := tb.parts[id]
	return p.functor, p.args, true
}

// FindCompound looks up the compound term functor(args...) given the IDs of
// its arguments, without interning it.
func (tb *Table) FindCompound(functor string, args []ID) (ID, bool) {
	key := compKey(functor, args)
	tb.mu.RLock()
	id, ok := tb.comps[key]
	tb.mu.RUnlock()
	return id, ok
}

// InternCompound interns the compound term functor(args...) from the IDs of
// its already interned arguments, materializing the term only when the
// compound is new.
func (tb *Table) InternCompound(functor string, args []ID) ID {
	key := compKey(functor, args)
	tb.mu.RLock()
	id, ok := tb.comps[key]
	tb.mu.RUnlock()
	if ok {
		return id
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if id, ok := tb.comps[key]; ok {
		return id
	}
	argTerms := make([]ast.Term, len(args))
	for i, a := range args {
		argTerms[i] = tb.terms[a]
	}
	argsCopy := append([]ID(nil), args...)
	id = tb.appendTerm(ast.Compound{Functor: functor, Args: argTerms}, kindComp, 0, compParts{functor: functor, args: argsCopy})
	tb.comps[key] = id
	return id
}

// Find returns the ID of the term if it has been interned. Unlike Intern it
// never grows the table, so it is safe to call on probe values that may
// never occur in any relation; a false result means no stored tuple can
// contain the term.
func (tb *Table) Find(t ast.Term) (ID, bool) {
	switch x := t.(type) {
	case ast.Sym:
		tb.mu.RLock()
		id, ok := tb.syms[x.Name]
		tb.mu.RUnlock()
		return id, ok
	case ast.Int:
		tb.mu.RLock()
		id, ok := tb.ints[x.Value]
		tb.mu.RUnlock()
		return id, ok
	case ast.Compound:
		args := make([]ID, len(x.Args))
		for i, a := range x.Args {
			id, ok := tb.Find(a)
			if !ok {
				return 0, false
			}
			args[i] = id
		}
		tb.mu.RLock()
		id, ok := tb.comps[compKey(x.Functor, args)]
		tb.mu.RUnlock()
		return id, ok
	default:
		return 0, false
	}
}

// Term returns the term interned under id. It panics if the ID was never
// handed out by this table.
func (tb *Table) Term(id ID) ast.Term {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	return tb.terms[id]
}

// Reader is a lock-free read view of a table's ID metadata for hot loops.
// It snapshots the append-only metadata slices; elements below the snapshot
// length are immutable, so reading them is safe without the table lock even
// while other goroutines intern new terms (appends may reallocate the
// backing arrays, but the snapshot keeps the old, fully initialized one).
// An ID minted after the snapshot transparently refreshes it under the
// lock. Lookups that need the table's maps (FindCompound) and all
// interning still delegate to the locked table.
type Reader struct {
	tb      *Table
	kinds   []byte
	intVals []int64
	parts   []compParts
	terms   []ast.Term
}

// Reader returns a read view of the table's current contents.
func (tb *Table) Reader() Reader {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	return Reader{tb: tb, kinds: tb.kinds, intVals: tb.intVals, parts: tb.parts, terms: tb.terms}
}

// Table returns the underlying table.
func (r *Reader) Table() *Table { return r.tb }

// refresh re-snapshots the view so it covers the given ID.
func (r *Reader) refresh() {
	*r = r.tb.Reader()
}

// IntValue is Table.IntValue without the lock.
func (r *Reader) IntValue(id ID) (int64, bool) {
	if int(id) >= len(r.kinds) {
		r.refresh()
	}
	if r.kinds[id] != kindInt {
		return 0, false
	}
	return r.intVals[id], true
}

// CompoundParts is Table.CompoundParts without the lock.
func (r *Reader) CompoundParts(id ID) (functor string, args []ID, ok bool) {
	if int(id) >= len(r.kinds) {
		r.refresh()
	}
	if r.kinds[id] != kindComp {
		return "", nil, false
	}
	p := r.parts[id]
	return p.functor, p.args, true
}

// Term is Table.Term without the lock.
func (r *Reader) Term(id ID) ast.Term {
	if int(id) >= len(r.terms) {
		r.refresh()
	}
	return r.terms[id]
}

// Kind is Table.Kind without the lock.
func (r *Reader) Kind(id ID) TermKind {
	if int(id) >= len(r.kinds) {
		r.refresh()
	}
	return kindOf(r.kinds[id])
}

// InternCompound delegates to the table.
func (r *Reader) InternCompound(functor string, args []ID) ID {
	return r.tb.InternCompound(functor, args)
}

// FindCompound delegates to the table.
func (r *Reader) FindCompound(functor string, args []ID) (ID, bool) {
	return r.tb.FindCompound(functor, args)
}

// Len returns the number of distinct terms interned so far.
func (tb *Table) Len() int {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	return len(tb.terms)
}
