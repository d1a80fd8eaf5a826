// Database: the versioned mutable fact store of the engine.
//
// A Database holds only extensional facts — no rules, no query state — and
// is the mutable half of the Program/Database split: programs are compiled
// once and immutable, databases move forward through atomic, monotonically
// versioned commits (Begin/Txn.Commit, or the single-fact convenience
// wrappers, each of which is a one-operation transaction). Snapshot pins
// the current version as an immutable view in O(#relations); queries
// against one snapshot are mutually consistent no matter what commits land
// concurrently. A Database is safe for concurrent use: commits take its
// write lock, taking a snapshot its read lock, and queries — which only
// ever read snapshots — no lock at all.

package datalog

import (
	"sync"
	"sync/atomic"

	"repro/internal/database"
)

// Database is a versioned store of ground facts, created empty by
// NewDatabase. Writes go through transactions (Begin) or the auto-commit
// convenience methods; every successful non-empty commit advances Version by
// exactly one. To answer queries, pin a version with Snapshot and bind a
// compiled Program to it with Snapshot.With.
type Database struct {
	// mu guards store and mat: commits hold the write lock; snapshots are
	// taken under the read lock and read afterwards without any lock.
	mu    sync.RWMutex
	store *database.Store
	// mat is the database's materialized program registration, if any (see
	// Materialize): commits run incremental maintenance through it inside
	// their write-lock critical section, and snapshots capture it so queries
	// of the registered program answer from the stored IDB by pure lookup.
	mat *materialization
	// backend is the write-ahead log (see Open): commits are appended to it
	// before they mutate the store. nil — the NewDatabase default — is the
	// memory-only path, with zero cost on the commit path.
	backend *walBackend
	closed  bool
	// Automatic checkpointing (OpenOptions.CheckpointEvery): the commit path
	// signals ckptCh when the log outgrows the last checkpoint by ckptEvery
	// commits, and a background goroutine runs Checkpoint outside the lock.
	ckptEvery uint64
	ckptCh    chan struct{}
	ckptStop  chan struct{}
	ckptDone  chan struct{}
	// livePins counts the snapshots taken and not yet released.
	livePins atomic.Int64
}

// NewDatabase returns an empty fact database at version 0, with a fresh
// symbol table of its own.
func NewDatabase() *Database {
	return &Database{store: database.NewStore()}
}

// Version returns the commit version: the number of non-empty transactions
// committed so far. It increases by exactly one per commit, so two equal
// versions identify identical database states.
func (db *Database) Version() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.Version()
}

// FactCount returns the number of facts currently stored for a predicate.
func (db *Database) FactCount(pred string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.FactCount(pred)
}

// TotalFacts returns the total number of stored facts across all
// predicates.
func (db *Database) TotalFacts() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.TotalFacts()
}

// Snapshot pins the database's current state as an immutable view: the
// returned Snapshot observes exactly the facts committed up to its Version,
// forever, while the database moves on underneath it. Taking a snapshot is
// O(#relations) — facts are shared, not copied; until the snapshot is
// released, the first commit touching a relation copies that relation once
// (copy-on-write), so snapshots are cheap enough to take per request. The
// returned snapshot has no program bound; bind one with Snapshot.With.
func (db *Database) Snapshot() *Snapshot {
	db.mu.RLock()
	defer db.mu.RUnlock()
	// The materialization registration is captured together with the pin:
	// maintenance runs under the write lock, so the pinned relations and the
	// registration are mutually consistent, and the snapshot keeps answering
	// from its pinned IDB even if the live database drops or replaces the
	// materialization afterwards.
	db.livePins.Add(1)
	return &Snapshot{store: db.store.Pin(), mat: db.mat, live: &db.livePins}
}

// LivePins returns the number of snapshots taken and not yet released.
func (db *Database) LivePins() int64 { return db.livePins.Load() }

// commitOne applies a one-operation transaction: the atomic auto-commit
// path behind the convenience write methods.
func (db *Database) commitOne(fill func(*Txn) error) error {
	txn := db.Begin()
	if err := fill(txn); err != nil {
		txn.Rollback()
		return err
	}
	return txn.Commit()
}

// Assert adds a single ground fact in its own transaction (strings become
// symbolic constants, int64/int become integers). For more than a handful
// of facts, buffer them in one Begin/Commit transaction instead: one commit
// is both atomic and far cheaper than per-fact commits.
func (db *Database) Assert(pred string, args ...any) error {
	return db.commitOne(func(t *Txn) error { return t.Assert(pred, args...) })
}

// Retract deletes a single ground fact in its own transaction (the mirror
// of Assert). Retracting a fact that is not stored is a no-op.
func (db *Database) Retract(pred string, args ...any) error {
	return db.commitOne(func(t *Txn) error { return t.Retract(pred, args...) })
}

// AssertText parses ground facts (e.g. "par(john, mary). par(mary, sue).")
// and commits them in one transaction: a parse or arity error anywhere in
// the text leaves the database completely unchanged.
func (db *Database) AssertText(factsSrc string) error {
	return db.commitOne(func(t *Txn) error { return t.AssertText(factsSrc) })
}

// RetractText parses ground facts and deletes them in one transaction (the
// mirror of AssertText); facts that are not stored are skipped.
func (db *Database) RetractText(factsSrc string) error {
	return db.commitOne(func(t *Txn) error { return t.RetractText(factsSrc) })
}

// LoadFacts commits the ground facts embedded in the program's source text
// (Program.EmbeddedFacts) in one transaction — the explicit form of what a
// program text mixing rules and facts means. Nothing else ever reads those
// facts: a query over a database they were not loaded into does not see
// them. A rules-only program is a no-op that bumps no version, and loading
// the same facts again changes nothing but the version.
func (db *Database) LoadFacts(prog *Program) error {
	if len(prog.facts) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.applyBatchLocked(nil, prog.facts)
}
