// Materialized views: a program's IDB kept inside the database and
// maintained incrementally across commits.
//
// Database.Materialize registers a compiled program whose derived relations
// are computed once, stored next to the base facts, and updated after every
// commit by propagating the committed batch forward with semi-naive deltas
// (internal/eval.Maintainer): the batch is already the perfect Δ unit —
// Store.Apply is one version bump — and Store.ApplyDelta captures exactly
// the rows it removed and added. Retracts are handled without recomputation
// via per-row derivation counts for non-recursive predicates (counting) and
// delete-and-rederive for recursive ones (DRed), so maintenance work is
// proportional to the consequences of the change, never to the database.
// Queries over materialized predicates — on snapshots taken after the
// registration — are answered by pure index lookups
// (Stats.MaterializedHit), skipping evaluation entirely.

package datalog

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/eval"
)

// materialization is one registered materialized program: the maintainer
// that updates its IDB on commit, the set of derived predicate keys it owns
// in the store, and the counters behind MaterializedStats. The registration
// itself is guarded by the database mutex (registered, replaced and dropped
// under the write lock, read under the read lock); the counters are atomic
// because snapshot queries bump the hit count without any lock.
type materialization struct {
	prog    *Program
	maint   *eval.Maintainer
	derived map[string]bool

	hits         atomic.Int64
	maintenances atomic.Int64
	rounds       atomic.Int64
	increments   atomic.Int64
	decrements   atomic.Int64
	rederived    atomic.Int64
	countRows    atomic.Int64
}

// record folds one maintenance run's statistics into the counters.
func (m *materialization) record(ms *eval.MaintainStats) {
	m.maintenances.Add(1)
	m.rounds.Add(int64(ms.Rounds))
	m.increments.Add(ms.Increments)
	m.decrements.Add(ms.Decrements)
	m.rederived.Add(int64(ms.Rederived))
	m.countRows.Store(int64(ms.CountRows))
}

// MaterializedStats describes a database's materialization: its size, the
// memory overhead of the derivation counts, and cumulative counters of the
// lookups it served and the maintenance work it cost. Read it with
// Database.MaterializedStats.
type MaterializedStats struct {
	// ProgramVersion identifies the materialized program (Program.Version).
	ProgramVersion uint64
	// Predicates is the number of derived predicates kept materialized.
	Predicates int
	// Facts is the number of IDB facts currently stored across them.
	Facts int
	// CountRows is the number of stored rows carrying a derivation count —
	// the memory cost of counting maintenance is 4 bytes per such row.
	// Recursive (DRed-maintained) predicates carry no counts.
	CountRows int64
	// Hits counts queries answered by pure lookup from the materialization
	// (each also reports Stats.MaterializedHit on its own Result).
	Hits int64
	// Maintenances counts maintenance runs (the initial materialization
	// included); Rounds the semi-naive delta rounds across all of them.
	Maintenances int64
	Rounds       int64
	// Increments and Decrements count derivation-count adjustments applied
	// by counting maintenance; Rederived counts deletion candidates DRed
	// rescued because an alternative derivation survived.
	Increments int64
	Decrements int64
	Rederived  int64
}

// Materialize computes the program's derived relations into the database
// and keeps them incrementally maintained: after every subsequent commit the
// batch's delta is propagated forward (counting for non-recursive
// predicates, delete-and-rederive for recursive ones), and queries over the
// program's derived predicates — one-shot, prepared or from snapshots taken
// after this call — become pure index lookups (Stats.MaterializedHit).
//
// The program must be the same *Program instance later snapshots are bound
// to (Snapshot.With): queries of any other program, and queries with
// Options.NoMaterialize, evaluate from scratch as usual. Facts embedded in
// the program's source text are not loaded; commit them first with
// Database.LoadFacts. The call fails if a derived predicate of the program already
// holds stored base facts — a predicate cannot be both asserted and derived
// once materialized (Txn.Commit rejects such writes afterwards).
//
// Calling Materialize again replaces the previous registration (its derived
// relations are dropped and recomputed under the new program); use
// Dematerialize to just drop it. The initial computation runs to fixpoint
// under the write lock, so it is intended for terminating programs — the
// safety analysis (Program.Analyze) tells which ones qualify.
func (db *Database) Materialize(prog *Program) error {
	if prog == nil {
		return fmt.Errorf("datalog: Materialize requires a non-nil program")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.dropMaterializationLocked()
	derived := prog.prog.DerivedPredicates()
	for key := range derived {
		if db.store.FactCount(key) > 0 {
			return fmt.Errorf("datalog: cannot materialize: derived predicate %s already holds stored base facts", key)
		}
	}
	pp, err := eval.PrepareWith(prog.prog, db.store.Table(), prog.plan, false)
	if err != nil {
		return fmt.Errorf("datalog: %w", err)
	}
	maint := eval.NewMaintainer(pp)
	mstats, err := maint.Materialize(db.store, eval.Options{})
	if err != nil {
		for key := range derived {
			db.store.DropRelation(key)
		}
		return fmt.Errorf("datalog: materialization failed: %w", err)
	}
	mat := &materialization{prog: prog, maint: maint, derived: derived}
	mat.record(mstats)
	db.mat = mat
	return nil
}

// Dematerialize drops the database's materialization, if any: the derived
// relations are removed from the store and commits stop running
// maintenance. Snapshots taken while the materialization was live keep
// their pinned view of it (and keep answering from it); queries on later
// snapshots evaluate from scratch again.
func (db *Database) Dematerialize() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.dropMaterializationLocked()
}

// dropMaterializationLocked removes the registration and its derived
// relations from the live store. Dropping the relations is what keeps a
// later evaluation of any program from mistaking stale derived rows for
// base facts. Callers hold db.mu.
func (db *Database) dropMaterializationLocked() {
	if db.mat == nil {
		return
	}
	for key := range db.mat.derived {
		db.store.DropRelation(key)
	}
	db.mat = nil
}

// MaterializedStats reports the state of the database's materialization and
// false when none is registered.
func (db *Database) MaterializedStats() (MaterializedStats, bool) {
	db.mu.RLock()
	mat := db.mat
	var facts int
	if mat != nil {
		for key := range mat.derived {
			facts += db.store.FactCount(key)
		}
	}
	db.mu.RUnlock()
	if mat == nil {
		return MaterializedStats{}, false
	}
	return MaterializedStats{
		ProgramVersion: mat.prog.Version(),
		Predicates:     len(mat.derived),
		Facts:          facts,
		CountRows:      mat.countRows.Load(),
		Hits:           mat.hits.Load(),
		Maintenances:   mat.maintenances.Load(),
		Rounds:         mat.rounds.Load(),
		Increments:     mat.increments.Load(),
		Decrements:     mat.decrements.Load(),
		Rederived:      mat.rederived.Load(),
	}, true
}

// applyBatchLocked is the single commit path behind Txn.Commit and
// LoadFacts: it applies the validated batch to the store and, when a
// materialization is registered, first rejects writes to its derived
// predicates and afterwards runs incremental maintenance inside the same
// write-lock critical section — no reader ever observes the base facts of a
// commit without its derived consequences. Callers hold db.mu.
func (db *Database) applyBatchLocked(retracts, asserts []ast.Atom) error {
	mat := db.mat
	if mat != nil {
		for _, a := range retracts {
			if mat.derived[a.PredKey()] {
				return fmt.Errorf("datalog: cannot retract %s: predicate is derived by the materialized program", a.PredKey())
			}
		}
		for _, a := range asserts {
			if mat.derived[a.PredKey()] {
				return fmt.Errorf("datalog: cannot assert %s: predicate is derived by the materialized program", a.PredKey())
			}
		}
	}
	// Write-ahead step: the batch is validated (the exact checks Apply runs)
	// and appended + fsynced to the backend before the store mutates, so an
	// acknowledged commit is durable and a logged record can never fail to
	// apply on replay. The record's version is the version this commit will
	// establish — Apply bumps exactly once per batch.
	if db.backend != nil {
		if err := db.store.ValidateBatch(retracts, asserts); err != nil {
			return fmt.Errorf("datalog: %w", err)
		}
		if err := db.backend.appendCommit(db.store.Version()+1, retracts, asserts); err != nil {
			return err
		}
		defer db.maybeScheduleCheckpointLocked()
	}
	if mat == nil {
		if _, _, err := db.store.Apply(retracts, asserts); err != nil {
			return fmt.Errorf("datalog: %w", err)
		}
		return nil
	}
	minus, plus, _, _, err := db.store.ApplyDelta(retracts, asserts)
	if err != nil {
		return fmt.Errorf("datalog: %w", err)
	}
	mstats, err := mat.maint.Maintain(db.store, minus, plus, eval.Options{})
	if err != nil {
		// The IDB relations are in an undefined state; fail safe by dropping
		// the whole materialization (the base facts of this commit stay
		// applied — the batch itself was valid).
		db.dropMaterializationLocked()
		return fmt.Errorf("datalog: facts committed, but the materialization was dropped after a maintenance failure: %w", err)
	}
	mat.record(mstats)
	return nil
}
