// Durability: the write-ahead log behind a Database.
//
// A Database created by NewDatabase is memory-only — the backend field is
// nil and every commit takes the exact path it always took, so durability
// costs nothing unless asked for. Open(dir, opts) instead attaches a
// write-ahead log (internal/wal): each committed batch is appended
// as one CRC-framed record and fsynced (policy-configurable) before the
// in-memory store applies it, so under FsyncAlways an acknowledged commit
// survives any crash. On open, the newest checkpoint file is bulk-loaded and
// the log's post-checkpoint records are replayed, re-establishing the exact
// committed version; Checkpoint writes a fresh full-EDB snapshot from a pin
// (commits proceed concurrently) and truncates the log segments it covers.
//
// Materialized views are derived state: they are never logged or
// checkpointed. Re-register them with Database.Materialize after Open — the
// recovered store holds only base facts, so the registration recomputes the
// IDB exactly as it did the first time.

package datalog

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/wal"
)

// Fsync policies accepted by OpenOptions.Fsync.
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncNone     = "none"
)

// OpenOptions configures Open. The zero value means: fsync on every commit,
// default segment size, no automatic checkpoints.
type OpenOptions struct {
	// Fsync is the WAL fsync policy: FsyncAlways (default), FsyncInterval
	// or FsyncNone. Acknowledged-implies-durable holds only under
	// FsyncAlways; the other policies trade a bounded window of recent
	// commits for throughput.
	Fsync string
	// FsyncInterval is the background fsync period under FsyncInterval
	// (default 50ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates log segments at this size (default 64 MiB).
	SegmentBytes int64
	// CheckpointEvery, when > 0, writes a checkpoint (and truncates covered
	// log segments) automatically after every CheckpointEvery commits. The
	// checkpoint runs on a background goroutine from a snapshot, so commits
	// are not blocked.
	CheckpointEvery uint64
}

// DurabilityStats describes the write-ahead log's work: what was replayed at
// open, what has been appended and fsynced since, and where the checkpoint
// frontier stands. Read it with Database.DurabilityStats.
type DurabilityStats struct {
	// Backend is always "wal"; the field keeps the /v1/stats payload stable.
	Backend string `json:"backend"`
	// Dir is the data directory.
	Dir string `json:"dir,omitempty"`
	// RecordsAppended and BytesAppended count commit records logged by this
	// process; Fsyncs counts fsync calls on log segments.
	RecordsAppended uint64 `json:"records_appended"`
	BytesAppended   uint64 `json:"bytes_appended"`
	Fsyncs          uint64 `json:"fsyncs"`
	// Segments is the number of on-disk log segments.
	Segments int `json:"segments,omitempty"`
	// RecoveredVersion is the commit version re-established by Open;
	// ReplayedRecords the log records applied to reach it (records covered
	// by the loaded checkpoint are not replayed); ReplayMillis the time the
	// whole recovery took.
	RecoveredVersion uint64  `json:"recovered_version"`
	ReplayedRecords  int     `json:"replayed_records"`
	ReplayMillis     float64 `json:"replay_millis"`
	// TornTailRecovered reports that recovery found (and discarded) a torn
	// record at the log tail — the write in flight when the process died.
	TornTailRecovered bool `json:"torn_tail_recovered,omitempty"`
	// CleanShutdown reports that the log ended with a seal record, i.e. the
	// previous process closed the database properly.
	CleanShutdown bool `json:"clean_shutdown"`
	// Checkpoints counts checkpoints written by this process;
	// LastCheckpointVersion is the version of the newest durable checkpoint
	// (whether written by this process or loaded at open).
	Checkpoints           uint64 `json:"checkpoints"`
	LastCheckpointVersion uint64 `json:"last_checkpoint_version"`
	// LastCheckpointError is the most recent background checkpoint failure,
	// empty when the last one succeeded (explicit Checkpoint calls report
	// their error directly instead).
	LastCheckpointError string `json:"last_checkpoint_error,omitempty"`
}

// Open opens (creating if necessary) a durable database rooted at dir. It
// loads the newest checkpoint, replays the write-ahead log — tolerating a
// torn final record from a mid-write crash — and returns the database at
// exactly the committed version it had reached; subsequent commits are logged
// and fsynced (per opts.Fsync) before they touch memory. Close the returned
// database with Database.Close to seal the log. For a memory-only database
// use NewDatabase.
func Open(dir string, opts OpenOptions) (*Database, error) {
	var policy wal.SyncPolicy
	switch opts.Fsync {
	case "", FsyncAlways:
		policy = wal.SyncAlways
	case FsyncInterval:
		policy = wal.SyncInterval
	case FsyncNone:
		policy = wal.SyncNone
	default:
		return nil, fmt.Errorf("datalog: unknown fsync policy %q", opts.Fsync)
	}
	start := time.Now()
	log, err := wal.Open(dir, wal.Options{
		Sync:         policy,
		SyncInterval: opts.FsyncInterval,
		SegmentBytes: opts.SegmentBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("datalog: %w", err)
	}
	store := database.NewStore()
	var from uint64
	if v, path, ok := log.LatestCheckpoint(); ok {
		if err := loadCheckpoint(store, path); err != nil {
			return nil, fmt.Errorf("datalog: %w", err)
		}
		store.SetVersion(v)
		from = v
	}
	info, err := log.Replay(from, func(rec wal.Record) error {
		_, _, aerr := store.Apply(rec.Retracts, rec.Asserts)
		return aerr
	})
	if err != nil {
		return nil, fmt.Errorf("datalog: replay: %w", err)
	}
	b := &walBackend{log: log, dir: dir, replay: info, replayTime: time.Since(start)}
	b.lastCheckpoint.Store(from)
	db := &Database{store: store, backend: b}
	if opts.CheckpointEvery > 0 {
		db.ckptEvery = opts.CheckpointEvery
		db.ckptCh = make(chan struct{}, 1)
		db.ckptStop = make(chan struct{})
		db.ckptDone = make(chan struct{})
		go db.checkpointLoop()
	}
	return db, nil
}

// loadCheckpoint bulk-loads a checkpoint file into an empty store: per
// relation, the rows' terms are interned in one bulk pass and inserted with
// indexes and duplicate detection maintained by the normal bulk path.
func loadCheckpoint(store *database.Store, path string) error {
	tab := store.Table()
	_, err := wal.ReadCheckpoint(path, func(cr wal.CheckpointRelation) error {
		rel, err := store.Relation(cr.Name, cr.Arity)
		if err != nil {
			return err
		}
		flat := make([]ast.Term, 0, len(cr.Rows)*cr.Arity)
		for _, row := range cr.Rows {
			flat = append(flat, row...)
		}
		rel.InsertBulk(tab.InternMany(flat), len(cr.Rows))
		return nil
	})
	return err
}

// Checkpoint writes a full snapshot of the current base facts to the data
// directory and truncates the log segments it covers. It runs from a pinned
// snapshot, so concurrent commits and queries proceed while it writes;
// derived (materialized) relations are excluded — they are recomputed by
// Materialize after Open. On a memory-only database it is a no-op.
func (db *Database) Checkpoint() error {
	if db.backend == nil {
		return nil
	}
	snap := db.Snapshot()
	defer snap.Release()
	return db.backend.checkpoint(snap)
}

// Sync forces any buffered log records to stable storage, regardless of the
// configured fsync policy. A no-op on a memory-only database.
func (db *Database) Sync() error {
	if db.backend == nil {
		return nil
	}
	return db.backend.log.Sync()
}

// Close seals and closes the write-ahead log: pending records are
// fsynced and a clean-shutdown marker is appended, so the next Open reports
// CleanShutdown. Commits after Close fail. Closing a memory-only database
// is a no-op; Close is idempotent.
func (db *Database) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()
	if db.ckptStop != nil {
		close(db.ckptStop)
		<-db.ckptDone
	}
	if db.backend == nil {
		return nil
	}
	return db.backend.log.Close()
}

// DurabilityStats reports the write-ahead log's statistics, and false for a
// memory-only database created by NewDatabase.
func (db *Database) DurabilityStats() (DurabilityStats, bool) {
	if db.backend == nil {
		return DurabilityStats{}, false
	}
	return db.backend.stats(), true
}

// checkpointLoop runs automatic checkpoints triggered by the commit path
// (see applyBatchLocked): it owns no state and simply runs Checkpoint —
// from a snapshot, outside the database lock — whenever signalled.
func (db *Database) checkpointLoop() {
	defer close(db.ckptDone)
	for {
		select {
		case <-db.ckptStop:
			return
		case <-db.ckptCh:
			if err := db.Checkpoint(); err != nil {
				db.backend.ckptErr.Store(err.Error())
			}
		}
	}
}

// maybeScheduleCheckpointLocked signals the checkpoint loop when the log
// has grown CheckpointEvery commits past the last checkpoint. Callers hold
// db.mu; the send is non-blocking (a pending signal is enough).
func (db *Database) maybeScheduleCheckpointLocked() {
	if db.ckptEvery == 0 {
		return
	}
	if db.store.Version() >= db.backend.lastCheckpoint.Load()+db.ckptEvery {
		select {
		case db.ckptCh <- struct{}{}:
		default:
		}
	}
}

// walBackend is a durable Database's write-ahead log (internal/wal) and
// checkpoint state.
type walBackend struct {
	log        *wal.Log
	dir        string
	replay     wal.ReplayInfo
	replayTime time.Duration

	// ckptMu serializes checkpoints (the log itself serializes appends).
	ckptMu         sync.Mutex
	checkpoints    atomic.Uint64
	lastCheckpoint atomic.Uint64
	ckptErr        atomic.Value // string: last background checkpoint error
}

func (b *walBackend) appendCommit(version uint64, retracts, asserts []ast.Atom) error {
	if err := b.log.Append(version, retracts, asserts); err != nil {
		return fmt.Errorf("datalog: %w", err)
	}
	return nil
}

func (b *walBackend) checkpoint(snap *Snapshot) error {
	b.ckptMu.Lock()
	defer b.ckptMu.Unlock()
	v := snap.Version()
	if v <= b.lastCheckpoint.Load() && v != 0 {
		// Nothing committed since the last checkpoint; rewriting it would
		// churn disk for an identical file.
		return nil
	}
	store := snap.store
	// A lock-free view: every ID the pinned rows hold was minted before the
	// pin, and commits intern under the table lock meanwhile.
	rd := store.Table().Reader()
	// Base relations only: derived relations are recomputed by Materialize
	// after Open, and checkpointing them would turn IDB rows into base facts
	// on recovery.
	var names []string
	for _, name := range store.Names() {
		if snap.mat != nil && snap.mat.derived[name] {
			continue
		}
		names = append(names, name)
	}
	w, err := b.log.BeginCheckpoint(v, len(names))
	if err != nil {
		return fmt.Errorf("datalog: %w", err)
	}
	var row database.Tuple
	for _, name := range names {
		rel := store.Existing(name)
		if err := w.Relation(name, rel.Arity, rel.Len()); err != nil {
			w.Abort()
			return fmt.Errorf("datalog: %w", err)
		}
		for pos := 0; pos < rel.Len(); pos++ {
			row = database.AppendTerms(row[:0], &rd, rel.Row(pos))
			if err := w.Row(row); err != nil {
				w.Abort()
				return fmt.Errorf("datalog: %w", err)
			}
		}
	}
	if err := w.Commit(); err != nil {
		return fmt.Errorf("datalog: %w", err)
	}
	b.checkpoints.Add(1)
	b.lastCheckpoint.Store(v)
	b.ckptErr.Store("")
	if _, err := b.log.TruncateThrough(v); err != nil {
		return fmt.Errorf("datalog: %w", err)
	}
	return nil
}

func (b *walBackend) stats() DurabilityStats {
	ls := b.log.Stats()
	s := DurabilityStats{
		Backend:               "wal",
		Dir:                   b.dir,
		RecordsAppended:       ls.RecordsAppended,
		BytesAppended:         ls.BytesAppended,
		Fsyncs:                ls.Fsyncs,
		Segments:              ls.Segments,
		RecoveredVersion:      b.replay.LastVersion,
		ReplayedRecords:       b.replay.Records,
		ReplayMillis:          float64(b.replayTime.Microseconds()) / 1000,
		TornTailRecovered:     b.replay.TornTail,
		CleanShutdown:         b.replay.Sealed,
		Checkpoints:           b.checkpoints.Load(),
		LastCheckpointVersion: ls.LastCheckpoint,
	}
	if e, ok := b.ckptErr.Load().(string); ok {
		s.LastCheckpointError = e
	}
	return s
}
