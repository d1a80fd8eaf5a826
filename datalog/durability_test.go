package datalog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/wal"
)

// reopen closes db and opens the directory again, failing the test on
// either error.
func reopen(t *testing.T, db *Database, dir string, opts OpenOptions) *Database {
	t.Helper()
	if db != nil {
		if err := db.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return db2
}

// storeDump renders the database's facts in the store's canonical sorted
// form, the differential-oracle comparison key.
func storeDump(db *Database) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.store.String()
}

func TestOpenCommitReopenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if v := db.Version(); v != 0 {
		t.Fatalf("fresh durable database at version %d", v)
	}
	if err := db.AssertText("edge(a,b). edge(b,c)."); err != nil {
		t.Fatal(err)
	}
	if err := db.Assert("weight", "a", 10); err != nil {
		t.Fatal(err)
	}
	if err := db.Retract("edge", "a", "b"); err != nil {
		t.Fatal(err)
	}
	want := storeDump(db)
	wantVersion := db.Version()

	db2 := reopen(t, db, dir, OpenOptions{})
	defer db2.Close()
	if got := db2.Version(); got != wantVersion {
		t.Fatalf("recovered version %d, want %d", got, wantVersion)
	}
	if got := storeDump(db2); got != want {
		t.Fatalf("recovered store:\n%s\nwant:\n%s", got, want)
	}
	stats, ok := db2.DurabilityStats()
	if !ok || stats.Backend != "wal" {
		t.Fatalf("stats = %+v, %v", stats, ok)
	}
	if stats.ReplayedRecords != 3 || stats.RecoveredVersion != wantVersion {
		t.Fatalf("replay stats = %+v", stats)
	}
	if !stats.CleanShutdown {
		t.Fatalf("clean Close not reported as clean shutdown: %+v", stats)
	}
}

// TestVersionSemanticsAfterRecovery pins the Store.Version durability
// contract (satellite 1): a recovered database stands at exactly the
// version it had committed, refuses nothing, renumbers nothing — the next
// commit is V+1 and both appear identically in the log — and new snapshots
// pin V while pre-crash pins are simply gone with the process.
func TestVersionSemanticsAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := db.Assert("n", i); err != nil {
			t.Fatal(err)
		}
	}
	if v := db.Version(); v != 5 {
		t.Fatalf("version %d after 5 commits", v)
	}

	db2 := reopen(t, db, dir, OpenOptions{})
	defer db2.Close()
	if v := db2.Version(); v != 5 {
		t.Fatalf("recovered at version %d, want 5", v)
	}
	// A new pin observes exactly the recovered version.
	snap := db2.Snapshot()
	if v := snap.Version(); v != 5 {
		t.Fatalf("post-recovery snapshot at %d", v)
	}
	// The next commit continues the sequence with no renumbering.
	if err := db2.Assert("n", 5); err != nil {
		t.Fatal(err)
	}
	if v := db2.Version(); v != 6 {
		t.Fatalf("post-recovery commit made version %d, want 6", v)
	}
	// The pre-commit pin keeps its version and contents, as always.
	if v := snap.Version(); v != 5 || snap.FactCount("n") != 5 {
		t.Fatalf("snapshot moved: version %d, %d facts", v, snap.FactCount("n"))
	}
	// And a second recovery lands on 6: version numbering is a pure
	// function of the committed history, not of process restarts.
	db3 := reopen(t, db2, dir, OpenOptions{})
	defer db3.Close()
	if v := db3.Version(); v != 6 {
		t.Fatalf("second recovery at %d, want 6", v)
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, OpenOptions{SegmentBytes: 1}) // rotate every commit
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := db.Assert("n", i); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	stats, _ := db.DurabilityStats()
	if stats.LastCheckpointVersion != 8 || stats.Checkpoints != 1 {
		t.Fatalf("checkpoint stats = %+v", stats)
	}
	if stats.Segments != 1 {
		t.Fatalf("%d segments after truncation, want 1", stats.Segments)
	}
	// Commits after the checkpoint land in the log as usual.
	for i := 8; i < 11; i++ {
		if err := db.Assert("n", i); err != nil {
			t.Fatal(err)
		}
	}
	want := storeDump(db)

	db2 := reopen(t, db, dir, OpenOptions{})
	defer db2.Close()
	if got := db2.Version(); got != 11 {
		t.Fatalf("recovered version %d, want 11", got)
	}
	if got := storeDump(db2); got != want {
		t.Fatalf("recovered store differs from pre-close store")
	}
	st2, _ := db2.DurabilityStats()
	if st2.ReplayedRecords != 3 {
		t.Fatalf("replayed %d records, want 3 (checkpoint covers the rest): %+v", st2.ReplayedRecords, st2)
	}
	// The recovered log is 3 commits past the loaded checkpoint, so one
	// more checkpoint is warranted — but a second one with nothing new
	// committed must be a no-op.
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st3, _ := db2.DurabilityStats()
	if st3.Checkpoints != 1 || st3.LastCheckpointVersion != 11 {
		t.Fatalf("post-recovery checkpoint: %+v", st3)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st4, _ := db2.DurabilityStats(); st4.Checkpoints != 1 {
		t.Fatalf("idle checkpoint rewrote the file: %+v", st4)
	}
}

func TestMaterializedViewsRematerializeOnReopen(t *testing.T) {
	dir := t.TempDir()
	prog, err := Compile("path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).")
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AssertText("edge(a,b). edge(b,c)."); err != nil {
		t.Fatal(err)
	}
	if err := db.Materialize(prog); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	// A commit while materialized: base facts go to the log, the derived
	// consequences are maintained in memory only.
	if err := db.Assert("edge", "c", "d"); err != nil {
		t.Fatal(err)
	}
	if got := db.FactCount("path"); got != 6 {
		t.Fatalf("path has %d facts, want 6", got)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Assert("edge", "d", "e"); err != nil {
		t.Fatal(err)
	}

	db2 := reopen(t, db, dir, OpenOptions{})
	defer db2.Close()
	// Only base facts were recovered: derived state is not in the log or
	// the checkpoint.
	if got := db2.FactCount("path"); got != 0 {
		t.Fatalf("recovered database already holds %d path facts", got)
	}
	if got := db2.FactCount("edge"); got != 4 {
		t.Fatalf("recovered edge count %d, want 4", got)
	}
	// Re-registering the program recomputes the exact IDB.
	if err := db2.Materialize(prog); err != nil {
		t.Fatalf("re-Materialize after recovery: %v", err)
	}
	if got := db2.FactCount("path"); got != 10 {
		t.Fatalf("rematerialized path has %d facts, want 10", got)
	}
	fx := fixture{prog, db2}
	res, err := fx.snap().Query("path(a, X)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 4 {
		t.Fatalf("path(a,X) has %d answers, want 4", len(res.Answers))
	}
	if !res.Stats.MaterializedHit {
		t.Fatalf("query did not answer from the rematerialized IDB")
	}
}

func TestTornTailRecoveredAtDatalogLevel(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Assert("p", 1); err != nil {
		t.Fatal(err)
	}
	want := storeDump(db)
	// Simulate a crash mid-append: garbage on the tail, no Close/seal.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 1, 0xff, 0xff}) // a frame prefix cut mid-header
	f.Close()

	db2, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("Open with torn tail: %v", err)
	}
	defer db2.Close()
	if got := storeDump(db2); got != want {
		t.Fatalf("torn-tail recovery altered state:\n%s\nwant:\n%s", got, want)
	}
	stats, _ := db2.DurabilityStats()
	if !stats.TornTailRecovered {
		t.Fatalf("torn tail not reported: %+v", stats)
	}
	if stats.CleanShutdown {
		t.Fatalf("crashed log reported clean: %+v", stats)
	}
	// The database keeps working after the repair.
	if err := db2.Assert("p", 2); err != nil {
		t.Fatal(err)
	}
	if v := db2.Version(); v != 2 {
		t.Fatalf("version %d", v)
	}
}

func TestCorruptMidLogFailsOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, OpenOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := db.Assert("n", i); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	data, _ := os.ReadFile(segs[0])
	data[len(data)-1] ^= 0xff
	os.WriteFile(segs[0], data, 0o644)
	if _, err := Open(dir, OpenOptions{}); !errors.Is(err, wal.ErrCorruptLog) {
		t.Fatalf("Open over mid-log corruption = %v, want ErrCorruptLog", err)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, OpenOptions{CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 25; i++ {
		if err := db.Assert("n", i); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpoint runs on a background goroutine; Sync has no ordering
	// relationship with it, so poll briefly.
	deadline := 200
	for ; deadline > 0; deadline-- {
		if s, _ := db.DurabilityStats(); s.Checkpoints > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s, _ := db.DurabilityStats()
	if s.Checkpoints == 0 {
		t.Fatalf("no automatic checkpoint after 25 commits with CheckpointEvery=10: %+v", s)
	}
	if s.LastCheckpointError != "" {
		t.Fatalf("background checkpoint failed: %s", s.LastCheckpointError)
	}
}

func TestMemoryBackendAndDefaults(t *testing.T) {
	// NewDatabase has no backend at all.
	db := NewDatabase()
	if _, ok := db.DurabilityStats(); ok {
		t.Fatalf("NewDatabase reports durability stats")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on memory-only db: %v", err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Unknown options are rejected.
	if _, err := Open(t.TempDir(), OpenOptions{Fsync: "sometimes"}); err == nil {
		t.Fatal("unknown fsync policy accepted")
	}
}

func TestCommitAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Assert("p", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Assert("p", 2); err == nil {
		t.Fatal("commit after Close succeeded")
	}
	// The failed commit must not have mutated memory either: the write-ahead
	// step failed before Apply.
	if v := db.Version(); v != 1 {
		t.Fatalf("version %d after refused commit", v)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []string{FsyncAlways, FsyncInterval, FsyncNone} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, OpenOptions{Fsync: policy, FsyncInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := db.Assert("n", i); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Sync(); err != nil {
				t.Fatal(err)
			}
			want := storeDump(db)
			db2 := reopen(t, db, dir, OpenOptions{})
			defer db2.Close()
			if got := storeDump(db2); got != want {
				t.Fatalf("policy %s lost acknowledged state across clean close", policy)
			}
			s, _ := db2.DurabilityStats()
			if s.RecoveredVersion != 5 {
				t.Fatalf("recovered at %d", s.RecoveredVersion)
			}
		})
	}
}
