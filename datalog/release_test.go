package datalog

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestReleasedSnapshotRefusesQueries checks that every way of querying a
// released snapshot — Query, Prepare, Run of a handle prepared before the
// release, Stream — returns ErrReleased, on the snapshot and on a With copy
// of it, whichever of the two was released, and that the live-pin gauge
// drops once per snapshot.
func TestReleasedSnapshotRefusesQueries(t *testing.T) {
	prog, err := Compile(ancRules)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := db.AssertText(chainFacts(0, 5)); err != nil {
		t.Fatal(err)
	}
	for _, viaCopy := range []bool{false, true} {
		snap := db.Snapshot()
		bound := snap.With(prog)
		pq, err := bound.Prepare("anc(n0, Y)", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := db.LivePins(); got != 1 {
			t.Fatalf("LivePins = %d with one snapshot taken, want 1", got)
		}
		if viaCopy {
			bound.Release()
		} else {
			snap.Release()
		}
		snap.Release() // idempotent
		bound.Release()
		if got := db.LivePins(); got != 0 {
			t.Fatalf("LivePins = %d after release, want 0", got)
		}
		for _, s := range []*Snapshot{bound, snap.With(prog)} {
			if _, err := s.Query("anc(n0, Y)", Options{}); !errors.Is(err, ErrReleased) {
				t.Errorf("viaCopy=%v: Query error %v, want ErrReleased", viaCopy, err)
			}
			if _, err := s.Prepare("anc(n0, Y)", Options{}); !errors.Is(err, ErrReleased) {
				t.Errorf("viaCopy=%v: Prepare error %v, want ErrReleased", viaCopy, err)
			}
			var streamErr error
			for row, err := range s.Stream(context.Background(), "anc(n0, Y)", Options{}) {
				if row != nil {
					t.Errorf("viaCopy=%v: Stream yielded a row after release", viaCopy)
				}
				streamErr = err
			}
			if !errors.Is(streamErr, ErrReleased) {
				t.Errorf("viaCopy=%v: Stream error %v, want ErrReleased", viaCopy, streamErr)
			}
		}
		if _, err := pq.Run(); !errors.Is(err, ErrReleased) {
			t.Errorf("viaCopy=%v: Run error %v, want ErrReleased", viaCopy, err)
		}
		for _, err := range pq.Stream(context.Background()) {
			if !errors.Is(err, ErrReleased) {
				t.Errorf("viaCopy=%v: prepared Stream error %v, want ErrReleased", viaCopy, err)
			}
		}
	}
}

// TestReleaseRacingCommits runs readers that pin, query and release in a
// loop against a writer that flips par between two states, each commit
// retracting one set of rows and asserting the other. Once no snapshot pins
// par, a commit writes it in place — swap deletes overwrite rows in the
// middle of the relation — so a release racing a commit must never let a
// reader still holding its pin see that write: every answer set has to be
// the one of the reader's pinned version, and -race must stay quiet.
func TestReleaseRacingCommits(t *testing.T) {
	prog, err := Compile(ancRules)
	if err != nil {
		t.Fatal(err)
	}
	const stateA = "par(n20, e1). par(n20, e2). par(n5, e3)."
	const stateB = "par(n20, f1). par(n10, f2). par(n3, f3). par(n7, f4)."
	db := NewDatabase()
	if err := db.AssertText(chainFacts(0, 20) + stateA); err != nil {
		t.Fatal(err)
	}
	// Version 1 holds state A; every commit flips the state, so odd versions
	// hold A and even ones B.
	oracle := func(v uint64) string {
		extra := []string{"e1", "e2", "e3"}
		if v%2 == 0 {
			extra = []string{"f1", "f2", "f3", "f4"}
		}
		var want []string
		for i := 1; i <= 20; i++ {
			want = append(want, fmt.Sprintf("n%d", i))
		}
		want = append(want, extra...)
		sort.Strings(want)
		return strings.Join(want, " ")
	}

	const commits, reads = 150, 150
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	report := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		from, to := stateA, stateB
		for i := 0; i < commits; i++ {
			txn := db.Begin()
			if err := txn.RetractText(from); err != nil {
				report("retract: %v", err)
				return
			}
			if err := txn.AssertText(to); err != nil {
				report("assert: %v", err)
				return
			}
			if err := txn.Commit(); err != nil {
				report("commit: %v", err)
				return
			}
			from, to = to, from
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				snap := db.Snapshot().With(prog)
				res, err := snap.Query("anc(n0, Y)", Options{})
				v := snap.Version()
				snap.Release()
				if err != nil {
					report("query: %v", err)
					return
				}
				var got []string
				for _, a := range res.Answers {
					got = append(got, a.Vals[0].String())
				}
				sort.Strings(got)
				if have, want := strings.Join(got, " "), oracle(v); have != want {
					report("version %d: answers %s, want %s", v, have, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := db.LivePins(); got != 0 {
		t.Errorf("LivePins = %d after every reader released, want 0", got)
	}
}
