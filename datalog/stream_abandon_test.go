package datalog

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestAbandonedStreamsReleaseLocks pins the serving-layer liveness
// invariant behind PreparedQuery.Stream: a stream holds no database lock —
// not while evaluating, not while yielding — so a client that stops
// consuming a stream mid-iteration (a disconnected HTTP consumer, a FirstN
// break) can never wedge concurrent commits. The test abandons many
// streams — on fresh snapshots and on one shared across goroutines — while
// a committer keeps writing; if an abandoned stream held the store's lock
// the committer would deadlock and the test would time out (and -race would
// flag any unsynchronized access to the shared store).
func TestAbandonedStreamsReleaseLocks(t *testing.T) {
	fx := newFixture(t, `
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`)
	db := fx.db
	txn := db.Begin()
	for i := 0; i < 100; i++ {
		if err := txn.Assert("par", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	const (
		abandoners = 8
		streamsPer = 6
		maxCommits = 600 // keep the EDB bounded so evaluations stay cheap
	)
	stop := make(chan struct{})
	shared := fx.snap()
	var wg sync.WaitGroup

	// The committer: every commit takes the database write lock, so it would
	// stall if an abandoned stream were still holding a read lock.
	committed := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for n < maxCommits {
			select {
			case <-stop:
				committed <- n
				return
			default:
			}
			txn := db.Begin()
			_ = txn.Assert("par", fmt.Sprintf("x%d", n), fmt.Sprintf("x%d", n+1))
			if err := txn.Commit(); err != nil {
				t.Errorf("commit under abandoned streams: %v", err)
				committed <- n
				return
			}
			n++
			runtime.Gosched()
		}
		committed <- n
	}()

	for g := 0; g < abandoners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < streamsPer; i++ {
				snap := shared
				if i%2 == 0 {
					snap = fx.snap()
				}
				pq, err := snap.Prepare("anc(n0, Y)", Options{})
				if err != nil {
					t.Error(err)
					return
				}
				rows := 0
				for _, err := range pq.Stream(t.Context()) {
					if err != nil {
						t.Error(err)
						return
					}
					rows++
					if rows > i%3 {
						break // abandon the stream mid-iteration
					}
				}
			}
		}(g)
	}

	// Give the abandoners time to pile up against the committer, then check
	// the committer is still making progress.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out: an abandoned stream is blocking commits or streams")
	}
	if n := <-committed; n == 0 {
		t.Fatal("committer made no progress while streams were being abandoned")
	}
}
