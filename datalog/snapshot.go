// Snapshot: an immutable, pinned-version view of a Database, and the one
// place queries read from.
//
// A snapshot observes exactly the facts of one commit version: commits that
// land after the snapshot was taken are invisible to it, forever. Two
// queries against one snapshot therefore never straddle a commit. Snapshots
// are cheap (facts are shared copy-on-write, see Database.Snapshot) and
// lock-free to read: queries do not take the database lock at all, so they
// proceed even while large commits hold the write lock. Release ends a
// snapshot, after which commits write in place again.

package datalog

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/parser"
)

// ErrNoProgram is returned (wrapped) by snapshot queries when the snapshot
// has no program bound: Database.Snapshot pins data only — bind rules with
// Snapshot.With.
var ErrNoProgram = errors.New("datalog: snapshot has no program bound (use Snapshot.With)")

// ErrReleased is returned by queries on a snapshot after Snapshot.Release.
var ErrReleased = errors.New("datalog: snapshot released")

// Snapshot is an immutable view of a Database pinned at one commit version,
// optionally bound to a compiled Program. All queries against one snapshot
// — one-shot, prepared or streamed, from any number of goroutines — see
// exactly the same facts and rules, making it the unit of request-level
// consistency: take a snapshot per request, answer every sub-query on it,
// and concurrent commits cannot tear the view. A Snapshot is safe for
// concurrent use and holds no locks. Call Release once its last query has
// returned: until then, the first commit to write each relation it pins
// copies that relation. A snapshot that is never released stays valid and
// keeps costing that one copy per relation.
type Snapshot struct {
	store *database.Store // pinned, immutable
	prog  *Program        // bound program, nil for data-only snapshots
	// mat is the materialization registration captured when the snapshot was
	// taken (nil when none was live): queries of the registered program
	// answer from the pinned IDB relations by pure lookup — and keep doing
	// so even after the database drops or replaces its materialization,
	// because the snapshot pinned the derived relations along with the base
	// facts.
	mat *materialization
	// live is the database's gauge of unreleased snapshots.
	live *atomic.Int64
}

// Release ends the snapshot's pin, for it and for every With copy of it
// (they share the pin): commits then write the relations it held in place
// again. Queries on a released snapshot return ErrReleased; call Release
// only after its last query has returned, and read nothing but Version
// afterwards. Release is idempotent.
func (s *Snapshot) Release() {
	if s.store.Release() {
		s.live.Add(-1)
	}
}

// Version returns the commit version the snapshot observes.
func (s *Snapshot) Version() uint64 { return s.store.Version() }

// FactCount returns the number of facts stored for a predicate in the
// pinned view.
func (s *Snapshot) FactCount(pred string) int { return s.store.FactCount(pred) }

// TotalFacts returns the total number of facts in the pinned view.
func (s *Snapshot) TotalFacts() int { return s.store.TotalFacts() }

// Program returns the bound program, or nil for a data-only snapshot.
func (s *Snapshot) Program() *Program { return s.prog }

// With returns a snapshot of the same pinned data bound to the given
// program. The receiver is unchanged; snapshots of one database may be
// bound to any number of programs (they share the pinned facts), which is
// how a rule change is tested against a stable dataset.
func (s *Snapshot) With(prog *Program) *Snapshot {
	return &Snapshot{store: s.store, prog: prog, mat: s.mat, live: s.live}
}

// prepare is the front half of every query: parse the query text, validate
// and normalize the options, and fetch (or build) the form's preparation
// from the bound program's cache. hit reports a warm form.
func (s *Snapshot) prepare(querySrc string, opts Options) (pq *PreparedQuery, hit bool, err error) {
	if s.prog == nil {
		return nil, false, fmt.Errorf("%w", ErrNoProgram)
	}
	if s.store.Released() {
		return nil, false, ErrReleased
	}
	q, err := parseQuery(querySrc)
	if err != nil {
		return nil, false, err
	}
	if err := normalizeOptions(&opts); err != nil {
		return nil, false, err
	}
	form, hit, err := s.prog.preparedFor(q, opts, s.store.Table())
	if err != nil {
		return nil, false, err
	}
	pq = &PreparedQuery{snap: s, opts: opts, atom: q.Atom, form: form}
	for i, arg := range q.Atom.Args {
		if ast.IsGround(arg) {
			pq.boundPos = append(pq.boundPos, i)
		}
	}
	return pq, hit, nil
}

// parseQuery parses one query atom such as "anc(john, Y)".
func parseQuery(querySrc string) (ast.Query, error) {
	q, err := parser.ParseQuery(querySrc)
	if err != nil {
		return q, fmt.Errorf("datalog: %w", err)
	}
	return q, nil
}

// Query evaluates a query against the pinned view. It is QueryCtx with a
// background context.
func (s *Snapshot) Query(querySrc string, opts Options) (*Result, error) {
	return s.QueryCtx(context.Background(), querySrc, opts)
}

// QueryCtx evaluates a query such as "anc(john, Y)" against the pinned view
// under the caller's context: a deadline or cancellation interrupts the
// evaluation (whatever the strategy) and the returned error wraps ctx.Err(),
// distinct from ErrLimitExceeded. The query runs through the bound
// program's prepared-form cache: the first query of a form pays for
// parse → adorn → rewrite → compile, repeat queries of the same form (same
// predicate, binding pattern, strategy and sip — the constants may differ)
// reuse the cached preparation and only evaluate; Stats.PlanCacheHit reports
// which case a result was. Concurrent commits to the underlying database
// are never observed, and no database lock is taken.
func (s *Snapshot) QueryCtx(ctx context.Context, querySrc string, opts Options) (*Result, error) {
	pq, hit, err := s.prepare(querySrc, opts)
	if err != nil {
		return nil, err
	}
	return pq.runMaterialized(ctx, pq.boundConstants(), pq.opts, hit)
}

// Prepare compiles a query form once — parse, adorn, rewrite, simplify and
// the bottom-up plan analysis all happen here — so that Run only evaluates
// against the pinned view. The form is keyed by predicate, binding pattern,
// strategy and sip policy and cached on the bound program, so preparing the
// same form twice — on this snapshot or on a later one of the same database
// — returns the cached preparation. The query's constants become the
// default arguments of Run; runs with different constants reuse the same
// compiled form, because the rewritten program depends only on the form
// (the constants occur only in the seed facts and the answer selection).
func (s *Snapshot) Prepare(querySrc string, opts Options) (*PreparedQuery, error) {
	pq, _, err := s.prepare(querySrc, opts)
	return pq, err
}

// Stream evaluates a query against the pinned view and returns a cursor
// over its typed answer rows (see PreparedQuery.Stream, including the
// FirstN early-termination behavior). Errors — a bad query, a missing
// program, a cancellation — are yielded as the final (nil, err) pair.
func (s *Snapshot) Stream(ctx context.Context, querySrc string, opts Options) iter.Seq2[Row, error] {
	return func(yield func(Row, error) bool) {
		pq, err := s.Prepare(querySrc, opts)
		if err != nil {
			yield(nil, err)
			return
		}
		for row, err := range pq.Stream(ctx) {
			if !yield(row, err) {
				return
			}
		}
	}
}
