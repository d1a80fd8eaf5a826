package datalog

import (
	"errors"
	"strings"
	"testing"
)

const ancRules = `
	anc(X, Y) :- par(X, Y).
	anc(X, Y) :- par(X, Z), anc(Z, Y).
`

// TestTxnCommitAtomicVisibility pins that nothing buffered in a transaction
// is visible before Commit, and everything is after.
func TestTxnCommitAtomicVisibility(t *testing.T) {
	fx := newFixture(t, ancRules)
	db := fx.db
	txn := db.Begin()
	if err := txn.Assert("par", "john", "mary"); err != nil {
		t.Fatal(err)
	}
	if err := txn.AssertText("par(mary, sue). par(sue, kim)."); err != nil {
		t.Fatal(err)
	}
	if got := db.FactCount("par"); got != 0 {
		t.Fatalf("facts visible before commit: %d", got)
	}
	if v := db.Version(); v != 0 {
		t.Fatalf("version moved before commit: %d", v)
	}
	if a, r := txn.Pending(); a != 3 || r != 0 {
		t.Fatalf("Pending = %d asserts, %d retracts; want 3, 0", a, r)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.FactCount("par"); got != 3 {
		t.Fatalf("FactCount after commit = %d, want 3", got)
	}
	if v := db.Version(); v != 1 {
		t.Fatalf("version after one commit = %d, want 1", v)
	}
	res, err := fx.snap().Query("anc(john, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 {
		t.Fatalf("got %d answers, want 3", len(res.Answers))
	}
}

// TestTxnRollbackPinsNothingCommitted is the rollback-pinning test of the
// AssertText atomicity fix: a transaction that buffers good facts, then
// fails on a bad batch, must leave the database exactly as it was —
// including when the caller goes on to Commit anyway (the poisoned
// transaction refuses).
func TestTxnRollbackPinsNothingCommitted(t *testing.T) {
	fx := newFixture(t, ancRules)
	db := fx.db
	if err := db.AssertText("par(john, mary)."); err != nil {
		t.Fatal(err)
	}
	v1 := db.Version()

	txn := db.Begin()
	if err := txn.AssertText("par(mary, sue)."); err != nil {
		t.Fatal(err)
	}
	// A parse error poisons the transaction...
	if err := txn.AssertText("par(sue, "); err == nil {
		t.Fatal("want parse error")
	}
	// ...so Commit refuses the whole batch, including the good prefix.
	if err := txn.Commit(); err == nil {
		t.Fatal("want commit of a poisoned transaction to fail")
	}
	if got := db.FactCount("par"); got != 1 {
		t.Fatalf("poisoned commit changed the database: %d facts, want 1", got)
	}
	if db.Version() != v1 {
		t.Fatalf("poisoned commit advanced the version: %d -> %d", v1, db.Version())
	}

	// Explicit rollback likewise discards everything.
	txn = db.Begin()
	if err := txn.Assert("par", "a", "b"); err != nil {
		t.Fatal(err)
	}
	txn.Rollback()
	if got := db.FactCount("par"); got != 1 {
		t.Fatalf("rollback leaked facts: %d, want 1", got)
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Commit after Rollback = %v, want ErrTxnDone", err)
	}
	if err := txn.Assert("par", "c", "d"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Assert after Rollback = %v, want ErrTxnDone", err)
	}
}

// TestAssertTextAllOrNothing pins the satellite fix: historically a
// mid-batch error left the facts before it committed; now AssertText is one
// transaction and an error anywhere leaves the database untouched.
func TestAssertTextAllOrNothing(t *testing.T) {
	fx := newFixture(t, ancRules)
	if err := fx.db.AssertText("par(john, mary)."); err != nil {
		t.Fatal(err)
	}

	// Arity error in the third fact: the first two must not stick.
	err := fx.db.AssertText("par(a, b). par(b, c). par(oops).")
	if err == nil {
		t.Fatal("want arity error")
	}
	if !strings.Contains(err.Error(), "arity") {
		t.Fatalf("error %q does not mention arity", err)
	}
	if got := fx.db.FactCount("par"); got != 1 {
		t.Fatalf("mid-batch arity error committed a prefix: %d facts, want 1", got)
	}

	// Parse error at the end of the text: same guarantee.
	if err := fx.db.AssertText("par(c, d). par(d, "); err == nil {
		t.Fatal("want parse error")
	}
	if got := fx.db.FactCount("par"); got != 1 {
		t.Fatalf("mid-batch parse error committed a prefix: %d facts, want 1", got)
	}

	// Rules are still rejected, atomically.
	if err := fx.db.AssertText("par(e, f). anc(X, Y) :- par(X, Y)."); err == nil {
		t.Fatal("want facts-only error")
	}
	if got := fx.db.FactCount("par"); got != 1 {
		t.Fatalf("rejected rule text committed a prefix: %d facts, want 1", got)
	}
}

// TestTxnRetractThenAssertOrder pins the documented in-transaction
// semantics: retracts apply before asserts, so retract+assert of one fact
// leaves it present, and batch retracts actually remove.
func TestTxnRetractThenAssertOrder(t *testing.T) {
	fx := newFixture(t, ancRules)
	db := fx.db
	if err := db.AssertText("par(a, b). par(b, c)."); err != nil {
		t.Fatal(err)
	}

	txn := db.Begin()
	if err := txn.Retract("par", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Assert("par", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := txn.RetractText("par(b, c)."); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.FactCount("par"); got != 1 {
		t.Fatalf("FactCount = %d, want 1 (a,b kept; b,c removed)", got)
	}
	res, err := fx.snap().Query("anc(a, Y)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("got %d answers, want 1", len(res.Answers))
	}
}

// TestDatabaseVersionMonotonic pins that every non-empty commit advances
// the version by exactly one and empty commits do not.
func TestDatabaseVersionMonotonic(t *testing.T) {
	db := NewDatabase()
	if db.Version() != 0 {
		t.Fatalf("fresh database version = %d", db.Version())
	}
	if err := db.Assert("p", "a"); err != nil {
		t.Fatal(err)
	}
	if err := db.Assert("p", "b"); err != nil {
		t.Fatal(err)
	}
	if db.Version() != 2 {
		t.Fatalf("version after two commits = %d, want 2", db.Version())
	}
	// Empty transaction: no version bump.
	if err := db.Begin().Commit(); err != nil {
		t.Fatal(err)
	}
	if db.Version() != 2 {
		t.Fatalf("empty commit advanced version to %d", db.Version())
	}
	// A duplicate fact is a committed (if no-op) batch: version advances.
	if err := db.Assert("p", "a"); err != nil {
		t.Fatal(err)
	}
	if db.Version() != 3 {
		t.Fatalf("version after duplicate-fact commit = %d, want 3", db.Version())
	}
}

// TestTxnArityValidatedAgainstStore pins that a batch conflicting with an
// existing relation's arity is refused before any mutation.
func TestTxnArityValidatedAgainstStore(t *testing.T) {
	db := NewDatabase()
	if err := db.AssertText("p(a, b)."); err != nil {
		t.Fatal(err)
	}
	txn := db.Begin()
	if err := txn.AssertText("q(x). p(c)."); err != nil {
		t.Fatal(err) // buffering succeeds; the conflict is with the store
	}
	if err := txn.Commit(); err == nil {
		t.Fatal("want arity conflict at commit")
	}
	if got := db.FactCount("q"); got != 0 {
		t.Fatalf("refused batch committed q: %d facts", got)
	}
	if got, want := db.FactCount("p"), 1; got != want {
		t.Fatalf("refused batch changed p: %d facts, want %d", got, want)
	}
}

// TestEmbeddedFactsLoadExplicitly: ground facts in a program text are data,
// and the one way they reach a database is LoadFacts — one transaction, so
// one version bump; loading them again changes no fact; a rules-only
// program is a no-op that bumps nothing; and a database they were not
// loaded into answers without them.
func TestEmbeddedFactsLoadExplicitly(t *testing.T) {
	prog, err := Compile("anc(X, Y) :- par(X, Y).\n par(a, b). par(b, c).")
	if err != nil {
		t.Fatal(err)
	}
	if n, first := prog.EmbeddedFacts(); n != 2 || first != (Position{Line: 2, Col: 2}) {
		t.Fatalf("EmbeddedFacts = %d at %s, want 2 at 2:2", n, first)
	}
	db := NewDatabase()
	query := func() int {
		t.Helper()
		res, err := db.Snapshot().With(prog).Query("anc(a, Y)", Options{})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Answers)
	}
	if got := query(); got != 0 || db.Version() != 0 {
		t.Fatalf("before LoadFacts: %d answers at version %d, want 0 at 0", got, db.Version())
	}
	if err := db.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	if got := query(); got != 1 || db.Version() != 1 || db.FactCount("par") != 2 {
		t.Fatalf("after LoadFacts: %d answers, version %d, %d par facts; want 1, 1, 2", got, db.Version(), db.FactCount("par"))
	}
	if err := db.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	// Like every non-empty commit it is a new version; the facts are a set.
	if got := query(); got != 1 || db.Version() != 2 || db.FactCount("par") != 2 {
		t.Fatalf("after a second LoadFacts: %d answers, version %d, %d par facts; want 1, 2, 2", got, db.Version(), db.FactCount("par"))
	}

	rules, err := Compile("anc(X, Y) :- par(X, Y).")
	if err != nil {
		t.Fatal(err)
	}
	if n, first := rules.EmbeddedFacts(); n != 0 || first != (Position{}) {
		t.Fatalf("rules-only EmbeddedFacts = %d at %s, want none", n, first)
	}
	before := db.Version()
	if err := db.LoadFacts(rules); err != nil {
		t.Fatal(err)
	}
	if db.Version() != before {
		t.Fatalf("LoadFacts of a rules-only program moved the version %d -> %d", before, db.Version())
	}
}
