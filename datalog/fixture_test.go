package datalog

import "testing"

// fixture is what most tests start from: a compiled program and a database
// holding the facts embedded in the program text. It has no query methods —
// tests read the way every caller does, through a snapshot.
type fixture struct {
	prog *Program
	db   *Database
}

// newFixture compiles src and commits its embedded facts to a fresh
// database.
func newFixture(t testing.TB, src string) fixture {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := db.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	return fixture{prog, db}
}

// snap pins the database's current version and binds the program.
func (f fixture) snap() *Snapshot { return f.db.Snapshot().With(f.prog) }
