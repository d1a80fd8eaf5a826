package datalog

import (
	"context"
	"strings"
	"testing"

	"repro/internal/topdown"
)

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

// topDown answers a query over a snapshot with the memoizing top-down (QSQ)
// evaluator of internal/topdown, the yardstick of Section 9 and the engine's
// independent oracle: it shares no evaluation code with the bottom-up
// strategies. It runs on the program adorned for the query exactly as the
// rewriting strategies adorn it (opts.Sip selects the sip), and opts.FirstN
// maps onto its own first-N cutoff; no other option applies.
func topDown(snap *Snapshot, query string, opts Options) (*topdown.Result, error) {
	q, err := parseQuery(query)
	if err != nil {
		return nil, err
	}
	ad, _, err := snap.prog.analyze(q, opts)
	if err != nil {
		return nil, err
	}
	return topdown.EvaluateCtx(context.Background(), ad, snap.store, topdown.Options{FirstN: opts.FirstN})
}

// topDownAnswers is topDown's answer set, rendered as Result.AnswerSet
// renders the engine's, so the two compare directly.
func topDownAnswers(snap *Snapshot, query string, opts Options) (map[string]bool, error) {
	res, err := topDown(snap, query, opts)
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool, len(res.Answers))
	for _, tuple := range res.Answers {
		vals := make([]string, len(tuple))
		for i, term := range tuple {
			vals[i] = term.String()
		}
		set["("+strings.Join(vals, ", ")+")"] = true
	}
	return set, nil
}

// TopDownAnswers exports topDownAnswers to the package's external tests.
var TopDownAnswers = topDownAnswers
