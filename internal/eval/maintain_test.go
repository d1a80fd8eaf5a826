package eval

// Tests for incremental maintenance (maintain.go): after every committed
// batch the maintained IDB must equal a from-scratch materialization of the
// same EDB, down to each row's derivation count. Equal counts are the direct
// check that every rule-body instantiation is enumerated exactly once per
// batch.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/parser"
)

// idbCounts maps every stored row of the program's derived predicates to its
// derivation count (1 for DRed-maintained predicates, which keep none). Rows
// are keyed by their IDs, which are comparable across stores sharing one
// symbol table.
func idbCounts(pp *Prepared, store *database.Store) map[string]int32 {
	out := make(map[string]int32)
	for key := range pp.derived {
		rel := store.Existing(key)
		if rel == nil {
			continue
		}
		for pos := 0; pos < rel.Len(); pos++ {
			out[fmt.Sprint(key, rel.Row(pos))] = rel.CountAt(pos)
		}
	}
	return out
}

// rematerialize copies the base relations of store into a fresh store over
// the same symbol table and materializes the program there from scratch.
func rematerialize(t *testing.T, m *Maintainer, store *database.Store) *database.Store {
	t.Helper()
	fresh := database.NewStoreWith(store.Table())
	for _, name := range store.Names() {
		src := store.Existing(name)
		if m.pp.derived[name] || src == nil {
			continue
		}
		dst, err := fresh.Relation(name, src.Arity)
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; pos < src.Len(); pos++ {
			if _, err := dst.InsertRow(src.Row(pos)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.Materialize(fresh, Options{}); err != nil {
		t.Fatalf("rematerialize: %v", err)
	}
	return fresh
}

// randomBatch draws one batch of retracts and asserts over the given facts.
// One batch in three also retracts and re-asserts the same fact, a net no-op
// the delta capture must cancel.
func randomBatch(rng *rand.Rand, facts []ast.Atom) (retracts, asserts []ast.Atom) {
	for op := 0; op < 1+rng.Intn(4); op++ {
		f := facts[rng.Intn(len(facts))]
		if rng.Intn(3) == 0 {
			retracts = append(retracts, f)
		} else {
			asserts = append(asserts, f)
		}
	}
	if rng.Intn(3) == 0 {
		f := facts[rng.Intn(len(facts))]
		retracts = append(retracts, f)
		asserts = append(asserts, f)
	}
	return retracts, asserts
}

// maintainScenario materializes prog over edb and commits batches random
// batches over facts, each through Store.ApplyDelta and Maintainer.Maintain.
// After every batch the maintained rows and counts must equal a from-scratch
// materialization. It returns the stats of every maintenance run, the
// initial materialization first.
func maintainScenario(t *testing.T, label string, rng *rand.Rand, prog *ast.Program, edb *database.Store, facts []ast.Atom, batches int) []*MaintainStats {
	t.Helper()
	pp, err := Prepare(prog, edb.Table())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMaintainer(pp)
	ms, err := m.Materialize(edb, Options{})
	if err != nil {
		t.Fatalf("%s: materialize: %v", label, err)
	}
	all := []*MaintainStats{ms}
	for b := 0; b < batches; b++ {
		retracts, asserts := randomBatch(rng, facts)
		minus, plus, _, _, err := edb.ApplyDelta(retracts, asserts)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := m.Maintain(edb, minus, plus, Options{})
		if err != nil {
			t.Fatalf("%s: batch %d: %v", label, b, err)
		}
		all = append(all, ms)
		got, want := idbCounts(pp, edb), idbCounts(pp, rematerialize(t, m, edb))
		if len(got) != len(want) {
			t.Fatalf("%s: batch %d (-%v +%v): %d maintained rows, rematerialized %d\nprogram:\n%s",
				label, b, retracts, asserts, len(got), len(want), prog)
		}
		for row, n := range want {
			if got[row] != n {
				t.Fatalf("%s: batch %d (-%v +%v): row %s has count %d, rematerialized %d\nprogram:\n%s",
					label, b, retracts, asserts, row, got[row], n, prog)
			}
		}
	}
	return all
}

// flatFacts is the universe of base facts randomFlatProgram's EDB draws from.
func flatFacts() []ast.Atom {
	var facts []ast.Atom
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			facts = append(facts, ast.NewAtom("p", ast.S(fmt.Sprintf("n%d", i)), ast.S(fmt.Sprintf("n%d", j))))
		}
		for c := 0; c < 3; c++ {
			facts = append(facts, ast.NewAtom("q", ast.S(fmt.Sprintf("n%d", c)), ast.S(fmt.Sprintf("n%d", i))))
		}
	}
	return facts
}

// TestMaintainCountsMatchRematerialization is the counts oracle over random
// flat programs, recursive (DRed) and not (counting), and random batches.
func TestMaintainCountsMatchRematerialization(t *testing.T) {
	facts := flatFacts()
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		prog, edb := randomFlatProgram(rng)
		maintainScenario(t, fmt.Sprintf("seed=%d", seed), rng, prog, edb, facts, 15)
	}
}

// pinnedSrc mixes a recursive predicate over cyclic data (DRed), a
// non-recursive one over the base relation and a non-recursive one over the
// recursive one (counting).
const pinnedSrc = `
	anc(X, Y) :- par(X, Y).
	anc(X, Y) :- anc(X, Z), par(Z, Y).
	grandpar(X, Y) :- par(X, Z), par(Z, Y).
	back(X) :- anc(X, Y), par(Y, X).
`

// TestMaintainStatsPinned pins the work counters of one seeded scenario,
// summed over the initial materialization and every batch. The values do not
// depend on the join order: each counts rows or derivations, not probes.
// Rounds is left out: DRed's rescue rounds depend on the order candidates
// are rescued in.
func TestMaintainStatsPinned(t *testing.T) {
	var facts []ast.Atom
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			facts = append(facts, ast.NewAtom("par", ast.S(fmt.Sprintf("n%d", i)), ast.S(fmt.Sprintf("n%d", j))))
		}
	}
	rng := rand.New(rand.NewSource(26))
	edb := database.NewStore()
	for i := 0; i < 10; i++ {
		edb.MustAddFact(facts[rng.Intn(len(facts))])
	}
	var sum MaintainStats
	for _, ms := range maintainScenario(t, "pinned", rng, parser.MustParseProgram(pinnedSrc), edb, facts, 20) {
		sum.Added += ms.Added
		sum.Deleted += ms.Deleted
		sum.Increments += ms.Increments
		sum.Decrements += ms.Decrements
		sum.Rederived += ms.Rederived
		sum.CountRows += ms.CountRows
	}
	want := MaintainStats{Added: 106, Deleted: 33, Increments: 137, Decrements: 74, Rederived: 198, CountRows: 635}
	if sum != want {
		t.Errorf("summed stats %+v, want %+v", sum, want)
	}
}

// TestMaterializeHonoursMaxDerivations checks that the initial
// materialization, which fires rules through the evaluator's pipelines,
// stops at Options.MaxDerivations.
func TestMaterializeHonoursMaxDerivations(t *testing.T) {
	edb := chainStore(8)
	pp, err := Prepare(parser.MustParseProgram(ancestorSrc), edb.Table())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaintainer(pp).Materialize(edb, Options{MaxDerivations: 5}); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("Materialize with MaxDerivations 5 returned %v, want ErrLimitExceeded", err)
	}
}
