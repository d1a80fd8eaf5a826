package eval

// Tests for the run-time choice of a full-store pass's leading literal
// (evalContext.fullStoreLead): whichever literal leads, a rule derives the
// same facts; the choice follows relation sizes; and a rule that cannot fire
// is not run.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/intern"
	"repro/internal/parser"
)

// readsOwnHead reports whether some rule's body mentions the rule's own head
// predicate. Such a rule can see facts it inserted earlier in the same pass,
// and how many depends on the join order — so its Derivations (never its
// facts) may differ between orders.
func readsOwnHead(p *ast.Program) bool {
	for _, r := range p.Rules {
		for _, lit := range r.Body {
			if lit.PredKey() == r.Head.PredKey() {
				return true
			}
		}
	}
	return false
}

// assertLeadInvariant evaluates the program naively once per body position k,
// with every rule's pipeline compiled to lead with its literal
// k mod |body| — so every rule is led by every one of its literals — and
// requires each run to reach the fixpoint of the term-space oracle: the
// same store, the same number of new facts and, where the count does not
// depend on the order (see readsOwnHead), the same number of derivations.
func assertLeadInvariant(t *testing.T, label string, prog *ast.Program, edb *database.Store) {
	t.Helper()
	pp, err := Prepare(prog, edb.Table())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := termSpaceNaive(prog, edb)
	if err != nil {
		t.Fatalf("%s: term-space naive: %v", label, err)
	}
	want := ref.store.String()
	longest := 1
	for _, r := range prog.Rules {
		if len(r.Body) > longest {
			longest = len(r.Body)
		}
	}
	for k := 0; k < longest; k++ {
		ctx, err := newContext(context.Background(), pp, edb, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pipes := make([]*pipeline, len(prog.Rules))
		for ri, r := range prog.Rules {
			key := variantKey{rule: ri, lead: -1}
			if len(r.Body) > 0 {
				key.lead = k % len(r.Body)
			}
			pipes[ri] = compileRule(pp, key)
		}
		for changed := true; changed; {
			changed = false
			for ri, pl := range pipes {
				err := pl.run(ctx, pl.newScratch().fromStores(pl, ctx.store, nil), func(row []intern.ID) error {
					added, err := ctx.insertRow(ctx.store, pl.headKey, pl.headArity, row)
					if added {
						changed = true
						ctx.stats.NewFacts++
					}
					return err
				})
				if err != nil {
					t.Fatalf("%s: lead %d, rule %d: %v", label, k, ri, err)
				}
			}
		}
		if got := ctx.store.String(); got != want {
			t.Fatalf("%s: leading with literal %d changes the fixpoint\ngot:\n%s\nterm-space:\n%s", label, k, got, want)
		}
		if ctx.stats.NewFacts != ref.newFacts {
			t.Errorf("%s: lead %d: NewFacts %d, term-space %d", label, k, ctx.stats.NewFacts, ref.newFacts)
		}
		if !readsOwnHead(prog) && ctx.stats.Derivations != ref.derivations {
			t.Errorf("%s: lead %d: Derivations %d, term-space %d", label, k, ctx.stats.Derivations, ref.derivations)
		}
	}
}

// TestEveryLeadSameFixpoint forces every possible leading literal on the
// programs of the differential suite: random flat rules, the unrewritten
// recursions, and their magic, supplementary-magic and counting rewritings.
func TestEveryLeadSameFixpoint(t *testing.T) {
	for seed := 0; seed < 30; seed++ {
		prog, edb := randomFlatProgram(rand.New(rand.NewSource(int64(100 + seed))))
		assertLeadInvariant(t, fmt.Sprintf("flat/seed=%d", seed), prog, edb)
	}
	for _, c := range rewrittenCases(t) {
		assertLeadInvariant(t, c.label, c.prog, c.db)
	}
	plain := parser.MustParseProgram(`
		a(X, Y) :- p(X, Y).
		a(X, Y) :- a(X, Z), a(Z, Y).
		both(X, Y) :- a(X, Y), a(Y, X), p(X, Z).
	`)
	for seed := 0; seed < 4; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		assertLeadInvariant(t, fmt.Sprintf("plain/seed=%d", seed), plain, randomEdgeStore(rng, "p", 4+rng.Intn(8), 6+rng.Intn(14)))
	}
}

// TestFullStoreLeadFollowsSizes pins the choice itself on a guard rule: the
// smaller relation leads whichever side it is on, the guard wins a tie, a
// literal with a constant argument leads regardless of size, and an empty
// relation means the rule is not run.
func TestFullStoreLeadFollowsSizes(t *testing.T) {
	prog := parser.MustParseProgram(`
		r(X, Y) :- guard(X), edge(X, Y).
		s(Y) :- guard(X), edge(n0, Y).
	`)
	store := func(guards, edges int) *database.Store {
		edb := database.NewStore()
		for i := 0; i < guards; i++ {
			edb.MustAddFact(ast.NewAtom("guard", ast.S(fmt.Sprintf("n%d", i))))
		}
		for i := 0; i < edges; i++ {
			edb.MustAddFact(ast.NewAtom("edge", ast.S(fmt.Sprintf("n%d", i)), ast.S(fmt.Sprintf("n%d", i+1))))
		}
		return edb
	}
	cases := []struct {
		guards, edges int
		rule          int
		lead          int
		ok            bool
	}{
		{2, 50, 0, 0, true},
		{50, 2, 0, 1, true},
		{7, 7, 0, 0, true},
		{2, 50, 1, 1, true},
		{0, 50, 0, -1, false},
		{2, 0, 1, -1, false},
	}
	for _, c := range cases {
		edb := store(c.guards, c.edges)
		pp, err := Prepare(prog, edb.Table())
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := newContext(context.Background(), pp, edb, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if lead, ok := ctx.fullStoreLead(c.rule); lead != c.lead || ok != c.ok {
			t.Errorf("%d guards, %d edges, rule %d: lead %d ok %v; want %d %v",
				c.guards, c.edges, c.rule, lead, ok, c.lead, c.ok)
		}
	}

	// The skip is visible in the statistics, and a skipped rule compiles and
	// scans nothing.
	_, stats, err := semiNaive(prog, store(0, 50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedRuleEvals != 2 || stats.CompiledPlans != 0 || stats.ScanRows != 0 {
		t.Errorf("empty guard: skipped %d rule evaluations, compiled %d plans, scanned %d rows; want 2, 0, 0",
			stats.SkippedRuleEvals, stats.CompiledPlans, stats.ScanRows)
	}
}
