package eval

// Differential (property) tests for the compiled join pipelines: on
// randomized programs and databases, the compiled ID-space executor must
// compute exactly the fixpoint of the substitution-based reference oracle
// (termspace_test.go), with identical fact counts. The generators cover the
// shapes the paper's rewritings
// produce: ancestor and same-generation recursion, magic guards, compound
// (list) destructuring, and the compound index fields of the counting
// rewritings, plus purely random flat rules with shared, repeated and
// constant arguments.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/parser"
	"repro/internal/rewrite"
	"repro/internal/rewrite/counting"
	gms "repro/internal/rewrite/magic"
	"repro/internal/rewrite/supmagic"
	"repro/internal/sip"
	"repro/internal/workload"
)

// assertSameFixpoint evaluates the program with the compiled executor and
// with the term-space oracle, and fails the test unless both agree.
func assertSameFixpoint(t *testing.T, label string, prog *ast.Program, edb *database.Store, opts Options) {
	t.Helper()

	compiledStore, compiledStats, err := semiNaive(prog, edb, opts)
	if err != nil {
		t.Fatalf("%s: compiled semi-naive: %v", label, err)
	}
	ref, err := termSpaceNaive(prog, edb)
	if err != nil {
		t.Fatalf("%s: term-space naive: %v", label, err)
	}
	want := ref.store.String()

	if got := compiledStore.String(); got != want {
		t.Fatalf("%s: compiled and term-space fixpoints differ\ncompiled:\n%s\nterm-space:\n%s", label, got, want)
	}
	if compiledStats.NewFacts != ref.newFacts {
		t.Errorf("%s: NewFacts: compiled %d, term-space %d", label, compiledStats.NewFacts, ref.newFacts)
	}
	// Derivations is not compared: it depends on the strategy, and even
	// between two runs of one strategy a reordered rule probing its own head
	// predicate can see facts inserted earlier in the same pass (lead_test.go
	// compares it where it is order-independent). The fixpoint and the fact
	// counts are order-independent and must match exactly.
	for key, n := range ref.factsByPredicate(prog) {
		if got := compiledStore.FactCount(key); got != n {
			t.Errorf("%s: facts for %s: compiled %d, term-space %d", label, key, got, n)
		}
	}
	// A program whose every rule has an empty body relation is skipped whole
	// and compiles nothing; one that derived a fact must have compiled.
	if compiledStats.CompiledPlans == 0 && compiledStats.NewFacts > 0 {
		t.Errorf("%s: compiled evaluation reports no compiled plans", label)
	}
}

// assertSameError requires the compiled executor and the oracle to reject the
// program, each with its own form of the same error.
func assertSameError(t *testing.T, label string, prog *ast.Program, edb *database.Store, compiled func(error) bool, oracleErr error) {
	t.Helper()
	if _, _, err := semiNaive(prog, edb, Options{}); err == nil || !compiled(err) {
		t.Errorf("%s: compiled semi-naive err = %v", label, err)
	}
	if _, err := termSpaceNaive(prog, edb); !errors.Is(err, oracleErr) {
		t.Errorf("%s: term-space err = %v, want %v", label, err, oracleErr)
	}
}

// randomEdge draws a random par-style edge store over n nodes.
func randomEdgeStore(rng *rand.Rand, pred string, nodes, edges int) *database.Store {
	edb := database.NewStore()
	for i := 0; i < edges; i++ {
		a := rng.Intn(nodes)
		b := rng.Intn(nodes)
		edb.MustAddFact(ast.NewAtom(pred, ast.S(fmt.Sprintf("n%d", a)), ast.S(fmt.Sprintf("n%d", b))))
	}
	return edb
}

// TestDifferentialAncestorShapes runs linear and nonlinear ancestor over
// random graphs (including cyclic ones).
func TestDifferentialAncestorShapes(t *testing.T) {
	programs := map[string]string{
		"linear": `
			a(X, Y) :- p(X, Y).
			a(X, Y) :- p(X, Z), a(Z, Y).
		`,
		"nonlinear": `
			a(X, Y) :- p(X, Y).
			a(X, Y) :- a(X, Z), a(Z, Y).
		`,
	}
	for name, src := range programs {
		prog := parser.MustParseProgram(src)
		for seed := 0; seed < 8; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			edb := randomEdgeStore(rng, "p", 4+rng.Intn(8), 6+rng.Intn(14))
			assertSameFixpoint(t, fmt.Sprintf("%s/seed=%d", name, seed), prog, edb, Options{})
		}
	}
}

// TestDifferentialSameGeneration runs the nonlinear same-generation program
// over random layered data.
func TestDifferentialSameGeneration(t *testing.T) {
	prog := parser.MustParseProgram(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).
	`)
	for seed := 0; seed < 4; seed++ {
		sg := workload.SameGenerationLayers(4+seed*2, 2+seed%2, seed%2 == 1)
		assertSameFixpoint(t, fmt.Sprintf("sg/seed=%d", seed), prog, sg.Store, Options{})
	}
}

// randomFlatProgram generates a random function-free program and database:
// one or two derived predicates over two base predicates, bodies of one to
// three literals with randomly shared, repeated and constant arguments.
func randomFlatProgram(rng *rand.Rand) (*ast.Program, *database.Store) {
	vars := []string{"X", "Y", "Z", "W"}
	consts := []string{"n0", "n1", "n2"}
	randTerm := func(canBeConst bool) ast.Term {
		if canBeConst && rng.Intn(5) == 0 {
			return ast.S(consts[rng.Intn(len(consts))])
		}
		return ast.V(vars[rng.Intn(len(vars))])
	}
	preds := []string{"p", "q", "d1", "d2"}
	var rules []ast.Rule
	for ri := 0; ri < 2+rng.Intn(3); ri++ {
		bodyLen := 1 + rng.Intn(3)
		var body []ast.Atom
		for bi := 0; bi < bodyLen; bi++ {
			pred := preds[rng.Intn(len(preds))]
			body = append(body, ast.NewAtom(pred, randTerm(true), randTerm(true)))
		}
		// A safe head: arguments drawn from the body's variables (or a
		// constant when the body happens to have none).
		bodyVars := ast.NewRule(ast.NewAtom("h"), body...).BodyVars()
		names := ast.SortedVarNames(bodyVars)
		headArg := func() ast.Term {
			if len(names) == 0 {
				return ast.S(consts[0])
			}
			return ast.V(names[rng.Intn(len(names))])
		}
		head := ast.NewAtom([]string{"d1", "d2"}[rng.Intn(2)], headArg(), headArg())
		rules = append(rules, ast.NewRule(head, body...))
	}
	edb := randomEdgeStore(rng, "p", 4, 8)
	for i := 0; i < 6; i++ {
		edb.MustAddFact(ast.NewAtom("q",
			ast.S(consts[rng.Intn(len(consts))]), ast.S(fmt.Sprintf("n%d", rng.Intn(4)))))
	}
	return ast.NewProgram(rules...), edb
}

// TestDifferentialRandomFlatRules runs random function-free programs.
func TestDifferentialRandomFlatRules(t *testing.T) {
	for seed := 0; seed < 30; seed++ {
		prog, edb := randomFlatProgram(rand.New(rand.NewSource(int64(100 + seed))))
		// Bound the occasional pathological blowup of the compiled runs (the
		// oracle has no limits; none of the seeds trips the bound).
		assertSameFixpoint(t, fmt.Sprintf("flat/seed=%d", seed), prog, edb, Options{MaxFacts: 20000})
	}
}

// rewriteFor adorns and rewrites a program for a query with the given
// rewriter, returning the rewritten program and a store extended with the
// seed facts.
func rewriteFor(t *testing.T, prog *ast.Program, query string, rw rewrite.Rewriter, edb *database.Store) (*ast.Program, *database.Store) {
	t.Helper()
	q := parser.MustParseQuery(query)
	ad, err := adorn.Adorn(prog, q, sip.FullLeftToRight())
	if err != nil {
		t.Fatal(err)
	}
	res, err := rw.Rewrite(ad)
	if err != nil {
		t.Fatal(err)
	}
	db := edb.Clone()
	for _, seed := range res.Seeds {
		if _, err := db.AddFact(seed); err != nil {
			t.Fatal(err)
		}
	}
	return res.Program, db
}

// rewrittenCase is one rewritten program over a store that already holds its
// seed facts.
type rewrittenCase struct {
	label string
	prog  *ast.Program
	db    *database.Store
}

// rewrittenCases returns ancestor and same-generation under the magic,
// supplementary-magic and counting rewritings (the latter exercising
// compound index fields and their destructuring, with and without the
// semijoin optimization) over acyclic data.
func rewrittenCases(t *testing.T) []rewrittenCase {
	t.Helper()
	ancestor := parser.MustParseProgram(`
		a(X, Y) :- p(X, Y).
		a(X, Y) :- p(X, Z), a(Z, Y).
	`)
	sgSrc := parser.MustParseProgram(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).
	`)
	rewriters := []struct {
		name string
		rw   rewrite.Rewriter
	}{
		{"magic", gms.New(gms.Options{})},
		{"supmagic", supmagic.New(supmagic.Options{})},
		{"counting", counting.New(counting.Options{})},
		{"counting-semijoin", counting.New(counting.Options{Semijoin: true})},
		{"supcounting", counting.NewSupplementary(counting.Options{})},
	}
	var cases []rewrittenCase
	for _, r := range rewriters {
		for seed := 0; seed < 3; seed++ {
			n := 6 + seed*3
			edb, _ := workload.ParentChain("p", n)
			query := fmt.Sprintf("a(n%d, Y)", 1+seed)
			prog, db := rewriteFor(t, ancestor, query, r.rw, edb)
			cases = append(cases, rewrittenCase{fmt.Sprintf("%s/anc/seed=%d", r.name, seed), prog, db})
		}
		sg := workload.SameGenerationLayers(4, 2, false)
		prog, db := rewriteFor(t, sgSrc, fmt.Sprintf("sg(%s, Y)", sg.Start), r.rw, sg.Store)
		cases = append(cases, rewrittenCase{r.name + "/sg", prog, db})
	}
	return cases
}

// TestDifferentialRewrittenPrograms checks the compiled executor against the
// reference on the rewritten programs.
func TestDifferentialRewrittenPrograms(t *testing.T) {
	for _, c := range rewrittenCases(t) {
		assertSameFixpoint(t, c.label, c.prog, c.db, Options{})
	}
}

// TestDifferentialListPrograms runs the magic-rewritten list append/reverse
// program (compound destructuring and construction in both body and head)
// against the reference.
func TestDifferentialListPrograms(t *testing.T) {
	listSrc := parser.MustParseProgram(`
		append(V, [], [V]) :- elem(V).
		append(V, [W | X], [W | Y]) :- append(V, X, Y).
		reverse([], []) :- emptylist(X).
		reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).
	`)
	for _, rw := range []rewrite.Rewriter{gms.New(gms.Options{}), supmagic.New(supmagic.Options{})} {
		for _, n := range []int{3, 5, 8} {
			wl := workload.List(n)
			query := fmt.Sprintf("reverse(%s, Y)", wl.List)
			prog, db := rewriteFor(t, listSrc, query, rw, wl.Store)
			assertSameFixpoint(t, fmt.Sprintf("list/n=%d", n), prog, db, Options{})
		}
	}
}

// TestDifferentialArithmeticBodies covers hand-written shapes of the
// counting rewritings' successor arithmetic, built with the AST
// constructors the way the rewriters build them: an unbounded successor
// counter stopped by a limit, and an unsafe head.
func TestDifferentialArithmeticBodies(t *testing.T) {
	// Upward counter with a bound (the oracle would not terminate): eight
	// rounds derive nat(s(0))..nat(s⁸(0)), the ninth trips the limit.
	nat := ast.NewProgram(ast.NewRule(
		ast.NewAtom("nat", ast.C("s", ast.V("N"))),
		ast.NewAtom("nat", ast.V("N")),
	))
	nedb := database.NewStore()
	nedb.MustAddFact(ast.NewAtom("nat", ast.I(0)))
	_, stats, err := semiNaive(nat, nedb, Options{MaxIterations: 8})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("bounded counter: err = %v, want ErrLimitExceeded", err)
	}
	if stats.NewFacts != 8 {
		t.Errorf("bounded counter NewFacts = %d, want 8", stats.NewFacts)
	}

	// A head variable the body does not bind: firing the rule is an error.
	unsafe := ast.NewProgram(ast.NewRule(
		ast.NewAtom("r", ast.V("X"), ast.V("W")),
		ast.NewAtom("p", ast.V("X")),
	))
	uedb := database.NewStore()
	uedb.MustAddFact(ast.NewAtom("p", ast.S("a")))
	assertSameError(t, "non-ground head", unsafe, uedb,
		func(err error) bool { return errors.Is(err, ErrNonGroundFact) }, errOracleNonGround)
}
