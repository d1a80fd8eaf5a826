package datalog_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/datalog"
)

// The test programs: the Appendix A.1 problems and the running example, in
// the repository's concrete syntax.
const (
	ancestorSrc = `
		a(X, Y) :- p(X, Y).
		a(X, Y) :- p(X, Z), a(Z, Y).
	`
	nonlinearAncestorSrc = `
		a(X, Y) :- p(X, Y).
		a(X, Y) :- a(X, Z), a(Z, Y).
	`
	nestedSameGenSrc = `
		p(X, Y) :- b1(X, Y).
		p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).
	`
	listReverseSrc = `
		append(V, [], [V]) :- elem(V).
		append(V, [W | X], [W | Y]) :- append(V, X, Y).
		reverse([], []) :- emptylist(X).
		reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).
	`
	nonlinearSameGenSrc = `
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).
	`
)

// fixture is the external-package twin of the in-package test fixture: a
// compiled program and its database, read through snapshots only.
type fixture struct {
	prog *datalog.Program
	db   *datalog.Database
}

func newFixture(t testing.TB, src string) fixture {
	t.Helper()
	prog, err := datalog.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return fixture{prog, datalog.NewDatabase()}
}

func (f fixture) snap() *datalog.Snapshot { return f.db.Snapshot().With(f.prog) }

// assertChain adds a parent chain n0 -> ... -> n(length) to the database.
func assertChain(t testing.TB, fx fixture, pred string, length int) {
	t.Helper()
	for i := 0; i < length; i++ {
		if err := fx.db.Assert(pred, fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
}

// assertLayers adds an acyclic up/flat/down same-generation structure.
func assertLayers(t testing.TB, fx fixture, leaves, depth int) {
	t.Helper()
	name := func(layer, i int) string { return fmt.Sprintf("l%d_%d", layer, i) }
	for layer := 0; layer < depth; layer++ {
		for i := 0; i < leaves; i++ {
			if err := fx.db.Assert("up", name(layer, i), name(layer+1, i)); err != nil {
				t.Fatal(err)
			}
			if err := fx.db.Assert("down", name(layer+1, i), name(layer, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for layer := 0; layer <= depth; layer++ {
		for i := 0; i < leaves-1; i++ {
			if err := fx.db.Assert("flat", name(layer, i), name(layer, i+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// rewritingStrategies are the strategies that rewrite the program; together
// with the three baseline strategies they cover the whole design space.
var rewritingStrategies = []datalog.Options{
	{Strategy: datalog.MagicSets, Sip: datalog.SipFull},
	{Strategy: datalog.MagicSets, Sip: datalog.SipPartial},
	{Strategy: datalog.MagicSets, KeepAllGuards: true},
	{Strategy: datalog.SupplementaryMagicSets},
	{Strategy: datalog.Counting},
	{Strategy: datalog.Counting, Semijoin: true},
	{Strategy: datalog.SupplementaryCounting},
	{Strategy: datalog.SupplementaryCounting, Semijoin: true},
}

func optionsName(o datalog.Options) string {
	n := string(o.Strategy)
	if o.Sip == datalog.SipPartial {
		n += "/partial-sip"
	}
	if o.Semijoin {
		n += "/semijoin"
	}
	if o.KeepAllGuards {
		n += "/all-guards"
	}
	return n
}

// checkAgreement runs the query under every rewriting strategy and the
// top-down oracle and verifies that all answer sets coincide with the
// semi-naive baseline (the equivalence theorems 3.1, 4.1, 5.1, 6.1 and 7.1
// chained together). Strategies listed in skip are exempted (e.g. counting
// on data where it diverges); they must instead fail with ErrLimitExceeded
// when given a bound.
func checkAgreement(t *testing.T, fx fixture, query string, skip map[datalog.Strategy]bool) {
	t.Helper()
	baseline, err := fx.snap().Query(query, datalog.Options{Strategy: datalog.SemiNaive})
	if err != nil {
		t.Fatalf("semi-naive baseline: %v", err)
	}
	want := baseline.AnswerSet()
	if len(want) == 0 {
		t.Fatalf("baseline returned no answers for %s; bad test data", query)
	}
	if td, err := datalog.TopDownAnswers(fx.snap(), query, datalog.Options{}); err != nil || !reflect.DeepEqual(td, want) {
		t.Errorf("top-down oracle = %v (err %v), want %v", td, err, want)
	}
	for _, opts := range rewritingStrategies {
		opts.MaxIterations = 2000
		if skip[opts.Strategy] {
			// Divergent strategy on this workload: bound both the iteration
			// count and the fact count so the run stays cheap, and require
			// the limit to trip. DivergenceRun forces the divergent counting
			// evaluation where the static analysis would otherwise fall back
			// to the magic rewriting (Options.OnDivergence default).
			opts.OnDivergence = datalog.DivergenceRun
			opts.MaxIterations = 25
			opts.MaxFacts = 20000
			_, err := fx.snap().Query(query, opts)
			if !errors.Is(err, datalog.ErrLimitExceeded) {
				t.Errorf("%s: expected ErrLimitExceeded on this workload, got %v", optionsName(opts), err)
			}
			continue
		}
		res, err := fx.snap().Query(query, opts)
		if err != nil {
			t.Errorf("%s: %v", optionsName(opts), err)
			continue
		}
		got := res.AnswerSet()
		if len(got) != len(want) {
			t.Errorf("%s: %d answers, want %d", optionsName(opts), len(got), len(want))
			continue
		}
		for k := range want {
			if !got[k] {
				t.Errorf("%s: missing answer %s", optionsName(opts), k)
			}
		}
	}
}

func TestIntegrationAncestorChain(t *testing.T) {
	fx := newFixture(t, ancestorSrc)
	assertChain(t, fx, "p", 25)
	checkAgreement(t, fx, "a(n7, Y)", nil)
}

func TestIntegrationAncestorTree(t *testing.T) {
	fx := newFixture(t, ancestorSrc)
	// A binary tree of depth 5 rooted at r.
	var addTree func(node string, depth int)
	id := 0
	addTree = func(node string, depth int) {
		if depth == 0 {
			return
		}
		for c := 0; c < 2; c++ {
			id++
			child := fmt.Sprintf("t%d", id)
			if err := fx.db.Assert("p", node, child); err != nil {
				t.Fatal(err)
			}
			addTree(child, depth-1)
		}
	}
	addTree("r", 5)
	checkAgreement(t, fx, "a(r, Y)", nil)
}

func TestIntegrationNonlinearAncestor(t *testing.T) {
	fx := newFixture(t, nonlinearAncestorSrc)
	assertChain(t, fx, "p", 7)
	// Theorem 10.3: counting diverges for the nonlinear ancestor program
	// regardless of the data; every other strategy agrees with semi-naive.
	checkAgreement(t, fx, "a(n2, Y)", map[datalog.Strategy]bool{
		datalog.Counting:              true,
		datalog.SupplementaryCounting: true,
	})
}

func TestIntegrationNestedSameGeneration(t *testing.T) {
	fx := newFixture(t, nestedSameGenSrc)
	assertLayers(t, fx, 6, 3)
	for i := 0; i < 6; i++ {
		if err := fx.db.Assert("b1", fmt.Sprintf("l0_%d", i), fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := fx.db.Assert("b2", fmt.Sprintf("m%d", i), fmt.Sprintf("o%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	checkAgreement(t, fx, "p(l0_0, Y)", nil)
}

func TestIntegrationNonlinearSameGeneration(t *testing.T) {
	fx := newFixture(t, nonlinearSameGenSrc)
	assertLayers(t, fx, 10, 3)
	checkAgreement(t, fx, "sg(l0_0, Y)", nil)
}

func TestIntegrationListReverse(t *testing.T) {
	fx := newFixture(t, listReverseSrc)
	if err := fx.db.AssertText("elem(a). elem(b). elem(c). elem(d). elem(e). emptylist(nil)."); err != nil {
		t.Fatal(err)
	}
	// The unrewritten program is unsafe bottom-up, so compare the rewriting
	// strategies against the known answer instead of the semi-naive baseline.
	want := "([e, d, c, b, a])"
	if td, err := datalog.TopDownAnswers(fx.snap(), "reverse([a, b, c, d, e], Y)", datalog.Options{}); err != nil || !reflect.DeepEqual(td, map[string]bool{want: true}) {
		t.Errorf("top-down oracle: answers = %v (err %v), want %s", td, err, want)
	}
	for _, opts := range rewritingStrategies {
		opts.MaxIterations = 500
		res, err := fx.snap().Query("reverse([a, b, c, d, e], Y)", opts)
		if err != nil {
			t.Errorf("%s: %v", optionsName(opts), err)
			continue
		}
		if len(res.Answers) != 1 || res.Answers[0].String() != want {
			t.Errorf("%s: answers = %v, want %s", optionsName(opts), res.Answers, want)
		}
	}
}

// TestIntegrationRandomGraphs is a property test over pseudo-random cyclic
// graphs: semi-naive, the top-down oracle, magic and supplementary magic
// always agree on the reachable set (counting is excluded because cyclic data may
// legitimately make it diverge).
func TestIntegrationRandomGraphs(t *testing.T) {
	f := func(seed uint16) bool {
		fx := newFixture(t, ancestorSrc)
		state := int64(seed)*99991 + 7
		next := func(m int) int {
			state = state*6364136223846793005 + 1442695040888963407
			v := state >> 17
			if v < 0 {
				v = -v
			}
			return int(v % int64(m))
		}
		nodes := 6 + next(5)
		edges := 8 + next(10)
		for i := 0; i < edges; i++ {
			if err := fx.db.Assert("p", fmt.Sprintf("v%d", next(nodes)), fmt.Sprintf("v%d", next(nodes))); err != nil {
				return false
			}
		}
		query := fmt.Sprintf("a(v%d, Y)", next(nodes))
		baseline, err := fx.snap().Query(query, datalog.Options{Strategy: datalog.SemiNaive})
		if err != nil {
			return false
		}
		want := baseline.AnswerSet()
		if td, err := datalog.TopDownAnswers(fx.snap(), query, datalog.Options{}); err != nil || !reflect.DeepEqual(td, want) {
			return false
		}
		for _, opts := range []datalog.Options{
			{Strategy: datalog.MagicSets},
			{Strategy: datalog.MagicSets, Sip: datalog.SipPartial},
			{Strategy: datalog.SupplementaryMagicSets},
		} {
			res, err := fx.snap().Query(query, opts)
			if err != nil {
				return false
			}
			got := res.AnswerSet()
			if len(got) != len(want) {
				return false
			}
			for k := range want {
				if !got[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestIntegrationRandomDAGsWithCounting is the same property restricted to
// acyclic graphs (edges always go from lower to higher node numbers), where
// the counting strategies must also terminate and agree.
func TestIntegrationRandomDAGsWithCounting(t *testing.T) {
	f := func(seed uint16) bool {
		fx := newFixture(t, ancestorSrc)
		state := int64(seed)*104729 + 13
		next := func(m int) int {
			state = state*6364136223846793005 + 1442695040888963407
			v := state >> 17
			if v < 0 {
				v = -v
			}
			return int(v % int64(m))
		}
		nodes := 7 + next(5)
		edges := 10 + next(8)
		for i := 0; i < edges; i++ {
			a := next(nodes - 1)
			b := a + 1 + next(nodes-a-1)
			if err := fx.db.Assert("p", fmt.Sprintf("v%d", a), fmt.Sprintf("v%d", b)); err != nil {
				return false
			}
		}
		query := "a(v0, Y)"
		baseline, err := fx.snap().Query(query, datalog.Options{Strategy: datalog.SemiNaive})
		if err != nil {
			return false
		}
		want := baseline.AnswerSet()
		if len(want) == 0 {
			return true // v0 has no outgoing edges in this sample
		}
		for _, opts := range []datalog.Options{
			{Strategy: datalog.Counting, MaxIterations: 500},
			{Strategy: datalog.Counting, Semijoin: true, MaxIterations: 500},
			{Strategy: datalog.SupplementaryCounting, MaxIterations: 500},
			{Strategy: datalog.SupplementaryCounting, Semijoin: true, MaxIterations: 500},
		} {
			res, err := fx.snap().Query(query, opts)
			if err != nil {
				return false
			}
			got := res.AnswerSet()
			if len(got) != len(want) {
				return false
			}
			for k := range want {
				if !got[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestIntegrationProgramReuse runs several different queries (and binding
// patterns) against one program and database to check there is no
// cross-query state leakage.
func TestIntegrationProgramReuse(t *testing.T) {
	fx := newFixture(t, ancestorSrc)
	assertChain(t, fx, "p", 15)
	queries := []struct {
		q    string
		want int
	}{
		{"a(n0, Y)", 15},
		{"a(n10, Y)", 5},
		{"a(X, n3)", 3},
		{"a(n2, n9)", 1},
		{"a(n9, n2)", 0},
	}
	for _, tc := range queries {
		res, err := fx.snap().Query(tc.q, datalog.Options{Strategy: datalog.MagicSets})
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if len(res.Answers) != tc.want {
			t.Errorf("%s: %d answers, want %d", tc.q, len(res.Answers), tc.want)
		}
	}
	// Adding more facts after a query must be reflected by the next query.
	if err := fx.db.Assert("p", "n15", "n16"); err != nil {
		t.Fatal(err)
	}
	res, err := fx.snap().Query("a(n0, Y)", datalog.Options{Strategy: datalog.MagicSets})
	if err != nil || len(res.Answers) != 16 {
		t.Errorf("after adding a fact: %d answers, err %v", len(res.Answers), err)
	}
}

// TestIntegrationDescendantDirection queries the ancestor relation in the
// other direction (second argument bound), which exercises a different
// adornment (a^fb / a^bb) and its rewritings.
func TestIntegrationDescendantDirection(t *testing.T) {
	fx := newFixture(t, ancestorSrc)
	assertChain(t, fx, "p", 12)
	checkAgreement(t, fx, "a(X, n9)", nil)
}
