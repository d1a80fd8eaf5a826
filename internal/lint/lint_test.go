package lint

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// check parses rules+facts+queries from src and lints them.
func check(t *testing.T, src string, auto bool) []Diagnostic {
	t.Helper()
	unit, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return Check(unit.Program(), Options{
		Queries:        unit.Queries,
		Facts:          unit.Facts,
		AutoQueryForms: auto,
	})
}

func byCode(diags []Diagnostic, code string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

func TestCleanProgram(t *testing.T) {
	diags := check(t, `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
par(john, mary).
?- anc(john, Y).
`, false)
	for _, d := range diags {
		if d.Severity != Info {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestArityConflict(t *testing.T) {
	diags := check(t, "anc(X, Y) :- par(X, Y).\nanc(X, Y, Z) :- par(X, Y), par(Y, Z).\n", false)
	got := byCode(diags, CodeArityConflict)
	if len(got) != 1 {
		t.Fatalf("got %d arity diagnostics, want 1: %v", len(got), diags)
	}
	d := got[0]
	if d.Severity != Error {
		t.Errorf("severity = %v, want error", d.Severity)
	}
	if d.Pos != (ast.Pos{Line: 2, Col: 1}) {
		t.Errorf("pos = %v, want 2:1", d.Pos)
	}
	if len(d.Related) != 1 || d.Related[0].Pos != (ast.Pos{Line: 1, Col: 1}) {
		t.Errorf("related = %v, want the 1:1 site", d.Related)
	}
}

func TestTypoSuggestion(t *testing.T) {
	diags := check(t, `
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestr(Z, Y).
parent(john, mary).
`, false)
	got := byCode(diags, CodeUndefinedPred)
	if len(got) != 1 {
		t.Fatalf("got %v", diags)
	}
	if !strings.Contains(got[0].Message, "did you mean ancestor?") {
		t.Errorf("message = %q", got[0].Message)
	}
	if got[0].Pos != (ast.Pos{Line: 3, Col: 33}) {
		t.Errorf("pos = %v, want 3:33", got[0].Pos)
	}
	// parent is backed by a fact: no base-predicate info for it.
	if infos := byCode(diags, CodeBasePred); len(infos) != 0 {
		t.Errorf("unexpected base-predicate infos: %v", infos)
	}
}

func TestBasePredicateInfo(t *testing.T) {
	diags := check(t, "anc(X, Y) :- par(X, Y).\n", false)
	got := byCode(diags, CodeBasePred)
	if len(got) != 1 || got[0].Severity != Info {
		t.Fatalf("got %v", diags)
	}
}

func TestSingletonVariable(t *testing.T) {
	diags := check(t, "q(X) :- p(X, Y).\nq(X) :- r(X, _Ignore).\n", false)
	got := byCode(diags, CodeSingletonVar)
	if len(got) != 1 {
		t.Fatalf("got %v", diags)
	}
	if !strings.Contains(got[0].Message, "variable Y") || got[0].Pos != (ast.Pos{Line: 1, Col: 14}) {
		t.Errorf("diag = %s", got[0])
	}
	// A variable repeated inside one argument is not a singleton.
	diags = check(t, "q(X) :- p(f(X, X)).\n", false)
	if got := byCode(diags, CodeSingletonVar); len(got) != 0 {
		t.Errorf("repeated-in-one-arg flagged: %v", got)
	}
}

func TestRangeRestriction(t *testing.T) {
	diags := check(t, "q(X, W) :- p(X).\n", false)
	got := byCode(diags, CodeHeadOnlyVar)
	if len(got) != 1 {
		t.Fatalf("got %v", diags)
	}
	if !strings.Contains(got[0].Message, "head variable W") || got[0].Pos != (ast.Pos{Line: 1, Col: 6}) {
		t.Errorf("diag = %s", got[0])
	}
}

func TestDisconnectedRule(t *testing.T) {
	diags := check(t, "q(X) :- p(X), r(Y, Z).\n", false)
	if got := byCode(diags, CodeDisconnected); len(got) != 1 {
		t.Fatalf("got %v", diags)
	}
}

func TestUnreachableRules(t *testing.T) {
	diags := check(t, `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
orphan(X, Y) :- par(X, Y).
orphan(X, Y) :- orphan(Y, X).
?- anc(john, Y).
`, false)
	got := byCode(diags, CodeUnreachable)
	if len(got) != 1 {
		t.Fatalf("got %v", diags)
	}
	d := got[0]
	if !strings.Contains(d.Message, "orphan") || d.Pos != (ast.Pos{Line: 4, Col: 1}) {
		t.Errorf("diag = %s", d)
	}
	if len(d.Related) != 1 || d.Related[0].Pos != (ast.Pos{Line: 5, Col: 1}) {
		t.Errorf("related = %v", d.Related)
	}
	// Without a query there is no reachability notion.
	diags = check(t, "orphan(X, Y) :- par(X, Y).\n", false)
	if got := byCode(diags, CodeUnreachable); len(got) != 0 {
		t.Errorf("unreachable without query: %v", got)
	}
}

func TestNegationDiagnostics(t *testing.T) {
	// Stratifiable: negation of a predicate from a lower stratum.
	diags := check(t, `
reach(X) :- start(X).
reach(Y) :- reach(X), edge(X, Y).
unreach(X) :- node(X), !reach(X).
`, false)
	if got := byCode(diags, CodeNegation); len(got) != 1 {
		t.Fatalf("got %v", diags)
	}
	if got := byCode(diags, CodeUnstratifiable); len(got) != 0 {
		t.Errorf("stratifiable program flagged unstratifiable: %v", got)
	}
	// Unstratifiable: p negated inside its own recursive component.
	diags = check(t, "p(X) :- q(X), !r(X).\nr(X) :- p(X).\n", false)
	got := byCode(diags, CodeUnstratifiable)
	if len(got) != 1 {
		t.Fatalf("got %v", diags)
	}
	if got[0].Pos != (ast.Pos{Line: 1, Col: 16}) {
		t.Errorf("pos = %v, want 1:16", got[0].Pos)
	}
}

func TestBadQuery(t *testing.T) {
	diags := check(t, `
anc(X, Y) :- par(X, Y).
?- ance(john, Y).
`, false)
	got := byCode(diags, CodeBadQuery)
	if len(got) != 1 {
		t.Fatalf("got %v", diags)
	}
	if !strings.Contains(got[0].Message, "did you mean anc?") || got[0].Pos != (ast.Pos{Line: 3, Col: 4}) {
		t.Errorf("diag = %s", got[0])
	}
}

// TestDivergencePrediction pins the Theorem 10.3 pass on the paper's
// programs: the nonlinear ancestor diverges under counting for a^bf, the
// linear ancestor and the nested same-generation program do not.
func TestDivergencePrediction(t *testing.T) {
	nonlinear := `
a(X, Y) :- p(X, Y).
a(X, Y) :- a(X, Z), a(Z, Y).
?- a(c, Y).
`
	diags := check(t, nonlinear, false)
	got := byCode(diags, CodeCountingDiverges)
	if len(got) != 1 {
		t.Fatalf("got %v", diags)
	}
	d := got[0]
	if d.Severity != Warning {
		t.Errorf("severity = %v", d.Severity)
	}
	if d.Pos != (ast.Pos{Line: 4, Col: 4}) {
		t.Errorf("pos = %v, want the query at 4:4", d.Pos)
	}
	if len(d.Related) != 1 || d.Related[0].Pos != (ast.Pos{Line: 3, Col: 1}) {
		t.Errorf("related = %v, want the recursive rule at 3:1", d.Related)
	}
	if !strings.Contains(d.Message, "a^bf") || !strings.Contains(d.Message, "Theorem 10.3") {
		t.Errorf("message = %q", d.Message)
	}

	for _, src := range []string{
		"a(X, Y) :- p(X, Y).\na(X, Y) :- p(X, Z), a(Z, Y).\n?- a(c, Y).\n",
		`
p(X, Y) :- b1(X, Y).
p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).
?- p(c, Y).
`,
	} {
		if got := byCode(check(t, src, false), CodeCountingDiverges); len(got) != 0 {
			t.Errorf("safe program flagged: %v", got)
		}
	}
}

// TestAutoQueryForms: with no explicit query, the canonical bound-first
// forms are analyzed, so compiling the nonlinear ancestor alone still
// surfaces the divergence warning — anchored at the recursive rule.
func TestAutoQueryForms(t *testing.T) {
	diags := check(t, "a(X, Y) :- p(X, Y).\na(X, Y) :- a(X, Z), a(Z, Y).\n", true)
	got := byCode(diags, CodeCountingDiverges)
	if len(got) != 1 {
		t.Fatalf("got %v", diags)
	}
	if got[0].Pos != (ast.Pos{Line: 2, Col: 1}) {
		t.Errorf("pos = %v, want the recursive rule at 2:1", got[0].Pos)
	}
	// Auto forms are off by default.
	diags = check(t, "a(X, Y) :- p(X, Y).\na(X, Y) :- a(X, Z), a(Z, Y).\n", false)
	if got := byCode(diags, CodeCountingDiverges); len(got) != 0 {
		t.Errorf("auto forms ran without the option: %v", got)
	}
}

// TestMagicUnsafe pins DL0013 on the function-symbol program whose
// binding-graph cycle has length zero.
func TestMagicUnsafe(t *testing.T) {
	diags := check(t, `
loop(X, Y) :- edge(X, Y).
loop(X, Y) :- loop(X, Z), edge(Z, Y).
wrap(X, Y) :- loop(f(X), Y).
?- loop(f(c), Y).
`, false)
	if got := byCode(diags, CodeMagicUnsafe); len(got) != 1 {
		t.Fatalf("got %v", diags)
	}
	// Datalog programs are always magic-safe (Theorem 10.2).
	diags = check(t, "a(X, Y) :- p(X, Y).\na(X, Y) :- a(X, Z), a(Z, Y).\n?- a(c, Y).\n", false)
	if got := byCode(diags, CodeMagicUnsafe); len(got) != 0 {
		t.Errorf("Datalog flagged magic-unsafe: %v", got)
	}
}

func TestQueryCheck(t *testing.T) {
	unit, err := parser.Parse("a(X, Y) :- p(X, Y).\na(X, Y) :- a(X, Z), a(Z, Y).\n")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery("a(c, Y)")
	if err != nil {
		t.Fatal(err)
	}
	diags := QueryCheck(unit.Program(), q)
	if got := byCode(diags, CodeCountingDiverges); len(got) != 1 {
		t.Fatalf("got %v", diags)
	}
	// The fully-free form has no bound argument: no divergence possible.
	q, err = parser.ParseQuery("a(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if diags := QueryCheck(unit.Program(), q); len(diags) != 0 {
		t.Errorf("free form: %v", diags)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Code: CodeSingletonVar, Severity: Warning, Pos: ast.Pos{Line: 3, Col: 7}, Message: "variable Y occurs only once"}
	if got := d.String(); got != "3:7: warning: variable Y occurs only once [DL0005]" {
		t.Errorf("String() = %q", got)
	}
}
