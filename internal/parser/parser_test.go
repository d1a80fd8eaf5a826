package parser

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ast"
)

func TestParseAncestorProgram(t *testing.T) {
	src := `
		% the ancestor program of Section 1
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 2 {
		t.Fatalf("expected 2 rules, got %d", len(prog.Rules))
	}
	want := "anc(X, Y) :- par(X, Z), anc(Z, Y)."
	if prog.Rules[1].String() != want {
		t.Errorf("rule 1 = %q, want %q", prog.Rules[1].String(), want)
	}
	if err := prog.Validate(true); err != nil {
		t.Errorf("parsed program should validate: %v", err)
	}
}

func TestParseFactsRulesAndQueries(t *testing.T) {
	src := `
		par(john, mary).
		par(mary, sue).
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
		?- anc(john, Y).
	`
	unit, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(unit.Facts) != 2 || len(unit.Rules) != 2 || len(unit.Queries) != 1 {
		t.Fatalf("facts=%d rules=%d queries=%d", len(unit.Facts), len(unit.Rules), len(unit.Queries))
	}
	if unit.Queries[0].String() != "anc(john, Y)?" {
		t.Errorf("query = %s", unit.Queries[0])
	}
	if unit.Facts[0].String() != "par(john, mary)" {
		t.Errorf("fact = %s", unit.Facts[0])
	}
	if got := unit.Program().Rules; len(got) != 2 {
		t.Errorf("Program() lost rules: %d", len(got))
	}
}

func TestParseListSyntax(t *testing.T) {
	src := `
		append(V, [], [V]) :- elem(V).
		append(V, [W | X], [W | Y]) :- append(V, X, Y).
		reverse([], []) :- true.
		reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).
	`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 4 {
		t.Fatalf("expected 4 rules, got %d", len(prog.Rules))
	}
	if prog.IsDatalog() {
		t.Error("list program must not be classified as Datalog")
	}
	r := prog.Rules[1]
	if r.String() != "append(V, [W | X], [W | Y]) :- append(V, X, Y)." {
		t.Errorf("list rule rendered as %q", r.String())
	}
}

func TestParseTermVariants(t *testing.T) {
	cases := []struct {
		src  string
		want ast.Term
	}{
		{"X", ast.V("X")},
		{"_G1", ast.V("_G1")},
		{"john", ast.S("john")},
		{"'New York'", ast.S("New York")},
		{"42", ast.I(42)},
		{"-7", ast.I(-7)},
		{"f(X, a)", ast.C("f", ast.V("X"), ast.S("a"))},
		{"[]", ast.Nil()},
		{"[a, b]", ast.List(ast.S("a"), ast.S("b"))},
		{"[a | T]", ast.Cons(ast.S("a"), ast.V("T"))},
		{"[f(X), 3 | T]", ast.Cons(ast.C("f", ast.V("X")), ast.Cons(ast.I(3), ast.V("T")))},
		{"g()", ast.C("g")},
	}
	for _, tc := range cases {
		got, err := ParseTerm(tc.src)
		if err != nil {
			t.Errorf("ParseTerm(%q): %v", tc.src, err)
			continue
		}
		if !ast.Equal(got, tc.want) {
			t.Errorf("ParseTerm(%q) = %s, want %s", tc.src, got, tc.want)
		}
	}
}

func TestParseQuery(t *testing.T) {
	q, err := ParseQuery("?- sg(john, Y).")
	if err != nil {
		t.Fatal(err)
	}
	if q.Adornment() != "bf" {
		t.Errorf("adornment = %s", q.Adornment())
	}
	q2, err := ParseQuery("reverse([a, b, c], Y)")
	if err != nil {
		t.Fatal(err)
	}
	if q2.Adornment() != "bf" {
		t.Errorf("adornment = %s", q2.Adornment())
	}
	if _, err := ParseQuery("p(f(X), Y)"); err == nil {
		t.Error("partially instantiated query argument should be rejected")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"anc(X, Y) :- par(X, Y)",    // missing dot
		"anc(X, Y :- par(X, Y).",    // missing close paren
		"anc(X,, Y) :- par(X, Y).",  // double comma
		":- par(X, Y).",             // missing head
		"anc(X, Y) := par(X, Y).",   // bad operator
		"p(X) :- q(X). trailing",    // trailing garbage after program text is another clause start; force error with symbol
		"p('unterminated) :- q(X).", // unterminated quote
		"p(X) :- q([a, b | ).",      // bad list
		"p(?).",                     // stray ?
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
	// Non-ground facts violate WF.
	if _, err := Parse("par(X, mary)."); err == nil || !strings.Contains(err.Error(), "not ground") {
		t.Errorf("non-ground fact should be rejected, got %v", err)
	}
}

func TestParseProgramRejectsFactsAndQueries(t *testing.T) {
	if _, err := ParseProgram("par(a, b)."); err == nil {
		t.Error("ParseProgram must reject facts")
	}
	if _, err := ParseProgram("?- p(X)."); err == nil {
		t.Error("ParseProgram must reject queries")
	}
}

func TestParseRuleAndAtom(t *testing.T) {
	a, err := ParseAtom("magic_sg(john)")
	if err != nil {
		t.Fatal(err)
	}
	if a.Pred != "magic_sg" || len(a.Args) != 1 {
		t.Errorf("atom = %s", a)
	}
	if _, err := ParseAtom("p(X) extra"); err == nil {
		t.Error("trailing input after atom should be rejected")
	}
}

func TestParseComments(t *testing.T) {
	src := `
		/* block
		   comment */
		p(X) :- q(X). % trailing comment
		% whole-line comment
		q(X) :- r(X).
	`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 2 {
		t.Errorf("expected 2 rules, got %d", len(prog.Rules))
	}
}

func TestMustHelpersPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseProgram should panic on bad input")
		}
	}()
	MustParseProgram("p(X :- q(X).")
}

func TestMustHelpersOK(t *testing.T) {
	p := MustParseProgram("p(X, Y) :- q(X, Y).")
	if len(p.Rules) != 1 {
		t.Error("MustParseProgram lost the rule")
	}
	q := MustParseQuery("p(a, Y)")
	if q.Adornment() != "bf" {
		t.Error("MustParseQuery wrong")
	}
	u := MustParse("e(a, b). p(X, Y) :- e(X, Y). ?- p(a, Y).")
	if len(u.Facts) != 1 || len(u.Rules) != 1 || len(u.Queries) != 1 {
		t.Error("MustParse wrong")
	}
}

// TestRoundTripAppendixPrograms checks that printing and re-parsing the four
// Appendix A.1 programs is the identity on the AST.
func TestRoundTripAppendixPrograms(t *testing.T) {
	programs := []string{
		`a(X, Y) :- p(X, Y).
		 a(X, Y) :- p(X, Z), a(Z, Y).`,
		`a(X, Y) :- p(X, Y).
		 a(X, Y) :- a(X, Z), a(Z, Y).`,
		`p(X, Y) :- b1(X, Y).
		 p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
		 sg(X, Y) :- flat(X, Y).
		 sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).`,
		`append(V, [], [V | []]) :- elem(V).
		 append(V, [W | X], [W | Y]) :- append(V, X, Y).
		 reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).`,
	}
	for i, src := range programs {
		p1, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		p2, err := ParseProgram(p1.String())
		if err != nil {
			t.Fatalf("program %d re-parse: %v", i, err)
		}
		if p1.String() != p2.String() {
			t.Errorf("program %d round trip mismatch:\n%s\nvs\n%s", i, p1, p2)
		}
	}
}

// TestQuickTermRoundTrip: printing and re-parsing a random term yields an
// equal term (for terms built from the parser-friendly vocabulary).
func TestQuickTermRoundTrip(t *testing.T) {
	f := func(seed uint32) bool {
		tm := randomParseableTerm(int(seed), 3)
		parsed, err := ParseTerm(tm.String())
		if err != nil {
			return false
		}
		return ast.Equal(parsed, tm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// randomParseableTerm deterministically builds a term from a seed using only
// constructs the concrete syntax can express.
func randomParseableTerm(seed, depth int) ast.Term {
	next := func() int {
		seed = seed*1103515245 + 12345
		if seed < 0 {
			seed = -seed
		}
		return seed
	}
	var build func(d int) ast.Term
	build = func(d int) ast.Term {
		if d == 0 {
			switch next() % 3 {
			case 0:
				return ast.V([]string{"X", "Y", "Z"}[next()%3])
			case 1:
				return ast.S([]string{"a", "b", "c"}[next()%3])
			default:
				return ast.I(int64(next() % 10))
			}
		}
		switch next() % 5 {
		case 0:
			return ast.V([]string{"X", "Y", "Z"}[next()%3])
		case 1:
			return ast.S([]string{"a", "b", "c"}[next()%3])
		case 2:
			return ast.I(int64(next() % 10))
		case 3:
			n := 1 + next()%2
			args := make([]ast.Term, n)
			for i := range args {
				args[i] = build(d - 1)
			}
			return ast.C([]string{"f", "g"}[next()%2], args...)
		default:
			n := next() % 3
			elems := make([]ast.Term, n)
			for i := range elems {
				elems[i] = build(d - 1)
			}
			return ast.List(elems...)
		}
	}
	return build(depth)
}
