package rewrite

import (
	"strings"
	"testing"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/sip"
)

func adorned(t *testing.T, src, query string) *adorn.Program {
	t.Helper()
	ad, err := adorn.Adorn(parser.MustParseProgram(src), parser.MustParseQuery(query), sip.FullLeftToRight())
	if err != nil {
		t.Fatal(err)
	}
	return ad
}

// walkerFor returns the state of a magic-sets walk over ad.
func walkerFor(ad *adorn.Program) *walker {
	return &walker{Walk: &Walk{}, ad: ad, names: map[role]string{}, taken: map[string]bool{}, aux: map[string]string{}}
}

func TestMagicAtom(t *testing.T) {
	w := walkerFor(nil)
	a := ast.NewAdornedAtom("sg", "bf", ast.V("X"), ast.V("Y"))
	m := w.magic(a, nil)
	if m.Pred != "magic_sg" || m.Adorn != "bf" || len(m.Args) != 1 || m.Args[0].String() != "X" {
		t.Errorf("magic atom = %s", m)
	}
	if w.aux["magic_sg^bf"] != "sg^bf" {
		t.Errorf("aux predicates = %v", w.aux)
	}
	// All-free adornment yields a zero-arity magic atom.
	free := ast.NewAdornedAtom("p", "ff", ast.V("X"), ast.V("Y"))
	if got := w.magic(free, nil); len(got.Args) != 0 {
		t.Errorf("magic atom (ff) = %s", got)
	}
	// Multiple bound arguments keep their order.
	multi := ast.NewAdornedAtom("append", "bbf", ast.V("V"), ast.V("X"), ast.V("Y"))
	if got := w.magic(multi, nil); got.String() != "magic_append^bbf(V, X)" {
		t.Errorf("magic atom (bbf) = %s", got)
	}
}

func TestSeedAndHeadMagicAtom(t *testing.T) {
	ad := adorned(t, `
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`, "anc(john, Y)")
	res, err := (&Walk{}).Rewrite(ad)
	if err != nil {
		t.Fatal(err)
	}
	if seed := res.Seeds[0]; seed.String() != "magic_anc^bf(john)" {
		t.Errorf("seed = %s", seed)
	}
	if head := res.Program.Rules[len(res.Program.Rules)-1].Body[0]; head.String() != "magic_anc^bf(X)" {
		t.Errorf("head magic = %s", head)
	}
}

// TestIsDerivedOccurrence: only derived occurrences with a bound argument
// get magic rules.
func TestIsDerivedOccurrence(t *testing.T) {
	ad := adorned(t, `
		p(X, Y) :- e(X, Y).
		p(X, Y) :- e(X, Z), p(Z, Y).
	`, "p(a, Y)")
	w := walkerFor(ad)
	rule := ad.Rules[1].Rule
	if w.target(rule.Body[0]) {
		t.Error("e is a base predicate")
	}
	if !w.target(rule.Body[1]) {
		t.Error("p is a derived predicate")
	}
}

func TestValidateAdorned(t *testing.T) {
	if err := ValidateAdorned(nil); err == nil {
		t.Error("nil program must be rejected")
	}
	if err := ValidateAdorned(&adorn.Program{}); err == nil {
		t.Error("empty program must be rejected")
	}
	good := adorned(t, "p(X, Y) :- e(X, Y).", "p(a, Y)")
	if err := ValidateAdorned(good); err != nil {
		t.Errorf("valid adorned program rejected: %v", err)
	}
	// Rule without a sip.
	noSip := &adorn.Program{Rules: []adorn.Rule{{Rule: good.Rules[0].Rule}}}
	if err := ValidateAdorned(noSip); err == nil {
		t.Error("rule without sip must be rejected")
	}
	// Sip whose head adornment does not match the rule head.
	bad := adorned(t, "p(X, Y) :- e(X, Y).", "p(a, Y)")
	bad.Rules[0].Sip = &sip.Graph{Rule: bad.Rules[0].Rule, HeadAdornment: "b"}
	if err := ValidateAdorned(bad); err == nil {
		t.Error("mismatched sip adornment must be rejected")
	}
}

func TestRewritingString(t *testing.T) {
	r := &Rewriting{
		Program: ast.NewProgram(
			ast.NewRule(ast.NewAtom("p", ast.V("X")), ast.NewAtom("magic_p", ast.V("X")), ast.NewAtom("e", ast.V("X"))),
		),
		Seeds: []ast.Atom{ast.NewAtom("magic_p", ast.S("a"))},
	}
	out := r.String()
	if !strings.Contains(out, "p(X) :- magic_p(X), e(X).") || !strings.Contains(out, "magic_p(a).") {
		t.Errorf("rendering = %q", out)
	}
}
