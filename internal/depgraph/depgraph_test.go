package depgraph

import (
	"testing"

	"repro/internal/parser"
)

func TestAncestorSingleRecursiveComponent(t *testing.T) {
	p := parser.MustParseProgram(`
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`)
	plan := Analyze(p)
	if plan.Strata() != 1 {
		t.Fatalf("strata = %d, want 1\n%s", plan.Strata(), plan)
	}
	c := plan.Components[0]
	if !c.Recursive {
		t.Error("ancestor component not marked recursive")
	}
	if len(c.Rules) != 2 {
		t.Errorf("component rules = %v, want both", c.Rules)
	}
	// The base rule has no delta position; the recursive rule has one, at
	// body position 1.
	if got := c.DeltaPositions[0]; len(got) != 0 {
		t.Errorf("base rule delta positions = %v, want none", got)
	}
	if got := c.DeltaPositions[1]; len(got) != 1 || got[0] != 1 {
		t.Errorf("recursive rule delta positions = %v, want [1]", got)
	}
}

func TestNestedSameGenerationStrata(t *testing.T) {
	p := parser.MustParseProgram(`
		p(X, Y) :- b1(X, Y).
		p(X, Y) :- sg(X, Z1), p(Z1, Z2), b2(Z2, Y).
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), down(Z2, Y).
	`)
	plan := Analyze(p)
	if plan.Strata() != 2 {
		t.Fatalf("strata = %d, want 2\n%s", plan.Strata(), plan)
	}
	// sg does not depend on p, p depends on sg: sg must come first.
	if plan.PredComponent["sg"] != 0 || plan.PredComponent["p"] != 1 {
		t.Errorf("component order: sg in %d, p in %d; want sg before p",
			plan.PredComponent["sg"], plan.PredComponent["p"])
	}
	// In p's recursive rule only the p occurrence (position 1) is a delta
	// position; the sg occurrence belongs to the completed earlier stratum.
	pComp := plan.Components[1]
	if got := pComp.DeltaPositions[1]; len(got) != 1 || got[0] != 1 {
		t.Errorf("p rule delta positions = %v, want [1]", got)
	}
}

func TestMutualRecursionSharesComponent(t *testing.T) {
	p := parser.MustParseProgram(`
		even(X) :- zero(X).
		even(X) :- succ(Y, X), odd(Y).
		odd(X) :- succ(Y, X), even(Y).
	`)
	plan := Analyze(p)
	if plan.Strata() != 1 {
		t.Fatalf("strata = %d, want 1 (mutual recursion)\n%s", plan.Strata(), plan)
	}
	if !plan.Components[0].Recursive {
		t.Error("mutually recursive component not marked recursive")
	}
	if len(plan.Components[0].Preds) != 2 {
		t.Errorf("component preds = %v, want even and odd", plan.Components[0].Preds)
	}
}

func TestNonRecursiveChainOfStrata(t *testing.T) {
	p := parser.MustParseProgram(`
		a(X) :- base(X).
		b(X) :- a(X).
		c(X) :- b(X), a(X).
	`)
	plan := Analyze(p)
	if plan.Strata() != 3 {
		t.Fatalf("strata = %d, want 3\n%s", plan.Strata(), plan)
	}
	for i, comp := range plan.Components {
		if comp.Recursive {
			t.Errorf("component %d (%v) marked recursive", i, comp.Preds)
		}
	}
	// Topological order: a before b before c.
	if !(plan.PredComponent["a"] < plan.PredComponent["b"] && plan.PredComponent["b"] < plan.PredComponent["c"]) {
		t.Errorf("order a=%d b=%d c=%d not topological",
			plan.PredComponent["a"], plan.PredComponent["b"], plan.PredComponent["c"])
	}
}

func TestPlanDependencyEdges(t *testing.T) {
	// Diamond: b and c depend on a, d depends on b and c. Every edge from a
	// rule head to a body predicate of another component must point to an
	// earlier component: that order is all the evaluator relies on when it
	// runs the components one at a time.
	p := parser.MustParseProgram(`
		a(X) :- base(X).
		b(X) :- a(X), b1(X).
		c(X) :- a(X), c1(X).
		d(X) :- b(X), c(X).
	`)
	plan := Analyze(p)
	if plan.Strata() != 4 {
		t.Fatalf("strata = %d, want 4\n%s", plan.Strata(), plan)
	}
	edges := 0
	for _, r := range p.Rules {
		ci := plan.PredComponent[r.Head.PredKey()]
		for _, lit := range r.Body {
			bc, ok := plan.PredComponent[lit.PredKey()]
			if !ok {
				continue
			}
			edges++
			if bc >= ci {
				t.Errorf("%s reads %s from component %d, not earlier than its own %d",
					r.Head.PredKey(), lit.PredKey(), bc, ci)
			}
		}
	}
	if edges != 4 {
		t.Errorf("found %d edges between derived predicates, want 4", edges)
	}
	if plan.PredComponent["a"] != 0 || plan.PredComponent["d"] != 3 {
		t.Errorf("a in component %d, d in %d; want 0 and 3", plan.PredComponent["a"], plan.PredComponent["d"])
	}
}
