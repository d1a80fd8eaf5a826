// Package adorn implements the construction of the adorned rule set P^ad
// from a program, a query and a sideways-information-passing strategy
// (Section 3 of Beeri & Ramakrishnan, "On the Power of Magic").
//
// The query determines an adornment (binding pattern) for the query
// predicate. Starting from that adorned predicate, each rule defining it is
// given an adorned version: a sip is chosen for the rule and the head
// binding pattern, and every derived body occurrence is replaced by an
// adorned version in which an argument is bound iff all of its variables are
// passed to the occurrence by the sip. Newly created adorned predicates are
// processed in turn until no unmarked adorned predicate remains. Theorem 3.1
// states that (P, p^a) and (P^ad, p^a) are equivalent.
package adorn

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/sip"
)

// Rule is an adorned rule together with the sip that produced it.
type Rule struct {
	// Rule is the adorned rule: its head and its derived body occurrences
	// carry adornments; base occurrences are unadorned.
	Rule ast.Rule
	// Sip is the sip chosen for the (unadorned) source rule and the head
	// adornment. Body positions of the sip align with body positions of the
	// adorned rule.
	Sip *sip.Graph
	// Source is the index of the originating rule in the original program.
	Source int
}

// String renders the adorned rule.
func (r Rule) String() string { return r.Rule.String() }

// Program is the adorned program P^ad for one query.
type Program struct {
	// Rules are the adorned rules in creation order (query predicate first,
	// breadth-first over newly discovered adorned predicates).
	Rules []Rule
	// Query is the original query.
	Query ast.Query
	// QueryAdornment is the binding pattern derived from the query.
	QueryAdornment ast.Adornment
	// QueryPred is the adorned predicate key of the query, e.g. "anc^bf".
	QueryPred string
	// Original is the program the adorned program was built from.
	Original *ast.Program
	// OriginalDerived is the set of derived predicate keys of the original
	// program (unadorned names).
	OriginalDerived map[string]bool
	// SipStrategy is the name of the sip strategy used.
	SipStrategy string
}

// AdornedPredicates returns the set of adorned derived predicate keys
// (name^adornment) defined by the adorned program.
func (p *Program) AdornedPredicates() map[string]bool {
	set := make(map[string]bool)
	for _, r := range p.Rules {
		set[r.Rule.Head.PredKey()] = true
	}
	return set
}

// Program returns the adorned rules as a plain ast.Program (losing the sip
// annotations); useful for validation and direct evaluation.
func (p *Program) Program() *ast.Program {
	rules := make([]ast.Rule, len(p.Rules))
	for i, r := range p.Rules {
		rules[i] = r.Rule
	}
	return ast.NewProgram(rules...)
}

// String renders the adorned rules one per line, followed by the query, in
// the style of Appendix A.2 of the paper.
func (p *Program) String() string {
	var b strings.Builder
	for i, r := range p.Rules {
		fmt.Fprintf(&b, "%d. %s\n", i+1, r.Rule.String())
	}
	fmt.Fprintf(&b, "Query: %s^%s%s?\n", p.Query.Atom.Pred, p.QueryAdornment, argsString(p.Query.Atom.Args))
	return b.String()
}

func argsString(args []ast.Term) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Adorn builds the adorned program for the given program, query and sip
// strategy. The program must validate (no facts, well-formed rules) and the
// query predicate must be a derived predicate of the program.
func Adorn(p *ast.Program, q ast.Query, strategy sip.Strategy) (*Program, error) {
	// Note: the well-formedness condition (WF) is deliberately not enforced
	// here. The paper's own Appendix A.1 list-reverse program has a head-only
	// variable (W in the second append rule); such programs only become
	// bottom-up evaluable after the magic/counting rewriting, which is
	// exactly the point of the transformation.
	for i, r := range p.Rules {
		if r.IsFact() {
			return nil, fmt.Errorf("adorn: rule %d (%s) is a fact; facts belong in the database", i, r)
		}
	}
	if _, err := p.Arities(); err != nil {
		return nil, fmt.Errorf("adorn: %w", err)
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("adorn: %w", err)
	}
	derived := p.DerivedPredicates()
	if !derived[q.Atom.PredKey()] {
		return nil, fmt.Errorf("adorn: query predicate %s is not a derived predicate of the program", q.Atom.PredKey())
	}
	arities, err := p.Arities()
	if err != nil {
		return nil, fmt.Errorf("adorn: %w", err)
	}
	if arities[q.Atom.PredKey()] != len(q.Atom.Args) {
		return nil, fmt.Errorf("adorn: query arity %d does not match predicate %s arity %d",
			len(q.Atom.Args), q.Atom.PredKey(), arities[q.Atom.PredKey()])
	}

	out := &Program{
		Query:           q,
		QueryAdornment:  q.Adornment(),
		Original:        p,
		OriginalDerived: derived,
		SipStrategy:     strategy.Name(),
	}
	out.QueryPred = ast.Atom{Pred: q.Atom.Pred, Adorn: out.QueryAdornment}.PredKey()

	type adornedPred struct {
		pred  string
		adorn ast.Adornment
	}
	// Worklist of unmarked adorned predicates, processed FIFO so the rule
	// order is deterministic: query predicate first.
	queue := []adornedPred{{pred: q.Atom.Pred, adorn: out.QueryAdornment}}
	marked := map[string]bool{out.QueryPred: true}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for ruleIdx, rule := range p.Rules {
			if rule.Head.PredKey() != cur.pred {
				continue
			}
			g, err := strategy.SipFor(rule, cur.adorn, derived)
			if err != nil {
				return nil, fmt.Errorf("adorn: rule %d (%s) with adornment %s: %w", ruleIdx, rule, cur.adorn, err)
			}
			adorned := rule.Clone()
			adorned.Head.Adorn = cur.adorn
			for i := range adorned.Body {
				lit := &adorned.Body[i]
				if !derived[lit.PredKey()] {
					continue
				}
				passed := g.PassedVars(i)
				a := ast.AdornmentFor(lit.Args, passed)
				lit.Adorn = a
				if key := lit.PredKey(); !marked[key] {
					marked[key] = true
					queue = append(queue, adornedPred{pred: lit.Pred, adorn: a})
				}
			}
			out.Rules = append(out.Rules, Rule{Rule: adorned, Sip: g, Source: ruleIdx})
		}
	}
	return out, nil
}

// DropAdornments returns a copy of an adorned rule with all adornments
// removed; dropping the adornments of every rule of P^ad yields rules of P
// (this is the observation underlying the proof of Theorem 3.1).
func DropAdornments(r ast.Rule) ast.Rule {
	out := r.Clone()
	out.Head.Adorn = ""
	for i := range out.Body {
		out.Body[i].Adorn = ""
	}
	return out
}
