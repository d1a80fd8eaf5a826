// Package rewrite implements the four program rewritings of the paper,
// generalized magic sets, generalized supplementary magic sets, generalized
// counting and generalized supplementary counting (Sections 4-7), as one
// sip walk, Walk, and the semijoin optimization of Section 8.
//
// From an adorned program (package adorn) the walk builds, for each adorned
// rule, the magic rules passing bindings along its sip's arcs and the
// modified rule guarded by the head's magic literal, plus a seed fact from
// the query; evaluating the result bottom-up computes exactly the facts
// relevant to the query under the chosen sip collection. The rewritings
// differ on two axes: supplementary ones store each rule's prefix joins in
// a chain of supplementary predicates the other rules read, and indexed
// (counting) ones add three index fields to the magic and derived
// predicates. Packages magic, supmagic and counting set the axes.
//
// The index fields I, K and H hold the recursion depth, the sequence of
// rules applied and the sequence of body positions expanded. The paper
// encodes them as integers (K·m+i, H·t+j); the walk builds the sequences as
// terms, which need no bound on their length: s(I), k(K, i) and h(H, j) for
// the 1-based rule number i and body position j, from the seed's (0, 0, 0).
//
// One function names every generated predicate, fresh against the
// program's predicates, and the walk records each one it creates in
// Rewriting.AuxPredicates.
package rewrite

import (
	"fmt"
	"strings"

	"repro/internal/adorn"
	"repro/internal/ast"
)

// Rewriting is the output of a rewriting algorithm.
type Rewriting struct {
	// Name identifies the algorithm that produced the rewriting (e.g.
	// "generalized-magic-sets").
	Name string
	// Program contains the rewritten rules, ready for bottom-up evaluation.
	Program *ast.Program
	// Seeds are the seed facts obtained from the query (magic_q^a(c̄) or
	// cnt_q_ind^a(0,0,0,c̄)); they must be added to the database before
	// evaluation.
	Seeds []ast.Atom
	// AnswerPred is the predicate key of the relation holding the query
	// answers after evaluation (e.g. "anc^bf" or "anc_ind^bf").
	AnswerPred string
	// AnswerPattern is the atom to use with eval.Answers to read the query's
	// answers out of the evaluated store: its ground arguments select the
	// relevant tuples (query constants, and the (0,0,0) index triple for the
	// counting rewritings) and its variables mark the projected positions.
	AnswerPattern ast.Atom
	// DroppedAnswerBound reports that the bound arguments of the answer
	// predicate were removed by the semijoin optimization (Theorem 8.3); the
	// remaining non-index arguments correspond to the free positions of the
	// query only.
	DroppedAnswerBound bool
	// SeedBoundArgs lists, for each seed in Seeds, the argument positions
	// that hold the query's bound constants, in Query.BoundConstants()
	// order. Every other seed argument is a form constant — part of the
	// query's binding pattern rather than its constants (for example the
	// (0, 0, 0) index triple of the counting seed). Together with
	// AnswerBoundArgs it is the schema Parameterize uses to re-instantiate a
	// rewriting for new constants of the same query form.
	SeedBoundArgs [][]int
	// AnswerBoundArgs lists, in Query.BoundConstants() order, the position
	// of each bound query constant within AnswerPattern.Args, or -1 for a
	// constant whose argument the semijoin optimization removed from the
	// answer predicate.
	AnswerBoundArgs []int
	// Adorned is the adorned program the rewriting was built from.
	Adorned *adorn.Program
	// AuxPredicates maps the key of every auxiliary predicate the rewriting
	// created, the seed's included, to the adorned predicate key whose
	// bindings it carries: p^a for magic_p^a and cnt_p_ind^a, "" for the
	// label and supplementary predicates.
	AuxPredicates map[string]string
}

// String renders the rewritten rules followed by the seeds, in a stable
// format used by the golden tests that reproduce the paper's appendix.
func (r *Rewriting) String() string {
	var b strings.Builder
	for _, rule := range r.Program.Rules {
		b.WriteString(rule.String())
		b.WriteByte('\n')
	}
	for _, seed := range r.Seeds {
		fmt.Fprintf(&b, "%s.\n", seed)
	}
	return b.String()
}

// Parameterize re-instantiates the rewriting for a query of the same form —
// same predicate, binding pattern, sip and rewriting options — whose bound
// constants are bound, in Query.BoundConstants() order. It returns the seed
// facts and the answer-selection pattern for the new constants; the
// rewritten program itself is form-invariant (the query's constants occur
// only in the seeds and the answer selection), which is what lets a serving
// layer compile it once and evaluate it per call.
func (r *Rewriting) Parameterize(bound []ast.Term) (seeds []ast.Atom, answer ast.Atom, err error) {
	if len(r.SeedBoundArgs) != len(r.Seeds) {
		return nil, ast.Atom{}, fmt.Errorf("rewrite: rewriting %s carries no parameterization schema", r.Name)
	}
	want := 0
	for _, positions := range r.SeedBoundArgs {
		if len(positions) > want {
			want = len(positions)
		}
	}
	if len(r.AnswerBoundArgs) > want {
		want = len(r.AnswerBoundArgs)
	}
	if len(bound) != want {
		return nil, ast.Atom{}, fmt.Errorf("rewrite: query form has %d bound constants, got %d", want, len(bound))
	}
	for i, t := range bound {
		if !ast.IsGround(t) {
			return nil, ast.Atom{}, fmt.Errorf("rewrite: bound constant %d (%s) is not ground", i, t)
		}
	}
	seeds = make([]ast.Atom, len(r.Seeds))
	for i, seed := range r.Seeds {
		args := append([]ast.Term(nil), seed.Args...)
		for k, pos := range r.SeedBoundArgs[i] {
			args[pos] = bound[k]
		}
		seeds[i] = ast.Atom{Pred: seed.Pred, Adorn: seed.Adorn, Args: args}
	}
	pargs := append([]ast.Term(nil), r.AnswerPattern.Args...)
	for k, pos := range r.AnswerBoundArgs {
		if pos >= 0 {
			pargs[pos] = bound[k]
		}
	}
	answer = ast.Atom{Pred: r.AnswerPattern.Pred, Adorn: r.AnswerPattern.Adorn, Args: pargs}
	return seeds, answer, nil
}

// Rewriter transforms an adorned program into an equivalent program whose
// bottom-up evaluation implements the sip collection attached to the adorned
// program.
type Rewriter interface {
	// Rewrite performs the transformation.
	Rewrite(ad *adorn.Program) (*Rewriting, error)
	// Name identifies the algorithm.
	Name() string
}

// ValidateAdorned performs the sanity checks shared by all rewriters.
func ValidateAdorned(ad *adorn.Program) error {
	if ad == nil {
		return fmt.Errorf("rewrite: nil adorned program")
	}
	if len(ad.Rules) == 0 {
		return fmt.Errorf("rewrite: adorned program has no rules")
	}
	for i, r := range ad.Rules {
		if r.Sip == nil {
			return fmt.Errorf("rewrite: adorned rule %d (%s) has no sip attached", i, r.Rule)
		}
		if len(r.Sip.HeadAdornment) != len(r.Rule.Head.Args) {
			return fmt.Errorf("rewrite: adorned rule %d (%s): sip head adornment %q does not match", i, r.Rule, r.Sip.HeadAdornment)
		}
	}
	return nil
}
