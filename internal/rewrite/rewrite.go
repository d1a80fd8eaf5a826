// Package rewrite defines the common interface and result type shared by the
// program rewriting algorithms of the paper (generalized magic sets,
// generalized supplementary magic sets, generalized counting and generalized
// supplementary counting), together with helpers used by all of them.
//
// Every rewriter consumes an adorned program (package adorn) and produces a
// new program plus a seed fact derived from the query; evaluating the
// rewritten program bottom-up over the database extended with the seed
// computes exactly the facts relevant to the query under the chosen sip
// collection.
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
	// AnswerIndexArgs is the number of leading index arguments of the answer
	// predicate that are not part of the original predicate's arguments
	// (3 for the counting rewritings, 0 otherwise). Callers must skip these
	// when projecting answers.
	AnswerIndexArgs int
	// AnswerArity is the arity of the answer predicate in the rewritten
	// program (original arity plus index arguments minus any arguments
	// removed by the semijoin optimization).
	AnswerArity int
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
	// AuxPredicates lists the auxiliary predicate keys introduced by the
	// rewriting (magic_, sup_, cnt_, supcnt_ predicates).
	AuxPredicates map[string]bool
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

// QueryBoundPositions returns the positions of the ground (bound) arguments
// of the adorned program's query atom, in order — the positions
// Parameterize's bound constants correspond to.
func QueryBoundPositions(ad *adorn.Program) []int {
	var out []int
	for i, arg := range ad.Query.Atom.Args {
		if ast.IsGround(arg) {
			out = append(out, i)
		}
	}
	return out
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

// MagicAtom returns the magic predicate occurrence for an adorned atom: the
// predicate magic_p^a whose arguments are the bound arguments of the atom.
// It returns a zero-arity atom when the adornment has no bound positions;
// callers normally skip creating magic predicates in that case.
func MagicAtom(a ast.Atom) ast.Atom {
	return ast.Atom{
		Pred:  "magic_" + a.Pred,
		Adorn: a.Adorn,
		Args:  a.BoundArgs(),
	}
}

// SeedAtom builds the seed fact for the query of an adorned program: the
// magic predicate of the adorned query predicate applied to the query's
// bound constants.
func SeedAtom(ad *adorn.Program) ast.Atom {
	return ast.Atom{
		Pred:  "magic_" + ad.Query.Atom.Pred,
		Adorn: ad.QueryAdornment,
		Args:  ad.Query.BoundConstants(),
	}
}

// HeadMagicAtom returns the magic literal for the head of an adorned rule:
// magic_p^a over the bound head arguments.
func HeadMagicAtom(r ast.Rule) ast.Atom { return MagicAtom(r.Head) }

// ConstantMagicRule returns the magic rule of a derived body occurrence that
// no sip arc enters but that still has bound arguments, which are then all
// constants (hit :- r(n0)). The occurrence is relevant whenever its rule is:
// its magic fact follows from the head's magic literal, or holds outright
// when the head has no bound argument.
func ConstantMagicRule(r ast.Rule, lit ast.Atom) ast.Rule {
	rule := ast.Rule{Head: MagicAtom(lit)}
	if r.Head.Adorn.BoundCount() > 0 {
		rule.Body = []ast.Atom{HeadMagicAtom(r)}
	}
	return rule
}

// IsDerivedOccurrence reports whether a body occurrence refers to a derived
// predicate of the original program (the occurrence carries an adornment or
// its unadorned name is a derived predicate).
func IsDerivedOccurrence(ad *adorn.Program, a ast.Atom) bool {
	return ad.OriginalDerived[a.Pred]
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
