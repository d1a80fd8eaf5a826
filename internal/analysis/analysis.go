// Package analysis implements the comparisons behind Section 9 of Beeri &
// Ramakrishnan, "On the Power of Magic": the sip-optimality of the
// generalized magic-sets rewriting (Theorem 9.1) and the bookkeeping the
// E1–E11 golden tests (paper_test.go) use to compare strategies by the
// number of facts and subqueries they generate.
//
// The reference "sip strategy" is the memoizing top-down evaluator of
// package topdown: its goal set is the set Q of queries and its memo tables
// are the set F of facts that any strategy following the given sip
// collection must produce. Theorem 9.1 states that the bottom-up evaluation
// of the magic-rewritten program produces exactly the facts corresponding to
// Q (the magic facts) and F (the adorned-predicate facts).
//
// Caveat: the reference evaluator keeps the full rule context while solving
// a body, so its query set matches the compressed (full) sips. For partial
// sips, which deliberately forget earlier bindings, the magic program
// legitimately generates a superset of the reference's queries and facts
// (Lemma 9.3); VerifySipOptimality reports the difference rather than
// declaring it an error, and the exact-equality check is meaningful only
// for compressed sip collections.
package analysis

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/rewrite"
	"repro/internal/topdown"
)

// OptimalityReport is the outcome of checking Theorem 9.1 on one
// program/query/database instance.
type OptimalityReport struct {
	// MagicFacts is the number of magic facts computed bottom-up.
	MagicFacts int
	// Queries is |Q|, the number of subgoals of the reference sip strategy.
	Queries int
	// AnswerFacts is the number of adorned-predicate facts computed
	// bottom-up.
	AnswerFacts int
	// ReferenceFacts is |F|, the number of memoized answers of the reference
	// strategy.
	ReferenceFacts int
	// MagicNotInQ lists magic facts with no corresponding subgoal (must be
	// empty for sip optimality).
	MagicNotInQ []string
	// QNotInMagic lists subgoals with no corresponding magic fact (must be
	// empty: any sip strategy has to generate them, and the magic program
	// derives them).
	QNotInMagic []string
	// FactsNotInF lists adorned facts computed bottom-up that the reference
	// strategy did not compute (must be empty for sip optimality).
	FactsNotInF []string
	// FNotInFacts lists reference answers the bottom-up evaluation missed
	// (must be empty by completeness, Theorem 4.1).
	FNotInFacts []string
}

// Optimal reports whether the magic-rewritten program is sip-optimal on this
// instance: it computed exactly the queries and facts of the reference
// strategy.
func (r *OptimalityReport) Optimal() bool {
	return len(r.MagicNotInQ) == 0 && len(r.QNotInMagic) == 0 &&
		len(r.FactsNotInF) == 0 && len(r.FNotInFacts) == 0
}

// String renders a short summary.
func (r *OptimalityReport) String() string {
	return fmt.Sprintf("magic facts %d = queries %d; answer facts %d = reference facts %d; optimal=%v",
		r.MagicFacts, r.Queries, r.AnswerFacts, r.ReferenceFacts, r.Optimal())
}

// VerifySipOptimality evaluates the magic rewriting bottom-up and the
// reference top-down strategy on the same adorned program and database, and
// cross-checks the two per Theorem 9.1.
func VerifySipOptimality(ad *adorn.Program, rw *rewrite.Rewriting, edb *database.Store) (*OptimalityReport, error) {
	if rw == nil || rw.Program == nil {
		return nil, fmt.Errorf("analysis: nil rewriting")
	}
	pp, err := eval.Prepare(rw.Program, edb.Table())
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	store, _, err := pp.EvaluateCtx(context.TODO(), edb, rw.Seeds, eval.Options{})
	if err != nil {
		return nil, fmt.Errorf("analysis: bottom-up evaluation: %w", err)
	}
	ref, err := topdown.Evaluate(ad, edb, topdown.Options{})
	if err != nil {
		return nil, fmt.Errorf("analysis: reference strategy: %w", err)
	}

	report := &OptimalityReport{}

	// Compare magic facts against the reference goal set Q. A magic fact
	// magic_p^a(c̄) corresponds to the goal p^a(c̄).
	magicKeys := make(map[string]bool)
	for _, name := range store.Names() {
		if !strings.HasPrefix(name, "magic_") {
			continue
		}
		rel := store.Existing(name)
		report.MagicFacts += rel.Len()
		predKey := strings.TrimPrefix(name, "magic_")
		for _, t := range rel.Tuples() {
			g := topdown.Goal{Pred: predKey, Bound: t}
			key := ref.GoalKey(g)
			magicKeys[key] = true
			if _, ok := ref.Goals[key]; !ok {
				report.MagicNotInQ = append(report.MagicNotInQ, name+t.String())
			}
		}
	}
	report.Queries = len(ref.Goals)
	for key, g := range ref.Goals {
		if !magicKeys[key] {
			report.QNotInMagic = append(report.QNotInMagic, g.String())
		}
	}

	// Compare the adorned-predicate facts against the reference answers F.
	counted := make(map[string]bool)
	for _, ar := range ad.Rules {
		key := ar.Rule.Head.PredKey()
		if counted[key] {
			continue
		}
		counted[key] = true
		bottomUp := store.Existing(key)
		reference := ref.Facts.Existing(key)
		if bottomUp != nil {
			report.AnswerFacts += bottomUp.Len()
			for _, t := range bottomUp.Tuples() {
				if reference == nil || !reference.Contains(t) {
					report.FactsNotInF = append(report.FactsNotInF, key+t.String())
				}
			}
		}
		if reference != nil {
			report.ReferenceFacts += reference.Len()
			for _, t := range reference.Tuples() {
				if bottomUp == nil || !bottomUp.Contains(t) {
					report.FNotInFacts = append(report.FNotInFacts, key+t.String())
				}
			}
		}
	}
	sort.Strings(report.MagicNotInQ)
	sort.Strings(report.QNotInMagic)
	sort.Strings(report.FactsNotInF)
	sort.Strings(report.FNotInFacts)
	return report, nil
}

// StrategyRun summarizes one strategy's evaluation on one workload, in the
// vocabulary the paper uses to compare methods: facts computed per predicate
// class, subqueries generated, rule firings and join probes.
type StrategyRun struct {
	// Strategy names the rewriting/evaluation combination.
	Strategy string
	// Answers is the number of answers to the original query.
	Answers int
	// DerivedFacts counts facts in the (rewritten) derived predicates other
	// than the auxiliary ones.
	DerivedFacts int
	// AuxFacts counts facts in the auxiliary predicates (magic_, sup_, cnt_,
	// supcnt_ and label_ predicates) — the "cost of generating subqueries".
	AuxFacts int
	// TotalFacts is DerivedFacts + AuxFacts.
	TotalFacts int
	// Derivations, Iterations and JoinProbes are copied from the evaluator.
	Derivations int64
	Iterations  int
	JoinProbes  int64
	// Strata is the number of dependency-graph components the semi-naive
	// scheduler evaluated (0 for the top-down strategy).
	Strata int
	// Err records a failed run (limit exceeded, unsafe program, ...).
	Err error
}

// AuxFraction returns the fraction of all computed facts that live in
// auxiliary predicates. Section 9 (citing the performance study [5]) argues
// this fraction is generally small.
func (r StrategyRun) AuxFraction() float64 {
	if r.TotalFacts == 0 {
		return 0
	}
	return float64(r.AuxFacts) / float64(r.TotalFacts)
}

// MeasureRewriting evaluates a rewriting over a database and summarizes the
// work done. The seeds are injected into a copy-on-write overlay of the
// database, so the caller's store gains no facts.
func MeasureRewriting(name string, rw *rewrite.Rewriting, edb *database.Store, opts eval.Options) StrategyRun {
	run := StrategyRun{Strategy: name}
	pp, err := eval.Prepare(rw.Program, edb.Table())
	if err != nil {
		run.Err = err
		return run
	}
	store, stats, err := pp.EvaluateCtx(context.TODO(), edb, rw.Seeds, opts)
	if err != nil {
		run.Err = err
	}
	if store == nil {
		return run
	}
	run.Answers = len(eval.Answers(store, rw.AnswerPred, rw.AnswerPattern))
	for key := range rw.Program.DerivedPredicates() {
		n := store.FactCount(key)
		if rw.AuxPredicates[key] {
			run.AuxFacts += n
		} else {
			run.DerivedFacts += n
		}
	}
	run.TotalFacts = run.DerivedFacts + run.AuxFacts
	if stats != nil {
		run.Derivations = stats.Derivations
		run.Iterations = stats.Iterations
		run.JoinProbes = stats.JoinProbes
		run.Strata = stats.Strata
	}
	return run
}

// MeasureProgram evaluates an unrewritten program bottom-up (the paper's
// Section 1 baseline: compute everything, then select) and summarizes it.
func MeasureProgram(name string, p *ast.Program, query ast.Query, edb *database.Store, opts eval.Options) StrategyRun {
	run := StrategyRun{Strategy: name}
	pp, err := eval.Prepare(p, edb.Table())
	if err != nil {
		run.Err = err
		return run
	}
	store, stats, err := pp.EvaluateCtx(context.TODO(), edb, nil, opts)
	if err != nil {
		run.Err = err
	}
	if store == nil {
		return run
	}
	run.Answers = len(eval.Answers(store, query.Atom.PredKey(), query.Atom))
	for key := range p.DerivedPredicates() {
		run.DerivedFacts += store.FactCount(key)
	}
	run.TotalFacts = run.DerivedFacts
	if stats != nil {
		run.Derivations = stats.Derivations
		run.Iterations = stats.Iterations
		run.JoinProbes = stats.JoinProbes
		run.Strata = stats.Strata
	}
	return run
}

// MeasureTopDown runs the reference top-down strategy and summarizes it in
// the same vocabulary (goals count as auxiliary facts: they are the
// subqueries the strategy materializes).
func MeasureTopDown(name string, ad *adorn.Program, edb *database.Store, opts topdown.Options) StrategyRun {
	run := StrategyRun{Strategy: name}
	res, err := topdown.Evaluate(ad, edb, opts)
	if err != nil {
		run.Err = err
	}
	if res == nil {
		return run
	}
	run.Answers = len(res.Answers)
	run.DerivedFacts = res.Stats.Answers
	run.AuxFacts = res.Stats.Queries
	run.TotalFacts = run.DerivedFacts + run.AuxFacts
	run.Derivations = res.Stats.Derivations
	run.Iterations = res.Stats.Passes
	return run
}

// FormatRuns renders a comparison table of strategy runs, one row per run.
func FormatRuns(runs []StrategyRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-38s %8s %10s %10s %10s %12s %10s\n",
		"strategy", "answers", "facts", "aux", "total", "derivations", "probes")
	for _, r := range runs {
		status := ""
		if r.Err != nil {
			status = "  [" + shortErr(r.Err) + "]"
		}
		fmt.Fprintf(&b, "%-38s %8d %10d %10d %10d %12d %10d%s\n",
			r.Strategy, r.Answers, r.DerivedFacts, r.AuxFacts, r.TotalFacts, r.Derivations, r.JoinProbes, status)
	}
	return b.String()
}

func shortErr(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, ':'); i > 0 {
		return s[:i]
	}
	if len(s) > 40 {
		return s[:40]
	}
	return s
}
