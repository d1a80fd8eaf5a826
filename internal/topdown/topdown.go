// Package topdown implements a memoizing top-down evaluator in the style of
// QSQ / extension tables. It is the reference implementation of a "sip
// strategy" in the sense of Section 9 of Beeri & Ramakrishnan, "On the Power
// of Magic": queries (subgoals) are generated by following the rules and the
// sips attached to the adorned program, every answer to every generated
// query is computed, and nothing else is.
//
// The evaluator serves two purposes in this repository:
//
//   - it is the baseline strategy the rewritten programs are compared
//     against (the class containing QSQ, extension tables, Prolog-on-Datalog
//     and the other methods the paper lists), and
//   - it materializes the sets Q (queries) and F (facts) of the
//     sip-optimality theorem (Theorem 9.1), which package analysis compares
//     against the facts computed by the bottom-up evaluation of the
//     magic-rewritten program.
package topdown

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/intern"
)

// ErrLimitExceeded is returned when the evaluation exceeds a configured
// limit before completing (for example on a program whose top-down
// evaluation does not terminate).
var ErrLimitExceeded = errors.New("topdown: limit exceeded")

// errStopEarly is the internal sentinel that unwinds the solver once the
// query goal holds Options.FirstN answers; Evaluate converts it into a
// successful, truncated result.
var errStopEarly = errors.New("topdown: first-N answers reached")

// Options configure the top-down evaluator.
type Options struct {
	// MaxGoals bounds the number of distinct subgoals (0 = unlimited).
	MaxGoals int
	// MaxAnswers bounds the total number of memoized answers (0 = unlimited).
	MaxAnswers int
	// MaxPasses bounds the number of outer fixpoint passes (0 = unlimited).
	MaxPasses int
	// MaxDerivations bounds the number of successful rule-body
	// instantiations (0 = unlimited). It is the top-down counterpart of the
	// bottom-up MaxDerivations limit.
	MaxDerivations int64
	// MaxMemo bounds the combined size of the memo tables — distinct
	// subgoals plus memoized answers (0 = unlimited). It is the top-down
	// counterpart of the bottom-up MaxFacts limit, which likewise counts
	// auxiliary (magic) facts and derived facts together.
	MaxMemo int
	// FirstN, when positive, short-circuits the evaluation as soon as the
	// original query's goal table holds N answers: the solver unwinds
	// mid-pass, the result carries the answers found so far (at most N are
	// surfaced) and Stats.StoppedEarly is set. Subgoal tables may be
	// incomplete; the answers themselves are sound.
	FirstN int
}

// Stats summarizes the work done by a top-down evaluation.
type Stats struct {
	// Queries is the number of distinct subgoals generated, |Q| in the
	// notation of Section 9 (including the original query).
	Queries int
	// Answers is the number of distinct memoized answers across all
	// subgoals, |F|.
	Answers int
	// Derivations counts successful rule-body instantiations.
	Derivations int64
	// Passes is the number of outer fixpoint passes over the goal table.
	Passes int
	// QueriesByPredicate counts subgoals per adorned predicate key.
	QueriesByPredicate map[string]int
	// StoppedEarly reports that Options.FirstN truncated the evaluation
	// before the memo tables were complete.
	StoppedEarly bool
}

// Goal is a subquery: an adorned derived predicate together with the
// constants bound to its bound argument positions.
type Goal struct {
	// Pred is the adorned predicate key, e.g. "sg^bf".
	Pred string
	// Bound holds the values of the bound argument positions, in order.
	Bound []ast.Term
}

// Key returns a canonical encoding of the goal under the given symbol
// table: the adorned predicate key followed by the interned IDs of the
// bound constants. Interning keeps the key compact and avoids re-encoding
// deep terms on every memo-table probe. Keys are comparable only when
// produced against the same table; each evaluation owns a table of its own
// (see Result.GoalKey), so long-lived servers do not grow the database's
// symbol table with every query constant ever memoized.
func (g Goal) Key(tab *intern.Table) string {
	ids := make([]intern.ID, len(g.Bound))
	for i, t := range g.Bound {
		ids[i] = tab.Intern(t)
	}
	return intern.Key(g.Pred, ids)
}

// String renders the goal as pred^a(c1, c2, ...).
func (g Goal) String() string {
	parts := make([]string, len(g.Bound))
	for i, t := range g.Bound {
		parts[i] = t.String()
	}
	return g.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// Result is the outcome of a top-down evaluation.
type Result struct {
	// Answers are the answer tuples for the original query, projected onto
	// its free positions, in discovery order.
	Answers []database.Tuple
	// Goals maps goal keys to the goals generated during evaluation (the
	// set Q of Section 9).
	Goals map[string]Goal
	// Stats summarizes the evaluation.
	Stats Stats
	// keys is the evaluation-scoped symbol table the Goals map keys and the
	// goal tables were produced against.
	keys *intern.Table
	// tables holds the full-arity answers of each goal, by goal key.
	tables map[string]*database.Relation
}

// Facts builds a store holding, per adorned predicate key, the full-arity
// answer tuples of every subgoal (the set F of Section 9). The store is
// built from the goal tables on each call.
func (r *Result) Facts() *database.Store {
	facts := database.NewStore()
	for _, rel := range r.tables {
		for _, t := range rel.Tuples() {
			atom := ast.Atom{Pred: strings.SplitN(rel.Name, "^", 2)[0], Adorn: adornOf(rel.Name), Args: t}
			facts.MustAddFact(atom)
		}
	}
	return facts
}

// GoalKey encodes a goal with the symbol table of this evaluation, so the
// result can be probed for membership in Goals (the set Q of Section 9).
func (r *Result) GoalKey(g Goal) string { return g.Key(r.keys) }

// AnswerSet returns the query answers as a set of canonical tuple keys.
func (r *Result) AnswerSet() map[string]bool {
	set := make(map[string]bool, len(r.Answers))
	for _, t := range r.Answers {
		set[t.Key()] = true
	}
	return set
}

// evaluator holds the memo tables of one evaluation.
type evaluator struct {
	ad      *adorn.Program
	edb     *database.Store
	opts    Options
	ctx     context.Context
	rules   map[string][]adorn.Rule // adorned rules per head predicate key
	arity   map[string]int
	derived map[string]bool

	// queryKey is the goal key of the original query, against which the
	// FirstN short-circuit compares table sizes.
	queryKey string

	// keys is this evaluation's own symbol table: goal keys and the goal
	// tables intern into it, so memoizing a query's constants never grows
	// the database's table — the table dies with the evaluation's Result.
	keys    *intern.Table
	goals   map[string]Goal
	tables  map[string]*database.Relation // full-arity answers per goal key
	answers int                           // running total of memoized answers across all tables
	changed bool
	stats   Stats

	// keysRd and edbRd read the terms of goal-table and base rows.
	keysRd, edbRd intern.Reader
}

// goalKey encodes a goal with the evaluation's own symbol table.
func (e *evaluator) goalKey(g Goal) string { return g.Key(e.keys) }

// Evaluate runs the top-down evaluation of the adorned program's query over
// the database. It is EvaluateCtx with a background context.
func Evaluate(ad *adorn.Program, edb *database.Store, opts Options) (*Result, error) {
	return EvaluateCtx(context.Background(), ad, edb, opts)
}

// EvaluateCtx is Evaluate under a cancellation context: the context is
// checked before every outer fixpoint pass and once every ctxCheckInterval
// rule-body instantiations, so deadlines interrupt non-terminating top-down
// evaluations promptly. The wrapped context error is distinct from
// ErrLimitExceeded and is returned together with the partial result.
func EvaluateCtx(c context.Context, ad *adorn.Program, edb *database.Store, opts Options) (*Result, error) {
	if ad == nil || len(ad.Rules) == 0 {
		return nil, fmt.Errorf("topdown: empty adorned program")
	}
	if c == nil {
		c = context.Background()
	}
	e := &evaluator{
		ad:      ad,
		edb:     edb,
		opts:    opts,
		ctx:     c,
		rules:   make(map[string][]adorn.Rule),
		arity:   make(map[string]int),
		derived: make(map[string]bool),
		keys:    intern.NewTable(),
		goals:   make(map[string]Goal),
		tables:  make(map[string]*database.Relation),
	}
	e.keysRd, e.edbRd = e.keys.Reader(), edb.Table().Reader()
	e.stats.QueriesByPredicate = make(map[string]int)
	for _, ar := range ad.Rules {
		key := ar.Rule.Head.PredKey()
		e.rules[key] = append(e.rules[key], ar)
		e.arity[key] = len(ar.Rule.Head.Args)
		e.derived[key] = true
	}

	queryGoal := Goal{Pred: ad.QueryPred, Bound: ad.Query.BoundConstants()}
	if _, ok := e.rules[queryGoal.Pred]; !ok {
		return nil, fmt.Errorf("topdown: no rules for the query predicate %s", queryGoal.Pred)
	}
	e.queryKey = e.goalKey(queryGoal)
	if err := e.addGoal(queryGoal); err != nil {
		return e.stopOrFail(queryGoal, err)
	}

	// Outer fixpoint: recursive goals may need several passes before their
	// tables are complete.
	for {
		if err := e.ctxErr(); err != nil {
			return e.result(queryGoal), err
		}
		e.stats.Passes++
		if opts.MaxPasses > 0 && e.stats.Passes > opts.MaxPasses {
			return e.result(queryGoal), fmt.Errorf("%w: more than %d passes", ErrLimitExceeded, opts.MaxPasses)
		}
		e.changed = false
		// Iterate over a snapshot: solving goals may add new ones, which are
		// picked up on the next pass (they are solved eagerly on creation
		// within solveGoal as well).
		keys := make([]string, 0, len(e.goals))
		for k := range e.goals {
			keys = append(keys, k)
		}
		for _, k := range keys {
			if err := e.solveGoal(e.goals[k]); err != nil {
				return e.stopOrFail(queryGoal, err)
			}
		}
		if !e.changed {
			break
		}
	}
	return e.result(queryGoal), nil
}

// stopOrFail converts the errStopEarly sentinel into a successful truncated
// result and passes every other error through with the partial result.
func (e *evaluator) stopOrFail(queryGoal Goal, err error) (*Result, error) {
	if errors.Is(err, errStopEarly) {
		e.stats.StoppedEarly = true
		return e.result(queryGoal), nil
	}
	return e.result(queryGoal), err
}

// ctxCheckInterval is how many rule-body instantiations may pass between two
// context checks inside a pass (the granularity at which cancellation
// interrupts a long derivation cascade).
const ctxCheckInterval = 1024

// ctxErr returns the caller's cancellation wrapped with the package prefix.
// ctx.Err() (not context.Cause) is wrapped so errors.Is against
// context.Canceled / context.DeadlineExceeded holds even under
// context.WithCancelCause; the error is deliberately not an
// ErrLimitExceeded.
func (e *evaluator) ctxErr() error {
	if err := e.ctx.Err(); err != nil {
		return fmt.Errorf("topdown: evaluation interrupted: %w", err)
	}
	return nil
}

// result assembles the Result for the original query. Stats.Answers is the
// running total of the goal tables' sizes: distinct goals of one adorned
// predicate bind different constants, so their answer tuples are disjoint
// and the total counts every fact of F once.
func (e *evaluator) result(queryGoal Goal) *Result {
	e.stats.Queries = len(e.goals)
	e.stats.Answers = e.answers

	// Project the query-goal answers onto the free positions of the query;
	// a FirstN run surfaces at most N of them.
	var answers []database.Tuple
	qrel := e.tables[e.goalKey(queryGoal)]
	if qrel != nil {
		var freePos []int
		for i, t := range e.ad.Query.Atom.Args {
			if !ast.IsGround(t) {
				freePos = append(freePos, i)
			}
		}
		for _, t := range qrel.Tuples() {
			if e.opts.FirstN > 0 && len(answers) >= e.opts.FirstN {
				break
			}
			proj := make(database.Tuple, len(freePos))
			for j, p := range freePos {
				proj[j] = t[p]
			}
			answers = append(answers, proj)
		}
	}
	return &Result{Answers: answers, Goals: e.goals, Stats: e.stats, keys: e.keys, tables: e.tables}
}

func adornOf(key string) ast.Adornment {
	if i := strings.IndexByte(key, '^'); i >= 0 {
		return ast.Adornment(key[i+1:])
	}
	return ""
}

// addGoal registers a new subgoal (if not already present) and solves it.
func (e *evaluator) addGoal(g Goal) error {
	key := e.goalKey(g)
	if _, ok := e.goals[key]; ok {
		return nil
	}
	if e.opts.MaxGoals > 0 && len(e.goals) >= e.opts.MaxGoals {
		return fmt.Errorf("%w: more than %d goals", ErrLimitExceeded, e.opts.MaxGoals)
	}
	if e.opts.MaxMemo > 0 && len(e.goals)+e.answers >= e.opts.MaxMemo {
		return fmt.Errorf("%w: more than %d memo entries (goals + answers)", ErrLimitExceeded, e.opts.MaxMemo)
	}
	e.goals[key] = g
	e.stats.QueriesByPredicate[g.Pred]++
	e.tables[key] = database.NewRelationWith(e.keys, g.Pred, e.arity[g.Pred])
	e.changed = true
	return e.solveGoal(g)
}

// solveGoal runs every rule for the goal's predicate once, adding any new
// answers to the goal's table.
func (e *evaluator) solveGoal(g Goal) error {
	for _, ar := range e.rules[g.Pred] {
		if err := e.solveRule(g, ar); err != nil {
			return err
		}
	}
	return nil
}

// solveRule unifies the goal with the rule head and evaluates the body in
// sip order, generating subgoals for derived literals and reading base
// literals from the database.
func (e *evaluator) solveRule(g Goal, ar adorn.Rule) error {
	rule := ast.RenameApart(ar.Rule, 1)
	// Bind the head's bound arguments to the goal's constants.
	s := ast.NewSubst()
	bi := 0
	for i, arg := range rule.Head.Args {
		if !rule.Head.Adorn.Bound(i) {
			continue
		}
		if bi >= len(g.Bound) {
			return fmt.Errorf("topdown: goal %s has fewer bound values than the adornment of %s", g, rule.Head)
		}
		if !ast.Unify(arg, g.Bound[bi], s) {
			return nil // the goal does not unify with this rule head
		}
		bi++
	}
	order, err := ar.Sip.TotalOrder()
	if err != nil {
		return err
	}
	// Re-map the order onto the renamed rule (positions are unchanged).
	return e.solveBody(g, rule, order, 0, s)
}

// solveBody recursively enumerates substitutions satisfying the body
// literals of the rule in the given order, starting at order index idx.
func (e *evaluator) solveBody(g Goal, rule ast.Rule, order []int, idx int, s ast.Subst) error {
	if idx == len(order) {
		head := s.ApplyAtom(rule.Head)
		if !ast.IsGroundAtom(head) {
			return fmt.Errorf("topdown: rule %s produced the non-ground answer %s", rule, head)
		}
		e.stats.Derivations++
		if e.opts.MaxDerivations > 0 && e.stats.Derivations > e.opts.MaxDerivations {
			return fmt.Errorf("%w: more than %d derivations", ErrLimitExceeded, e.opts.MaxDerivations)
		}
		if e.stats.Derivations%ctxCheckInterval == 0 {
			if err := e.ctxErr(); err != nil {
				return err
			}
		}
		key := e.goalKey(g)
		rel := e.tables[key]
		added, err := rel.Insert(database.Tuple(head.Args))
		if err != nil {
			return err
		}
		if added {
			e.changed = true
			e.answers++
			if e.opts.MaxAnswers > 0 && e.answers > e.opts.MaxAnswers {
				return fmt.Errorf("%w: more than %d answers", ErrLimitExceeded, e.opts.MaxAnswers)
			}
			if e.opts.MaxMemo > 0 && len(e.goals)+e.answers > e.opts.MaxMemo {
				return fmt.Errorf("%w: more than %d memo entries (goals + answers)", ErrLimitExceeded, e.opts.MaxMemo)
			}
			if e.opts.FirstN > 0 && key == e.queryKey && rel.Len() >= e.opts.FirstN {
				return errStopEarly
			}
		}
		return nil
	}
	lit := rule.Body[order[idx]]
	inst := s.ApplyAtom(lit)

	if e.derived[lit.PredKey()] {
		// Build the subgoal from the bound positions of the literal's
		// adornment; they must be ground here (the sip guarantees it).
		var bound []ast.Term
		for i, arg := range inst.Args {
			if !lit.Adorn.Bound(i) {
				continue
			}
			if !ast.IsGround(arg) {
				return fmt.Errorf("topdown: bound argument %d of %s is not ground when the subgoal is generated", i, inst)
			}
			bound = append(bound, arg)
		}
		sub := Goal{Pred: lit.PredKey(), Bound: bound}
		if err := e.addGoal(sub); err != nil {
			return err
		}
		// One scratch tuple serves every row: MatchAtom copies the terms
		// into s2, so refilling it after the recursive call is safe.
		table := e.tables[e.goalKey(sub)]
		tuple := make(database.Tuple, 0, table.Arity)
		for pos, n := 0, table.Len(); pos < n; pos++ {
			tuple = database.AppendTerms(tuple[:0], &e.keysRd, table.Row(pos))
			s2 := s.Clone()
			if ast.MatchAtom(inst, tuple, s2) {
				if err := e.solveBody(g, rule, order, idx+1, s2); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// Base literal: read from the database.
	rel := e.edb.Existing(lit.PredKey())
	if rel == nil {
		return nil
	}
	var cols []int
	var vals []ast.Term
	for i, arg := range inst.Args {
		if ast.IsGround(arg) {
			cols = append(cols, i)
			vals = append(vals, arg)
		}
	}
	cur := rel.Lookup(cols, vals)
	tuple := make(database.Tuple, 0, rel.Arity)
	for pos := cur.Next(); pos >= 0; pos = cur.Next() {
		tuple = database.AppendTerms(tuple[:0], &e.edbRd, rel.Row(pos))
		s2 := s.Clone()
		if ast.MatchAtom(inst, tuple, s2) {
			if err := e.solveBody(g, rule, order, idx+1, s2); err != nil {
				return err
			}
		}
	}
	return nil
}
