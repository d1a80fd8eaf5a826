// Package datalog is the public API of this repository: a deductive
// database engine for Horn-clause (Datalog with function symbols) programs
// whose query evaluation is organized exactly as in Beeri & Ramakrishnan,
// "On the Power of Magic" (PODS 1987 / JLP 1991) — a sideways
// information-passing strategy per rule, a program rewriting that compiles
// the sip collection into the program, and plain bottom-up evaluation of the
// rewritten program.
//
// # The four pieces: Program, Database, Txn, Snapshot
//
// The paper's central observation is program/data separation: adornment,
// sip selection and rewriting depend only on the rules and the query form,
// never on the extensional database. The API mirrors that split into four
// first-class pieces:
//
//   - Compile parses, arity-checks and stratifies rules once into an
//     immutable Program, shareable across databases and goroutines.
//   - NewDatabase creates a Database of ground facts that moves forward
//     through atomic, monotonically versioned commits.
//   - Database.Begin opens a Txn buffering Assert/Retract/AssertText;
//     Commit validates the whole batch before the first write (a bad fact
//     anywhere commits nothing), takes the write lock once, bulk-interns
//     the constants and bulk-inserts the rows — the intended path for
//     loading large fact sets.
//   - Database.Snapshot pins the current version as an immutable view in
//     O(#relations): every query against one Snapshot — from any number of
//     goroutines, with any number of commits landing concurrently — sees
//     exactly the same facts, which is the unit of request-level
//     consistency a live store cannot offer.
//
// A typical serving setup:
//
//	prog, err := datalog.Compile(`
//	    anc(X, Y) :- par(X, Y).
//	    anc(X, Y) :- par(X, Z), anc(Z, Y).
//	`)
//	if err != nil { ... }
//	db := datalog.NewDatabase()
//	txn := db.Begin()
//	txn.AssertText(`par(john, mary). par(mary, sue).`)
//	if err := txn.Commit(); err != nil { ... }
//
//	snap := db.Snapshot().With(prog) // pins facts AND rules for one request
//	defer snap.Release()             // then commits write in place again
//	res, err := snap.QueryCtx(ctx, "anc(john, Y)", datalog.Options{Strategy: datalog.MagicSets})
//
// That is the one way to run a query: every read goes through a Snapshot,
// so there is no live-store read path, no lock held during evaluation and
// nothing that can go stale. Ground facts written in the program text are
// not part of the compiled rules; Database.LoadFacts commits them
// explicitly, in one transaction.
//
// # Queries, contexts, typed answers
//
// Queries run under a context.Context, threaded through the fixpoint loop
// and checked both between iterations and every few
// thousand rule firings, so a deadline or cancellation interrupts even a
// divergent evaluation promptly; the returned error wraps ctx.Err() (test
// with errors.Is against context.Canceled or context.DeadlineExceeded) and
// is distinct from ErrLimitExceeded, which still reports an exhausted
// Options limit. Answers come back as typed values (Answer.Vals, Row)
// surfaced straight from the interned constants.
//
// Every strategy runs the one semi-naive bottom-up evaluator: on the
// unrewritten program (SemiNaive, the baseline the rewritings are measured
// against) or on the generalized magic-sets, supplementary magic-sets,
// counting and supplementary counting rewritings, with full, partial or
// greedy sips and the optional semijoin optimization of the counting
// methods. The paper's other yardsticks — naive iteration (Section 1) and
// memoizing top-down evaluation (Section 9) — are test oracles, not
// strategies.
//
// # Static analysis: diagnostics and divergence prediction
//
// Compile runs the full static-analysis suite (internal/lint) over the
// program: error-level findings — arity conflicts, negated literals,
// unstratifiable negation — fail the compile with their source positions in
// the message, while warnings and infos (typo'd predicates, singleton
// variables, range-restriction and connectivity violations, and the
// Section 10 analyses) are retained on the Program:
//
//	prog, _ := datalog.Compile(src)
//	for _, d := range prog.Diagnostics() { fmt.Println(d) }
//	// e.g. 3:13: warning: predicate pth/2 is not defined ... [DL0003]
//
// Each Diagnostic carries a stable code (DL0001–DL0013), a severity, a
// line:col position and related positions (the other site of an arity
// conflict, the recursive rule on a divergence cycle). CompileStrict
// refuses programs with any warning, and Program.DiagnosticsFor vets one
// query form against the program — in particular running the Theorem 10.3
// divergence prediction: a reachable cycle in the argument graph of the
// adorned form proves the counting strategies diverge on every database.
// The engine consults the same prediction at preparation time; by default
// (Options.OnDivergence == DivergenceFallback) a counting query whose form
// is statically divergent transparently evaluates the equivalent magic
// rewriting instead — the answers are identical by the paper's equivalence
// theorems — and reports it in Stats.DivergenceFallback. DivergenceFail
// turns the prediction into an ErrCountingDiverges error, and DivergenceRun
// restores the old run-anyway behavior (observable only under Options
// limits or a context deadline). cmd/datalogvet surfaces the same
// diagnostics as a standalone linter with human and JSON output.
//
// # Prepare once, run many, stream what you need
//
// The rewriting depends only on the query *form* — the predicate and its
// binding pattern — while the constants occur only in the seed facts and
// the answer selection. A server answering many point queries of the same
// shape should therefore prepare the form once and run it per request:
//
//	pq, err := snap.Prepare("anc(john, Y)", datalog.Options{Strategy: datalog.MagicSets})
//	if err != nil { ... }
//	res, _ := pq.RunCtx(ctx)        // the prepared constants: anc(john, Y)
//	res, _ = pq.RunCtx(ctx, "mary") // same compiled form, new constant: anc(mary, Y)
//
// A caller that does not need the whole answer set ranges over a streaming
// cursor instead; with Options.FirstN the engine also stops the fixpoint
// itself as soon as enough answers exist, which is what makes
// existence-style point queries cheap:
//
//	pq, _ = snap.Prepare("anc(john, Y)", datalog.Options{Strategy: datalog.MagicSets, FirstN: 1})
//	for row, err := range pq.Stream(ctx) {
//	    if err != nil { ... }
//	    name, _ := row[0].Symbol()
//	    fmt.Println(name) // the first ancestor found — evaluation stopped early
//	}
//
// Parse, adornment, rewriting and the compilation of the bottom-up join
// pipelines all happen in Prepare and are cached on the Program (keyed by
// query form and symbol table), so every snapshot of one database bound to
// the same program shares one preparation per form — also across commit
// versions: preparing the form again on the next version's snapshot is a
// cache hit that compiles nothing. Each run only parameterizes the seeds
// and evaluates against a copy-on-write overlay, never copying the
// extensional database. Snapshot.Query uses the same machinery
// transparently (Stats.PlanCacheHit reports a warm form). Programs,
// databases, snapshots and prepared runs are all safe for concurrent use;
// queries proceed without any lock, whatever commits land meanwhile.
//
// # Materialized views: stop paying for inference on reads
//
// Prepared queries amortize compilation but not derivation: every run still
// evaluates the rules against the current facts. Database.Materialize moves
// that work to the write side. It registers one Program with the database,
// computes its IDB once, keeps the derived relations in the store, and after
// every commit runs incremental maintenance seeded from exactly the facts
// the batch added and removed — semi-naive deltas forward for asserts,
// per-row derivation counts (non-recursive predicates) or delete-and-
// rederive (recursive ones) for retracts. Maintenance cost is proportional
// to the consequences of the batch, not to the database; EXPERIMENTS.md has
// the measurements.
//
//	prog, _ := datalog.Compile(`
//	    anc(X, Y) :- par(X, Y).
//	    anc(X, Y) :- par(X, Z), anc(Z, Y).
//	`)
//	db := datalog.NewDatabase()
//	// load par facts ...
//	if err := db.Materialize(prog); err != nil { ... }
//
//	res, _ := db.Snapshot().With(prog).Query("anc(john, Y)", datalog.Options{})
//	// res.Stats.MaterializedHit == true: the answer came from an index
//	// lookup on the maintained anc relation — no rules were evaluated.
//
// Once registered, any query over a derived predicate of that program —
// one-shot, prepared or streamed — short-circuits to a pure index lookup
// whatever Options.Strategy says, and Stats.MaterializedHit reports it.
// Queries over base predicates, other programs, or runs with
// Options.NoMaterialize evaluate as before; the results are identical
// either way (a differential test pins materialized ≡ cold re-derivation
// across randomized commit sequences). Snapshots capture the registration
// with the data: a snapshot keeps answering from its pinned derived
// relations even after Dematerialize or a replacing Materialize on the live
// database.
//
// The write side pays for the reads: a Txn.Commit against a database with a
// registration runs maintenance inside the same critical section, so no
// reader ever observes the base facts without their consequences. Commits
// may no longer write derived predicates of the registered program (they
// fail validation), and Materialize rejects a program whose derived
// predicates already have stored base facts. If maintenance itself fails —
// resource limits, a non-ground derived head — the facts stay committed,
// the registration is dropped (queries fall back to evaluation), and Commit
// returns the wrapped maintenance error.
//
// Choose Materialize when reads dominate writes or read latency is the
// constraint; stay with prepared queries when writes dominate, when many
// programs share one database, or when queries are too varied to pin one
// program's IDB. MaterializedStats reports the registration's footprint and
// work counters (facts kept, maintenance runs and semi-naive rounds,
// derivation-count increments/decrements, rows rescued by rederivation, and
// CountRows — the number of rows carrying a 4-byte derivation count, which
// is the memory price of counting-based retraction).
package datalog

import (
	"errors"
	"fmt"

	"repro/internal/eval"
	"repro/internal/sip"
)

// Strategy selects how a query is evaluated.
type Strategy string

// The evaluation strategies.
const (
	// SemiNaive evaluates the unrewritten program bottom-up with the
	// semi-naive refinement, then selects the answers.
	SemiNaive Strategy = "semi-naive"
	// MagicSets rewrites with generalized magic sets (Section 4) and
	// evaluates the result bottom-up.
	MagicSets Strategy = "magic"
	// SupplementaryMagicSets rewrites with generalized supplementary magic
	// sets (Section 5).
	SupplementaryMagicSets Strategy = "supplementary-magic"
	// Counting rewrites with generalized counting (Section 6).
	Counting Strategy = "counting"
	// SupplementaryCounting rewrites with generalized supplementary counting
	// (Section 7).
	SupplementaryCounting Strategy = "supplementary-counting"
)

// Strategies lists every supported strategy in presentation order.
func Strategies() []Strategy {
	return []Strategy{SemiNaive, MagicSets, SupplementaryMagicSets, Counting, SupplementaryCounting}
}

// ParseStrategy converts a string (as used on the command line) into a
// Strategy.
func ParseStrategy(s string) (Strategy, error) {
	for _, st := range Strategies() {
		if string(st) == s {
			return st, nil
		}
	}
	return "", fmt.Errorf("datalog: unknown strategy %q (want one of %v)", s, Strategies())
}

// SipPolicy selects which sideways information-passing strategy is attached
// to each rule during adornment.
type SipPolicy string

// The sip policies.
const (
	// SipFull is the full (compressed) left-to-right sip: every binding
	// obtained so far is passed to each later derived literal.
	SipFull SipPolicy = "full"
	// SipPartial is the partial left-to-right sip: only the bindings
	// produced since the previous derived literal are passed on.
	SipPartial SipPolicy = "partial"
	// SipGreedy chooses the body evaluation order greedily, preferring the
	// literal with the most bound arguments at each step, and passes every
	// available binding (a full sip over the chosen order). Use it when the
	// textual order of a rule's body is a poor evaluation order.
	SipGreedy SipPolicy = "greedy"
)

// Options configure one query evaluation. The JSON field tags are a stable
// wire contract (used by the cmd/datalogd protocol): new fields may be
// added, but existing names never change. Values arriving over the wire are
// untrusted, which is why every entry point validates the options and
// returns a descriptive error for out-of-range or unknown values instead of
// undefined behavior.
type Options struct {
	// Strategy selects the evaluation strategy; the zero value means
	// MagicSets.
	Strategy Strategy `json:"strategy,omitempty"`
	// Sip selects the sip policy for the rewriting strategies; the zero
	// value means SipFull.
	Sip SipPolicy `json:"sip,omitempty"`
	// Semijoin applies the semijoin optimization of Section 8 to the
	// counting rewritings (ignored by other strategies, and silently skipped
	// when the program does not qualify under Theorem 8.3).
	Semijoin bool `json:"semijoin,omitempty"`
	// KeepAllGuards disables the Proposition 4.3 simplification of the
	// magic-sets rewriting, inserting a magic guard before every derived
	// body occurrence.
	KeepAllGuards bool `json:"keep_all_guards,omitempty"`
	// Simplify removes tautological and duplicate rules from the rewritten
	// program before evaluation (for example the magic_a(X) :- magic_a(X)
	// rule of the nonlinear-ancestor rewriting).
	Simplify bool `json:"simplify,omitempty"`
	// MaxIterations, MaxFacts and MaxDerivations bound the bottom-up
	// evaluation (0 = unlimited); ErrLimitExceeded is reported when a bound
	// is hit, which is how non-terminating evaluations (e.g. counting on
	// cyclic data) are observed safely. MaxIterations applies per strongly
	// connected component of the evaluated program's dependency graph, so it
	// bounds how long any one fixpoint loop may run regardless of how many
	// strata the program has.
	MaxIterations  int   `json:"max_iterations,omitempty"`
	MaxFacts       int   `json:"max_facts,omitempty"`
	MaxDerivations int64 `json:"max_derivations,omitempty"`
	// FirstN, when positive, stops the evaluation as soon as N answers
	// exist and caps Result.Answers (and the rows a Stream yields) at N.
	// The answer relation is checked between fixpoint rounds, so the engine
	// stops within one delta round of the N-th answer instead of running to
	// fixpoint. Stats.StoppedEarly reports that the cutoff fired.
	// Like the Max limits it is a run-time option: it does not change the
	// prepared query form.
	FirstN int `json:"first_n,omitempty"`
	// NoMaterialize disables the materialized-view fast path for this run:
	// even when the database keeps the queried program's IDB materialized
	// (Database.Materialize), the query evaluates from scratch under its
	// strategy instead of answering by lookup. Differential tests use it to
	// compare the maintained IDB against cold re-derivation; like FirstN it
	// is a run-time option that does not change the prepared form.
	NoMaterialize bool `json:"no_materialize,omitempty"`
	// Parallelism is the shard count of the bottom-up fixpoint's large delta
	// rounds: a recursive round whose delta holds at least 256 rows is
	// hash-partitioned across this many goroutines, joined at the round
	// barrier. The components of the evaluated program always run one at a
	// time on the calling goroutine. 0 means GOMAXPROCS, 1 partitions no
	// round, and values above 64 are clamped to 64. The answers are identical
	// at every setting; Stats.WorkerRounds reports how many shard rounds ran.
	// Like the Max limits it is a run-time option: it does not change the
	// prepared query form.
	Parallelism int `json:"parallelism,omitempty"`
	// OnDivergence selects what the engine does when a counting strategy is
	// requested for a query form the Section 10 analysis proves divergent on
	// every database (Theorem 10.3; see Program.DiagnosticsFor). The zero
	// value is DivergenceFallback. It shapes the prepared form, so forms
	// prepared under different policies do not share a preparation.
	OnDivergence DivergencePolicy `json:"on_divergence,omitempty"`
}

// Validate checks the options for out-of-range limits and unknown
// enumeration values, returning a descriptive error for the first problem
// found (nil when the options are usable). Zero values are always valid —
// they mean "default" or "unlimited". Every query entry point (Query,
// Prepare, Stream) validates its options
// through this method, so a serving layer unmarshaling untrusted Options
// can rely on a clean error instead of undefined behavior; calling it
// directly just surfaces the problem before any work is done.
func (o Options) Validate() error {
	if o.Strategy != "" {
		if _, err := ParseStrategy(string(o.Strategy)); err != nil {
			return err
		}
	}
	switch o.Sip {
	case "", SipFull, SipPartial, SipGreedy:
	default:
		return fmt.Errorf("datalog: unknown sip policy %q (want one of [%s %s %s])", o.Sip, SipFull, SipPartial, SipGreedy)
	}
	switch o.OnDivergence {
	case "", DivergenceFallback, DivergenceFail, DivergenceRun:
	default:
		return fmt.Errorf("datalog: unknown divergence policy %q (want one of [%s %s %s])",
			o.OnDivergence, DivergenceFallback, DivergenceFail, DivergenceRun)
	}
	for _, lim := range []struct {
		name string
		v    int64
	}{
		{"MaxIterations", int64(o.MaxIterations)},
		{"MaxFacts", int64(o.MaxFacts)},
		{"MaxDerivations", o.MaxDerivations},
		{"FirstN", int64(o.FirstN)},
		{"Parallelism", int64(o.Parallelism)},
	} {
		if lim.v < 0 {
			return fmt.Errorf("datalog: Options.%s is negative (%d); use 0 for the default", lim.name, lim.v)
		}
	}
	return nil
}

// DivergencePolicy is the Options.OnDivergence setting: how a query path
// reacts when the requested counting strategy is statically divergent.
type DivergencePolicy string

const (
	// DivergenceFallback (the default) transparently evaluates the
	// equivalent magic-sets rewriting instead — same answers (the
	// equivalence theorems of Sections 5 and 7), guaranteed termination on
	// Datalog (Theorem 10.2) — and sets Stats.DivergenceFallback.
	DivergenceFallback DivergencePolicy = "fallback"
	// DivergenceFail fails the query/prepare fast with ErrCountingDiverges
	// instead of evaluating anything.
	DivergenceFail DivergencePolicy = "fail"
	// DivergenceRun runs the requested counting strategy anyway; the
	// evaluation will not terminate unless bounded by MaxIterations,
	// MaxFacts, MaxDerivations, FirstN or a context deadline.
	DivergenceRun DivergencePolicy = "run"
)

// ErrLimitExceeded is returned (wrapped) when evaluation exceeds a limit set
// in Options before completing.
var ErrLimitExceeded = errors.New("datalog: evaluation limit exceeded")

// ErrCountingDiverges is returned (wrapped) when a counting strategy is
// requested under Options{OnDivergence: DivergenceFail} for a query form the
// static analysis proves divergent on every database (Theorem 10.3).
var ErrCountingDiverges = errors.New("datalog: counting strategy statically divergent")

// Answer is a single answer to a query: the values of the query's free
// variables, in the order those variables appear in the query.
type Answer struct {
	// Vals holds the typed answer values, surfaced directly from the
	// engine's interned constants: inspect them with Value.Kind, Value.Int,
	// Value.Symbol and Value.Compound, or render with Value.String.
	Vals Row
}

// String renders the answer as a parenthesized tuple.
func (a Answer) String() string { return a.Vals.String() }

// Stats summarizes the work done to answer a query: what the facade itself
// knows (the options echoed, the fact counts, which shortcut fired) around
// the evaluator's own counters, which are declared once in eval.Counters and
// promoted here (Stats.Derivations, Stats.JoinProbes, …).
type Stats struct {
	// Strategy echoes the strategy used.
	Strategy Strategy `json:"strategy"`
	// Sip echoes the sip policy used (empty for non-rewriting strategies).
	Sip SipPolicy `json:"sip,omitempty"`
	// RewrittenRules is the number of rules in the rewritten program (0 when
	// no rewriting was performed).
	RewrittenRules int `json:"rewritten_rules,omitempty"`
	// DerivedFacts counts the facts computed for (rewritten) derived
	// predicates, excluding auxiliary predicates.
	DerivedFacts int `json:"derived_facts"`
	// AuxFacts counts the facts computed for the auxiliary predicates
	// introduced by the rewriting (magic, supplementary, counting).
	AuxFacts int `json:"aux_facts,omitempty"`
	eval.Counters
	// PlanCacheHit reports that the evaluation reused a previously prepared
	// query form (an explicit PreparedQuery, or Snapshot.Query hitting the
	// program's form cache): adornment, rewriting and plan analysis were all
	// skipped (Snapshot.Query still parses the query text per call; only
	// PreparedQuery.Run skips parsing too), and CompiledPlans counts only
	// pipelines compiled fresh during this run — 0 once the form is warm.
	PlanCacheHit bool `json:"plan_cache_hit,omitempty"`
	// MaterializedHit reports that the query was answered by pure index
	// lookup from the database's materialized IDB (Database.Materialize): no
	// evaluation ran, so the work counters (Derivations, JoinProbes, …) are
	// zero and DerivedFacts is the stored size of the queried relation. The
	// per-database aggregate counters live in MaterializedStats.
	MaterializedHit bool `json:"materialized_hit,omitempty"`
	// DivergenceFallback reports that a counting strategy was requested but
	// the Section 10 analysis proved the form divergent on every database,
	// so the engine evaluated the equivalent magic rewriting instead
	// (Options.OnDivergence = DivergenceFallback, the default). Strategy
	// still echoes the requested counting strategy.
	DivergenceFallback bool `json:"divergence_fallback,omitempty"`
}

// TotalFacts returns DerivedFacts + AuxFacts.
func (s Stats) TotalFacts() int { return s.DerivedFacts + s.AuxFacts }

// Result is the outcome of a query evaluation.
type Result struct {
	// Answers lists the answers in discovery order.
	Answers []Answer
	// Stats summarizes the evaluation.
	Stats Stats
	// RewrittenProgram is the rewritten program in source syntax (empty for
	// strategies that do not rewrite).
	RewrittenProgram string
	// Seeds are the seed facts added for the rewritten program, in source
	// syntax.
	Seeds []string
	// Safety is the safety report for the adorned program (nil for the
	// non-rewriting strategies, which do not adorn).
	Safety *SafetyReport
}

// AnswerSet returns the answers as a set of rendered tuples, convenient for
// order-independent comparisons.
func (r *Result) AnswerSet() map[string]bool {
	set := make(map[string]bool, len(r.Answers))
	for _, a := range r.Answers {
		set[a.String()] = true
	}
	return set
}

// SafetyReport is the public projection of the Section 10 safety analysis.
type SafetyReport struct {
	// IsDatalog reports whether the program is function-free.
	IsDatalog bool
	// MagicSafe reports that bottom-up evaluation of the magic rewriting is
	// guaranteed to terminate (Theorems 10.1/10.2), with the reason.
	MagicSafe       bool
	MagicSafeReason string
	// CountingSafe reports that the counting rewritings are guaranteed to
	// terminate on every database (Theorem 10.1).
	CountingSafe bool
	// CountingDivergesOnAllData reports that the counting rewritings diverge
	// for this query regardless of the data (Theorem 10.3).
	CountingDivergesOnAllData bool
}

// sipStrategy maps a SipPolicy to its implementation.
func sipStrategy(p SipPolicy) (sip.Strategy, error) {
	switch p {
	case "", SipFull:
		return sip.FullLeftToRight(), nil
	case SipPartial:
		return sip.PartialLeftToRight(), nil
	case SipGreedy:
		return sip.GreedyBoundFirst(), nil
	default:
		return nil, fmt.Errorf("datalog: unknown sip policy %q", p)
	}
}

// evalOptions maps the run-time limits of the public options onto the
// bottom-up evaluator's options.
func evalOptions(opts Options) eval.Options {
	return eval.Options{
		MaxIterations:  opts.MaxIterations,
		MaxFacts:       opts.MaxFacts,
		MaxDerivations: opts.MaxDerivations,
		Parallelism:    opts.Parallelism,
	}
}

func wrapLimit(err error) error {
	if errors.Is(err, eval.ErrLimitExceeded) {
		return fmt.Errorf("%w: %v", ErrLimitExceeded, err)
	}
	return err
}
