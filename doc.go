// Package repro is the root of a from-scratch Go reproduction of Beeri &
// Ramakrishnan, "On the Power of Magic" (PODS 1987 / JLP 1991): a deductive
// database engine whose recursive query evaluation is organized as sideways
// information passing (sips) plus program rewriting (generalized magic sets,
// supplementary magic sets, counting and supplementary counting, with the
// semijoin optimization) evaluated bottom-up.
//
// The public API lives in package repro/datalog; the command-line tools are
// cmd/magicsets (rewrite and evaluate a query), cmd/datalogvet (the static
// analyzer: lint a program without evaluating it), cmd/benchtables
// (regenerate every experiment documented in EXPERIMENTS.md) and
// cmd/benchjson (archive benchmark runs as JSON, see `make bench-json`).
// The root package itself holds only the repository-level benchmarks in
// bench_test.go.
//
// Bottom-up evaluation compiles every rule into a join pipeline executed
// over interned constant IDs (internal/eval/plan.go, compile.go): no
// substitution maps are allocated and no terms materialized on the hot
// path, and the stats it reports (derivations, join probes, index and
// pipeline-op counters) are the cost quantities of the paper's Section 9;
// EXPERIMENTS.md explains how to read them. The pipelines are the only rule
// executor and one loop runs every semi-naive fixpoint at every
// parallelism; the substitution-based evaluator they are checked against
// is a test-side oracle (internal/eval/termspace_test.go).
//
// The facade is a serving layer built on the paper's program/data split,
// surfaced as four first-class pieces: datalog.Compile produces an
// immutable, shareable Program (parse + arity check + stratification happen
// once); datalog.Database is the versioned mutable fact store, written
// through atomic buffered transactions (Begin/Txn.Commit: the whole batch
// is validated before the first write, constants are bulk-interned and rows
// bulk-inserted under one write-lock acquisition); Database.Snapshot pins
// the current commit version as an immutable view in O(#relations), on
// which any number of queries are mutually consistent and lock-free; and
// Snapshot.With binds a Program to that view. That is the one way to run a
// query — there is no read path over the live store, so nothing holds a
// lock while evaluating and a rule change is just binding the next snapshot
// to another Program.
//
// On top of the split sits incremental view maintenance:
// Database.Materialize registers a Program whose derived relations are
// computed once and then kept current inside every commit — semi-naive
// deltas seeded from exactly the facts the batch changed, with per-row
// derivation counts (non-recursive predicates) or delete-and-rederive
// (recursive ones) handling retraction without recomputation. Queries over
// materialized predicates skip evaluation
// entirely and answer by index lookup (Stats.MaterializedHit); maintenance
// cost is proportional to the batch's consequences, not the database (see
// EXPERIMENTS.md).
//
// datalog.Open(dir, opts) makes the same Database durable: every committed
// batch is appended to a CRC-framed write-ahead log (internal/wal) and
// fsynced before the in-memory store mutates, checkpoints snapshot the full
// EDB and truncate the log behind them, and reopening the directory replays
// back to the exact committed version — tolerating the torn record a crash
// mid-append leaves at the log tail. The fsync policy (always/interval/none)
// trades the acknowledgment guarantee against batch-write throughput;
// NewDatabase remains the zero-cost memory-only default. A SIGKILL crash
// harness (datalog/crash_test.go, `make crashtest`) holds recovery to a
// differential oracle: acknowledged commits are never lost and the
// recovered store equals the attempted prefix exactly. cmd/datalogd serves
// all of this over HTTP (-data-dir, -fsync, -checkpoint-every), and
// ARCHITECTURE.md is the map of how everything fits together, stage by
// stage and package by package.
//
// Compilation is also the static-analysis gate: every source position
// survives parsing (internal/parser reports line:col on every error), and
// internal/lint runs a suite of passes over the parsed program — hygiene
// (typo'd predicates, singleton variables, arity conflicts, the paper's
// well-formedness and connectivity conditions) and the Section 10 analyses,
// most notably the Theorem 10.3 prediction that the counting strategies
// diverge for a query form on every database. Error findings fail
// datalog.Compile with positions; warnings ride on the Program
// (Program.Diagnostics, CompileStrict), the engine transparently swaps a
// statically divergent counting form for its equivalent magic rewriting
// (Options.OnDivergence, Stats.DivergenceFallback), and cmd/datalogvet
// surfaces the same diagnostics as a standalone linter with stable DLnnnn
// codes, human and JSON output.
//
// Query forms (predicate + binding pattern + strategy + sip) are adorned,
// rewritten and compiled once — explicitly via Snapshot.Prepare /
// PreparedQuery.RunCtx, or transparently inside Snapshot.QueryCtx — cached
// on the Program (so the next version's snapshot reuses them), and each run evaluates the
// shared compiled pipelines against a copy-on-write overlay of the store,
// so repeated queries never re-rewrite the program or copy the extensional
// database. Every run takes a context.Context, threaded through the
// fixpoint loops of all strategies and checked at iteration and
// per-N-derivation granularity, so request deadlines interrupt even
// divergent evaluations; the wrapped ctx error is distinct from
// datalog.ErrLimitExceeded. Answers come back as typed datalog.Value trees
// surfaced straight from the interned constant IDs (rendering to source
// syntax is lazy), and PreparedQuery.Stream yields them as an iter.Seq2
// cursor — with Options.FirstN the evaluation itself stops as soon as N
// answers exist, checked between delta rounds, which is what makes
// existence-style point queries cheap. Programs, databases and snapshots
// are safe for concurrent use: commits serialize against each other only,
// queries run without locks entirely.
package repro
