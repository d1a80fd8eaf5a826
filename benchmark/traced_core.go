package main

// The two deepest depths of the traced run, shared by every workload: the
// library calls (repro/datalog) and the eval, database, rewrite, parser and
// wal calls the library is made of.

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/datalog"
	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/depgraph"
	"repro/internal/eval"
	"repro/internal/intern"
	"repro/internal/lint"
	"repro/internal/parser"
	"repro/internal/rewrite"
	"repro/internal/rewrite/counting"
	"repro/internal/rewrite/magic"
	"repro/internal/rewrite/supmagic"
	"repro/internal/sip"
	"repro/internal/wal"
)

// coreStack is the deepest copy of the state: a store, a log when the
// workload is durable, and the prepared form the reads evaluate.
type coreStack struct {
	store   *database.Store
	log     *wal.Log // nil for a memory-only workload
	dir     string
	form    *form
	version uint64
}

// form is what a cold Prepare builds: the parsed query, the rewriting and
// the compiled plans.
type form struct {
	q  ast.Query
	rw *rewrite.Rewriting
	pp *eval.Prepared
}

// atomsOf converts wire facts to ground atoms.
func atomsOf(facts []wireFact) []ast.Atom {
	out := make([]ast.Atom, len(facts))
	for i, f := range facts {
		out[i] = ast.NewAtom(f.Pred, ast.S(f.Args[0]), ast.S(f.Args[1]))
	}
	return out
}

// rewriterFor maps a strategy to its rewriter and span name, as the
// library's own dispatch does.
func rewriterFor(strategy string) (rewrite.Rewriter, string) {
	switch strategy {
	case "supplementary-magic":
		return supmagic.New(supmagic.Options{}), "rewrite.supmagic"
	case "counting":
		return counting.New(counting.Options{}), "rewrite.counting"
	case "supplementary-counting":
		return counting.NewSupplementary(counting.Options{}), "rewrite.counting"
	default:
		return magic.New(magic.Options{}), "rewrite.magic"
	}
}

// frontEnd runs the calls datalog.Compile and a cold Prepare are made of —
// parse, lint, stratify; parse the query, adorn, rewrite, compile plans —
// under spans parented to the Compile and Prepare spans of the same op.
func (r *tracedRun) frontEnd(opID, compileSpan, prepareSpan int, src, query, strategy string, tab *intern.Table) (*form, error) {
	var (
		unit *parser.Unit
		ad   *adorn.Program
		f    form
		err  error
	)
	r.call("parser.program", "parser", opID, compileSpan, func() { unit, err = parser.Parse(src) })
	if err != nil {
		return nil, err
	}
	prog := unit.Program()
	r.call("lint.check", "lint", opID, compileSpan, func() {
		_ = lint.Check(prog, lint.Options{Facts: unit.Facts, AutoQueryForms: true})
	})
	r.call("depgraph.analyze", "depgraph", opID, compileSpan, func() { _ = depgraph.Analyze(prog) })

	r.call("parser.query", "parser", opID, prepareSpan, func() { f.q, err = parser.ParseQuery(query) })
	if err != nil {
		return nil, err
	}
	r.call("adorn.adorn", "adorn", opID, prepareSpan, func() { ad, err = adorn.Adorn(prog, f.q, sip.FullLeftToRight()) })
	if err != nil {
		return nil, err
	}
	rewriter, span := rewriterFor(strategy)
	r.call(span, "rewrite", opID, prepareSpan, func() { f.rw, err = rewriter.Rewrite(ad) })
	if err != nil {
		return nil, err
	}
	r.call("eval.prepare", "eval", opID, prepareSpan, func() { f.pp, err = eval.Prepare(f.rw.Program, tab) })
	if err != nil {
		return nil, err
	}
	if strategy == "magic" {
		r.add("rewrite.rules_out", float64(len(f.rw.Program.Rules)))
	}
	return &f, nil
}

// coldLib runs Compile and a cold Prepare on snap at the library depth and
// returns the prepared query with the ids of the two spans.
func (r *tracedRun) coldLib(opID, parent int, snap *datalog.Snapshot, src, query, strategy string) (pq *datalog.PreparedQuery, compileSpan, prepareSpan int, err error) {
	var prog *datalog.Program
	compileSpan = r.call("datalog.compile", "datalog", opID, parent, func() { prog, err = datalog.Compile(src) })
	if err != nil {
		return nil, 0, 0, err
	}
	prepareSpan = r.call("datalog.prepare_cold", "datalog", opID, parent, func() {
		pq, err = snap.With(prog).Prepare(query, datalog.Options{Strategy: datalog.Strategy(strategy)})
	})
	return pq, compileSpan, prepareSpan, err
}

// evalStats records the counts one evaluation reported.
func (r *tracedRun) evalStats(s datalog.Stats, answers int) {
	if answers == 0 {
		return
	}
	n := float64(answers)
	r.add("eval.derivations", float64(s.Derivations))
	r.add("eval.iterations", float64(s.Iterations))
	r.add("eval.derived_facts", float64(s.DerivedFacts))
	r.add("eval.aux_facts", float64(s.AuxFacts))
	r.add("eval.join_probes_per_answer", float64(s.JoinProbes)/n)
	r.add("eval.facts_per_answer", float64(s.DerivedFacts+s.AuxFacts)/n)
	if s.IndexProbes > 0 {
		r.add("eval.index_hit_ratio", float64(s.IndexHits)/float64(s.IndexProbes))
	}
}

// coreRead runs what Snapshot and RunCtx are made of — pin, parameterize,
// fixpoint, answer selection, and the overlay the fixpoint evaluates over —
// under spans parented to the Snapshot and RunCtx spans of the same op. It
// returns the number of answers.
func (r *tracedRun) coreRead(opID, snapSpan, runSpan int, store *database.Store, f *form, bound []ast.Term) (int, error) {
	var (
		pin     *database.Store
		seeds   []ast.Atom
		pattern ast.Atom
		out     *database.Store
		rows    [][]intern.ID
		err     error
	)
	r.call("database.pin", "database", opID, snapSpan, func() { pin = store.Pin() })
	r.call("rewrite.parameterize", "rewrite", opID, runSpan, func() { seeds, pattern, err = f.rw.Parameterize(bound) })
	if err != nil {
		return 0, err
	}
	fix := r.counted("eval.fixpoint", "eval", opID, runSpan, func() {
		out, _, err = f.pp.EvaluateCtx(context.Background(), pin, seeds, eval.Options{})
	})
	if err != nil {
		return 0, err
	}
	r.call("eval.answers", "eval", opID, runSpan, func() { rows = eval.AnswerRows(out, f.rw.AnswerPred, pattern, 0) })
	r.call("database.overlay", "database", opID, fix, func() { _ = pin.Overlay() })
	return len(rows), nil
}

// coreCommit applies one batch at the deepest depth — validate, append,
// fsync, apply: what Commit does under its lock — under spans parented to
// the Commit span of the same op.
func (r *tracedRun) coreCommit(core *coreStack, opID, commitSpan int, retracts, asserts []ast.Atom) error {
	var err error
	if core.log != nil {
		r.call("database.validate", "database", opID, commitSpan, func() { err = core.store.ValidateBatch(retracts, asserts) })
		if err != nil {
			return err
		}
		r.call("wal.append", "wal", opID, commitSpan, func() { err = core.log.Append(core.version+1, retracts, asserts) })
		if err != nil {
			return err
		}
		r.call("wal.sync", "wal", opID, commitSpan, func() { err = core.log.Sync() })
		if err != nil {
			return err
		}
	}
	before := mallocs()
	id := r.call("database.apply", "database", opID, commitSpan, func() { _, _, err = core.store.Apply(retracts, asserts) })
	if err != nil {
		return err
	}
	core.version++
	facts := float64(len(retracts) + len(asserts))
	r.add("database.apply_allocs_per_fact", float64(mallocs()-before)/facts)
	r.add("database.apply_ns_per_fact", r.tr.spans[id-1].dur()/facts)
	return nil
}

// frontEndProbes repeat a cold Compile and Prepare of the workload's
// program with the calls they are made of, and time the rewritings the
// magic front end does not use on the same adorned program.
func (r *tracedRun) frontEndProbes(src, query string, tab *intern.Table) error {
	snap := datalog.NewDatabase().Snapshot()
	for i := 0; i < r.e.sizes.ProbeReps; i++ {
		_, compileSpan, prepareSpan, err := r.coldLib(0, 0, snap, src, query, "magic")
		if err != nil {
			return err
		}
		f, err := r.frontEnd(0, compileSpan, prepareSpan, src, query, "magic", tab)
		if err != nil {
			return err
		}
		for _, strategy := range []string{"supplementary-magic", "counting"} {
			rewriter, span := rewriterFor(strategy)
			r.call(span, "rewrite", 0, 0, func() { _, err = rewriter.Rewrite(f.rw.Adorned) })
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// storageProbes time the storage calls no op isolates: parsing and
// interning an EDB of the workload's size, index lookups, the first lookup
// on a relation without an index, and the copy a write pays after a pin.
func (r *tracedRun) storageProbes(store *database.Store, pred string, edb []wireFact) error {
	reps := min(r.e.sizes.ProbeReps, 10)
	var text bytes.Buffer
	terms := make([]ast.Term, 0, 2*len(edb))
	for _, f := range edb {
		fmt.Fprintf(&text, "%s(%s, %s).\n", f.Pred, f.Args[0], f.Args[1])
		terms = append(terms, ast.S(f.Args[0]), ast.S(f.Args[1]))
	}
	rel := store.Existing(pred)
	if rel == nil {
		return fmt.Errorf("storage probes: no relation %s", pred)
	}
	ids := make([]intern.ID, 0, 4096)
	for i := 0; i < len(edb) && len(ids) < cap(ids); i += max(1, len(edb)/cap(ids)) {
		id, ok := store.Table().Find(ast.S(edb[i].Args[0]))
		if !ok {
			return fmt.Errorf("storage probes: %s is not interned", edb[i].Args[0])
		}
		ids = append(ids, id)
	}
	cols, key := []int{0}, make([]intern.ID, 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := parser.Parse(text.String()); err != nil {
			return err
		}
		r.add("parser.facts_ns_per_fact", float64(time.Since(t0))/float64(len(edb)))

		tab := intern.NewTable()
		t0 = time.Now()
		tab.InternMany(terms)
		r.add("intern.intern_ns_per_term", float64(time.Since(t0))/float64(len(terms)))

		t0 = time.Now()
		hits := 0
		for _, id := range ids {
			key[0] = id
			hits += len(rel.LookupIDs(cols, key))
		}
		r.add("database.lookup_ns", float64(time.Since(t0))/float64(len(ids)))
		if hits == 0 {
			return fmt.Errorf("storage probes: lookups on %s found nothing", pred)
		}

		t0 = time.Now()
		_ = rel.Clone()
		r.add("database.clone_after_pin_us", float64(time.Since(t0))/1e3)

		// A relation rebuilt from its rows has no index yet; its first
		// lookup builds one.
		fresh := database.NewRelationWith(store.Table(), rel.Name, rel.Arity)
		for pos := 0; pos < rel.Len(); pos++ {
			if _, err := fresh.InsertRow(rel.Row(pos)); err != nil {
				return err
			}
		}
		key[0] = ids[0]
		t0 = time.Now()
		fresh.LookupIDs(cols, key)
		r.add("database.index_build_us", float64(time.Since(t0))/1e3)
	}
	return nil
}

// parallelSpeedup times one fixpoint at Parallelism 1 and at the default,
// outside the trace, and returns both durations.
func parallelSpeedup(store *database.Store, f *form, bound []ast.Term) (seq, par time.Duration, err error) {
	seeds, _, err := f.rw.Parameterize(bound)
	if err != nil {
		return 0, 0, err
	}
	pin := store.Pin()
	for _, p := range []struct {
		workers int
		d       *time.Duration
	}{{1, &seq}, {0, &par}} {
		t0 := time.Now()
		if _, _, err := f.pp.EvaluateCtx(context.Background(), pin, seeds, eval.Options{Parallelism: p.workers}); err != nil {
			return 0, 0, err
		}
		*p.d = time.Since(t0)
	}
	return seq, par, nil
}
