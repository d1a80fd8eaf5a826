// Program: the immutable compiled artifact of the engine.
//
// The paper's rewritings are program-level transformations: adornment, sip
// selection and the magic/counting rewritings depend only on the rules and
// the query form, never on the extensional database. Compile makes that
// split first-class — a Program is parsed, arity-checked and stratified
// exactly once, is immutable afterwards, and can therefore be shared by any
// number of databases, snapshots and goroutines. All the per-query-form work
// (adorn → rewrite → simplify → compile, see prepared.go) is cached on the
// Program itself, keyed by the symbol table the facts intern into, so every
// snapshot of one database reuses one preparation per form.

package datalog

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/depgraph"
	"repro/internal/eval"
	"repro/internal/intern"
	"repro/internal/lint"
	"repro/internal/parser"
	"repro/internal/rewrite"
	"repro/internal/safety"
)

// programIDs mints process-unique Program identities; see Program.Version.
var programIDs atomic.Uint64

// Program is a compiled, immutable rule program: parse, arity checking and
// the dependency-graph (SCC) stratification all happen once, in Compile, and
// the result is safe to share across databases and goroutines. A Program
// carries a process-unique version (Version); the per-form caches are
// program-private, so swapping rules is just binding the next snapshot to
// another Program.
type Program struct {
	id   uint64
	prog *ast.Program
	// facts are the ground facts embedded in the compiled source text. They
	// are data, not rules: nothing reads them but Database.LoadFacts, which
	// commits them when the caller asks (see EmbeddedFacts).
	facts   []ast.Atom
	arities map[string]int
	// diags are the compile-time analysis findings (warnings and infos; a
	// program with error diagnostics does not compile). See Diagnostics.
	diags []Diagnostic
	// plan is the SCC stratification of the (unrewritten) program, computed
	// once here and reused by every direct-strategy preparation.
	plan *depgraph.Plan

	// plans caches prepared query forms per symbol table: compiled join
	// pipelines intern rule constants, so a preparation is only reusable by
	// stores interning into the same table (a database, its transactions and
	// all its snapshots share one table; two independent databases do not).
	// tables records least-recently-used order (front = coldest): beyond
	// maxProgramTables the coldest table's cache is evicted, so a long-lived
	// shared Program queried against many short-lived databases does not pin
	// every database's symbol table and compiled pipelines forever (an
	// evicted database that is still alive rebuilds its forms on the next
	// query).
	mu     sync.Mutex
	plans  map[*intern.Table]*planCache
	tables []*intern.Table
}

// maxProgramTables bounds how many symbol tables' form caches one Program
// retains; see Program.plans.
const maxProgramTables = 16

// Compile parses, analyzes and stratifies a rule program once and returns
// the immutable compiled form. The source may contain ground facts
// (Database.LoadFacts commits them; queries never see them otherwise); it
// must not contain queries — those are passed per call to Query/Prepare,
// which is exactly the program/query split the magic transformations rely
// on. Compile runs the full
// static-analysis suite (internal/lint): diagnostics of severity error —
// arity conflicts, negated literals, unstratifiable negation — fail the
// compile with their source positions in the message; warnings and infos
// are retained on the Program (see Diagnostics, CompileStrict). The
// returned Program is safe for concurrent use and sharing; bind it to a
// pinned version of a Database with Snapshot.With.
func Compile(programSrc string) (*Program, error) {
	unit, err := parser.Parse(programSrc)
	if err != nil {
		return nil, fmt.Errorf("datalog: %w", err)
	}
	if len(unit.Queries) > 0 {
		q := unit.Queries[0].Atom
		return nil, fmt.Errorf("datalog: %d:%d: the program text contains a query; pass queries to Query instead", q.Pos.Line, q.Pos.Col)
	}
	prog := unit.Program()
	diags := publicDiagnostics(lint.Check(prog, lint.Options{
		Facts:          unit.Facts,
		AutoQueryForms: true,
	}))
	var fatal []Diagnostic
	kept := diags[:0]
	for _, d := range diags {
		if d.Severity == SeverityError {
			fatal = append(fatal, d)
		} else {
			kept = append(kept, d)
		}
	}
	if len(fatal) > 0 {
		return nil, fmt.Errorf("datalog: compile failed:\n%s", renderDiagnostics(fatal))
	}
	arities, err := prog.Arities()
	if err != nil {
		// Unreachable in practice: arity conflicts are error diagnostics.
		return nil, fmt.Errorf("datalog: %w", err)
	}
	return &Program{
		id:      programIDs.Add(1),
		prog:    prog,
		facts:   unit.Facts,
		arities: arities,
		diags:   kept,
		plan:    depgraph.Analyze(prog),
		plans:   make(map[*intern.Table]*planCache),
	}, nil
}

// Version returns the program's process-unique identity, assigned at
// Compile time and strictly increasing across Compile calls
// (MaterializedStats.ProgramVersion reports which program a database keeps
// materialized).
func (p *Program) Version() uint64 { return p.id }

// Text returns the program in source syntax.
func (p *Program) Text() string { return p.prog.String() }

// Rules returns the number of rules in the program.
func (p *Program) Rules() int { return len(p.prog.Rules) }

// EmbeddedFacts returns the number of ground facts written in the compiled
// source text and the position of the first one (the zero Position when
// there are none). They are not part of the rules: commit them with
// Database.LoadFacts, or keep rules and data in separate texts.
func (p *Program) EmbeddedFacts() (n int, first Position) {
	if len(p.facts) > 0 {
		first = Position{Line: p.facts[0].Pos.Line, Col: p.facts[0].Pos.Col}
	}
	return len(p.facts), first
}

// plansFor returns the program's prepared-form cache for stores interning
// into tab, creating it on first use.
func (p *Program) plansFor(tab *intern.Table) *planCache {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.plans[tab]
	if ok {
		// Move the table to the back (most recently used), so a long-lived
		// database in constant use is never the eviction victim just for
		// being the oldest entry. In place: this runs under p.mu on every
		// query of every snapshot sharing the program.
		if n := len(p.tables); p.tables[n-1] != tab {
			for i, t := range p.tables {
				if t == tab {
					copy(p.tables[i:], p.tables[i+1:])
					p.tables[n-1] = tab
					break
				}
			}
		}
		return c
	}
	c = newPlanCache()
	p.plans[tab] = c
	p.tables = append(p.tables, tab)
	if len(p.tables) > maxProgramTables {
		delete(p.plans, p.tables[0])
		p.tables = p.tables[1:]
	}
	return c
}

// preparedFor returns the cached preparation of the query's form for stores
// interning into tab, building and caching it on first sight. hit reports
// whether the form was already prepared (or being prepared) by an earlier
// call.
func (p *Program) preparedFor(q ast.Query, opts Options, tab *intern.Table) (form *preparedForm, hit bool, err error) {
	return p.plansFor(tab).getOrBuild(formKey(q, opts), func() (*preparedForm, error) {
		return p.buildForm(q, opts, tab)
	})
}

// analyze adorns the program for one query under the options' sip policy
// and runs the Section 10 safety analysis on the adorned program: the steps
// every adorning strategy, Rewrite and Analyze share.
func (p *Program) analyze(q ast.Query, opts Options) (*adorn.Program, *SafetyReport, error) {
	strat, err := sipStrategy(opts.Sip)
	if err != nil {
		return nil, nil, err
	}
	ad, err := adorn.Adorn(p.prog, q, strat)
	if err != nil {
		return nil, nil, fmt.Errorf("datalog: %w", err)
	}
	r := safety.Analyze(ad)
	return ad, &SafetyReport{
		IsDatalog:                 r.IsDatalog,
		MagicSafe:                 r.MagicSafe,
		MagicSafeReason:           r.MagicSafeReason,
		CountingSafe:              r.CountingSafe,
		CountingDivergesOnAllData: r.CountingMayDivergeOnAllData,
	}, nil
}

// rewriteAdorned runs the sip walk with the strategy's two axes (then
// Options.Simplify) on an adorned program.
func rewriteAdorned(ad *adorn.Program, opts Options) (*rewrite.Rewriting, error) {
	var w rewrite.Walk
	switch opts.Strategy {
	case MagicSets, "":
		w.KeepAllGuards = opts.KeepAllGuards
	case SupplementaryMagicSets:
		w.Supplementary = true
	case Counting, SupplementaryCounting:
		w = rewrite.Walk{Indexed: true, Supplementary: opts.Strategy == SupplementaryCounting, Semijoin: opts.Semijoin}
	default:
		return nil, fmt.Errorf("datalog: strategy %q does not rewrite the program", opts.Strategy)
	}
	rewriting, err := w.Rewrite(ad)
	if err != nil {
		return nil, fmt.Errorf("datalog: %w", err)
	}
	if opts.Simplify {
		rewrite.Simplify(rewriting)
	}
	return rewriting, nil
}

// Rewrite returns the rewritten program (and its seeds) for a query without
// evaluating it. It is the programmatic face of the paper's transformations
// and, like them, never looks at a database. The requested strategy is
// rewritten as asked: Options.OnDivergence applies to evaluation only.
func (p *Program) Rewrite(querySrc string, opts Options) (*Result, error) {
	q, err := parseQuery(querySrc)
	if err != nil {
		return nil, err
	}
	if err := normalizeOptions(&opts); err != nil {
		return nil, err
	}
	ad, report, err := p.analyze(q, opts)
	if err != nil {
		return nil, err
	}
	rewriting, err := rewriteAdorned(ad, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{RewrittenProgram: rewriting.Program.String(), Safety: report}
	res.Stats.Strategy = opts.Strategy
	res.Stats.Sip = opts.Sip
	res.Stats.RewrittenRules = len(rewriting.Program.Rules)
	for _, s := range rewriting.Seeds {
		res.Seeds = append(res.Seeds, s.String())
	}
	return res, nil
}

// Analyze runs the Section 10 safety analysis for a query without evaluating
// it.
func (p *Program) Analyze(querySrc string, opts Options) (*SafetyReport, error) {
	q, err := parseQuery(querySrc)
	if err != nil {
		return nil, err
	}
	_, report, err := p.analyze(q, opts)
	return report, err
}

// buildForm builds the per-form artifacts for one query and option set, for
// stores interning into tab.
func (p *Program) buildForm(q ast.Query, opts Options, tab *intern.Table) (*preparedForm, error) {
	form := &preparedForm{}
	switch opts.Strategy {
	case SemiNaive:
		pp, err := eval.PrepareWith(p.prog, tab, p.plan, false)
		if err != nil {
			return nil, fmt.Errorf("datalog: %w", err)
		}
		form.prepared = pp
		for key := range p.prog.DerivedPredicates() {
			form.derivedKeys = append(form.derivedKeys, key)
		}
	case MagicSets, SupplementaryMagicSets, Counting, SupplementaryCounting:
		ad, report, err := p.analyze(q, opts)
		if err != nil {
			return nil, err
		}
		form.safety = report
		// The divergence consultation of Section 10: when Theorem 10.3
		// proves the counting strategies diverge for this form on every
		// database, don't run them — fall back to the equivalent magic
		// rewriting (the answers are identical by Theorems 5.1/7.1) or fail
		// fast, per Options.OnDivergence.
		if (opts.Strategy == Counting || opts.Strategy == SupplementaryCounting) &&
			report.CountingDivergesOnAllData {
			switch opts.OnDivergence {
			case DivergenceRun:
				// The caller explicitly asked for the divergent evaluation
				// (observable only under limits or a deadline).
			case DivergenceFail:
				return nil, fmt.Errorf("%w: query form %s^%s diverges under %s on every database (Theorem 10.3)",
					ErrCountingDiverges, q.Atom.Pred, ad.QueryAdornment, opts.Strategy)
			default: // DivergenceFallback
				form.divergenceFallback = true
				if opts.Strategy == Counting {
					opts.Strategy = MagicSets
				} else {
					opts.Strategy = SupplementaryMagicSets
				}
			}
		}
		rewriting, err := rewriteAdorned(ad, opts)
		if err != nil {
			return nil, err
		}
		pp, err := eval.PrepareWith(rewriting.Program, tab, nil, true)
		if err != nil {
			return nil, fmt.Errorf("datalog: %w", err)
		}
		form.rewriting = rewriting
		form.prepared = pp
		form.rewrittenSrc = rewriting.Program.String()
		form.rewrittenRules = len(rewriting.Program.Rules)
		for key := range rewriting.Program.DerivedPredicates() {
			if _, aux := rewriting.AuxPredicates[key]; aux {
				form.auxKeys = append(form.auxKeys, key)
			} else {
				form.derivedKeys = append(form.derivedKeys, key)
			}
		}
	default:
		return nil, fmt.Errorf("datalog: unknown strategy %q", opts.Strategy)
	}
	return form, nil
}
