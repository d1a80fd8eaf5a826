// Package lint is the static-analysis layer over parsed Datalog programs:
// it produces structured diagnostics (stable code, severity, source
// position, related positions) from a suite of passes ranging from plain
// hygiene (typo'd predicates, singleton variables, arity conflicts) to the
// paper-grounded analyses of Section 10 of Beeri & Ramakrishnan — per-query
// divergence prediction for the counting strategies (Theorem 10.3) and
// termination guarantees for the magic rewritings (Theorems 10.1/10.2).
//
// The package sits between the parser and the evaluation pipeline: it never
// evaluates anything, and it never fails — every problem it can detect is
// reported as a Diagnostic and the caller decides what severity is fatal
// (datalog.Compile rejects Error, datalog.CompileStrict rejects Warning).
package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/safety"
	"repro/internal/sip"
)

// Severity classifies how bad a diagnostic is.
type Severity int

const (
	// Info diagnostics are observations (e.g. a predicate assumed to be a
	// base relation); they never fail a compile.
	Info Severity = iota
	// Warning diagnostics flag probable mistakes or statically unsafe
	// constructs that the engine can still evaluate.
	Warning
	// Error diagnostics flag programs the engine cannot run correctly.
	Error
)

// String renders the conventional lower-case severity name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Stable diagnostic codes. Codes are append-only: a code is never renumbered
// or reused, so tooling (CI annotations, suppression lists) can match on
// them across releases.
const (
	// CodeParse is a syntax error. The parser reports these as errors, not
	// diagnostics; cmd/datalogvet converts them so a vetted file yields a
	// uniform diagnostic stream.
	CodeParse = "DL0001"
	// CodeArityConflict: a predicate is used with two different arities.
	CodeArityConflict = "DL0002"
	// CodeUndefinedPred: a body predicate is neither defined by a rule nor
	// backed by a fact, and a similarly named predicate exists (likely typo).
	CodeUndefinedPred = "DL0003"
	// CodeBasePred: a body predicate with no rules and no facts is assumed
	// to be a base (EDB) relation supplied later.
	CodeBasePred = "DL0004"
	// CodeSingletonVar: a variable occurs exactly once in a rule.
	CodeSingletonVar = "DL0005"
	// CodeHeadOnlyVar: a head variable does not occur in the body
	// (range-restriction condition (WF) of Section 1.1).
	CodeHeadOnlyVar = "DL0006"
	// CodeDisconnected: the rule violates connectivity condition (C) of
	// Section 1.1.
	CodeDisconnected = "DL0007"
	// CodeUnreachable: a derived predicate cannot be reached from any query
	// form, so its rules never fire.
	CodeUnreachable = "DL0008"
	// CodeNegation: a negated body literal is present; the evaluation
	// pipeline does not support negation yet (ROADMAP item 6).
	CodeNegation = "DL0009"
	// CodeUnstratifiable: a predicate is negated inside its own recursive
	// component, so the program has no stratification.
	CodeUnstratifiable = "DL0010"
	// CodeBadQuery: a query targets a predicate that no rule defines.
	CodeBadQuery = "DL0011"
	// CodeCountingDiverges: Theorem 10.3 — the argument graph of the query
	// form has a reachable cycle, so the counting strategies diverge on
	// every database.
	CodeCountingDiverges = "DL0012"
	// CodeMagicUnsafe: neither Theorem 10.1 nor Theorem 10.2 guarantees
	// termination of the magic rewritings for the query form.
	CodeMagicUnsafe = "DL0013"
)

// Related is a secondary source position attached to a diagnostic — the
// other site of an arity conflict, the recursive rule on a divergence cycle.
type Related struct {
	Pos     ast.Pos
	Message string
}

// Diagnostic is one finding of the analysis.
type Diagnostic struct {
	// Code is the stable diagnostic code (DLnnnn).
	Code string
	// Severity classifies the finding.
	Severity Severity
	// Pos is the primary source position, or the zero Pos when the finding
	// has no anchor in the source (programmatically built programs).
	Pos ast.Pos
	// Message is the human-readable description.
	Message string
	// Related lists secondary positions that explain the finding.
	Related []Related
}

// String renders "line:col: severity: message [CODE]".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s [%s]", d.Pos, d.Severity, d.Message, d.Code)
}

// Options configures a Check run.
type Options struct {
	// Queries are the query forms the program will be asked; the
	// reachability and divergence passes are relative to them.
	Queries []ast.Query
	// Facts are ground atoms known to be in the database (EDB evidence for
	// the undefined-predicate pass).
	Facts []ast.Atom
	// AutoQueryForms runs the Section 10 divergence prediction over the
	// canonical bound-first form p(c, X2, ..., Xn) of every derived
	// predicate when no explicit queries are given. datalog.Compile sets
	// this so Program.Diagnostics carries divergence warnings even before
	// any query is asked.
	AutoQueryForms bool
}

// Check runs every applicable pass over the program and returns the
// diagnostics sorted by position then code.
func Check(p *ast.Program, opts Options) []Diagnostic {
	c := &checker{prog: p, opts: opts}
	c.run()
	sortDiagnostics(c.diags)
	return c.diags
}

// QueryCheck runs only the query-relative passes (query validity,
// reachability, Section 10 divergence prediction) for a single query form.
// datalog.Program.DiagnosticsFor uses it to vet a form before serving it.
func QueryCheck(p *ast.Program, q ast.Query) []Diagnostic {
	c := &checker{prog: p, opts: Options{Queries: []ast.Query{q}}}
	c.derived = derivedPreds(p)
	c.edb = map[string]bool{}
	c.checkQueries()
	c.checkReachability()
	c.checkDivergence()
	sortDiagnostics(c.diags)
	return c.diags
}

type checker struct {
	prog    *ast.Program
	opts    Options
	derived map[string]bool
	edb     map[string]bool
	diags   []Diagnostic
}

func (c *checker) add(d Diagnostic) { c.diags = append(c.diags, d) }

func (c *checker) run() {
	c.derived = derivedPreds(c.prog)
	c.edb = make(map[string]bool)
	for _, f := range c.opts.Facts {
		c.edb[f.Pred] = true
	}
	c.checkArities()
	c.checkUndefined()
	c.checkRules()
	c.checkNegation()
	c.checkQueries()
	c.checkReachability()
	c.checkDivergence()
}

func derivedPreds(p *ast.Program) map[string]bool {
	set := make(map[string]bool)
	for _, r := range p.Rules {
		set[r.Head.Pred] = true
	}
	return set
}

// checkArities reports every use of a predicate whose arity disagrees with
// an earlier use, pointing at both sites (DL0002).
func (c *checker) checkArities() {
	type site struct {
		pos   ast.Pos
		arity int
	}
	first := make(map[string]site)
	record := func(a ast.Atom) {
		prev, ok := first[a.Pred]
		if !ok {
			first[a.Pred] = site{pos: a.Pos, arity: len(a.Args)}
			return
		}
		if prev.arity != len(a.Args) {
			c.add(Diagnostic{
				Code:     CodeArityConflict,
				Severity: Error,
				Pos:      a.Pos,
				Message:  fmt.Sprintf("predicate %s used with arity %d, but it has arity %d", a.Pred, len(a.Args), prev.arity),
				Related:  []Related{{Pos: prev.pos, Message: fmt.Sprintf("%s first used here with arity %d", a.Pred, prev.arity)}},
			})
		}
	}
	for _, r := range c.prog.Rules {
		record(r.Head)
		for _, b := range r.Body {
			record(b)
		}
	}
	for _, f := range c.opts.Facts {
		record(f)
	}
	for _, q := range c.opts.Queries {
		record(q.Atom)
	}
}

// checkUndefined reports body predicates with no rules and no facts: as a
// probable typo when a similarly named predicate exists (DL0003), otherwise
// as an assumed base relation (DL0004, info). One diagnostic per predicate,
// at its first occurrence.
func (c *checker) checkUndefined() {
	known := make([]string, 0, len(c.derived)+len(c.edb))
	for p := range c.derived {
		known = append(known, p)
	}
	for p := range c.edb {
		if !c.derived[p] {
			known = append(known, p)
		}
	}
	sort.Strings(known)

	seen := make(map[string]bool)
	for _, r := range c.prog.Rules {
		for _, b := range r.Body {
			if c.derived[b.Pred] || c.edb[b.Pred] || seen[b.Pred] {
				continue
			}
			seen[b.Pred] = true
			if sugg, ok := closestName(b.Pred, known); ok {
				c.add(Diagnostic{
					Code:     CodeUndefinedPred,
					Severity: Warning,
					Pos:      b.Pos,
					Message:  fmt.Sprintf("predicate %s/%d is not defined by any rule or fact; did you mean %s?", b.Pred, len(b.Args), sugg),
				})
			} else {
				c.add(Diagnostic{
					Code:     CodeBasePred,
					Severity: Info,
					Pos:      b.Pos,
					Message:  fmt.Sprintf("predicate %s/%d has no rules and no facts; assuming it is a base (EDB) relation", b.Pred, len(b.Args)),
				})
			}
		}
	}
}

// checkRules runs the per-rule hygiene passes: singleton variables (DL0005),
// head variables missing from the body (DL0006, the range-restriction
// condition (WF)), and disconnected bodies (DL0007, condition (C)).
func (c *checker) checkRules() {
	for _, r := range c.prog.Rules {
		c.checkSingletons(r)
		c.checkRangeRestriction(r)
		if len(r.Body) > 0 {
			if err := r.CheckConnected(); err != nil {
				comps, _ := r.ConnectedComponents()
				msg := fmt.Sprintf("rule body splits into %d connected components (condition (C)); the cross product of unconnected goals is rarely intended", len(comps))
				if len(comps) == 1 {
					msg = "rule body shares no variable with the head (condition (C))"
				}
				c.add(Diagnostic{
					Code:     CodeDisconnected,
					Severity: Warning,
					Pos:      r.Pos,
					Message:  msg,
				})
			}
		}
	}
}

func (c *checker) checkSingletons(r ast.Rule) {
	counts := make(map[string]int)
	pos := make(map[string]ast.Pos)
	order := []string{}
	scan := func(a ast.Atom) {
		for i, t := range a.Args {
			p := a.Pos
			if i < len(a.ArgPos) {
				p = a.ArgPos[i]
			}
			countVars(t, func(v string) {
				if counts[v] == 0 {
					order = append(order, v)
					pos[v] = p
				}
				counts[v]++
			})
		}
	}
	scan(r.Head)
	for _, b := range r.Body {
		scan(b)
	}
	for _, v := range order {
		if counts[v] != 1 || strings.HasPrefix(v, "_") {
			continue
		}
		c.add(Diagnostic{
			Code:     CodeSingletonVar,
			Severity: Warning,
			Pos:      pos[v],
			Message:  fmt.Sprintf("variable %s occurs only once in the rule; prefix it with _ if that is intentional", v),
		})
	}
}

func (c *checker) checkRangeRestriction(r ast.Rule) {
	if len(r.Body) == 0 {
		return
	}
	bodyVars := r.BodyVars()
	seen := make(map[string]bool)
	for i, t := range r.Head.Args {
		p := r.Head.Pos
		if i < len(r.Head.ArgPos) {
			p = r.Head.ArgPos[i]
		}
		for _, v := range ast.Vars(t, nil) {
			if bodyVars[v] || seen[v] {
				continue
			}
			seen[v] = true
			c.add(Diagnostic{
				Code:     CodeHeadOnlyVar,
				Severity: Warning,
				Pos:      p,
				Message:  fmt.Sprintf("head variable %s does not occur in the body (range restriction, condition (WF)); it stays unbound under bottom-up evaluation", v),
			})
		}
	}
}

// countVars calls fn for every variable occurrence in the term, with
// multiplicity (unlike ast.Vars, which deduplicates per term).
func countVars(t ast.Term, fn func(string)) {
	switch x := t.(type) {
	case ast.Var:
		fn(x.Name)
	case ast.Compound:
		for _, a := range x.Args {
			countVars(a, fn)
		}
	}
}

// checkNegation reports every negated literal as unsupported (DL0009) and,
// independently, detects negation inside a recursive component — a program
// with no stratification (DL0010). The second check is the groundwork for
// stratified negation (ROADMAP item 6): when evaluation learns negation,
// DL0009 disappears and DL0010 stays.
func (c *checker) checkNegation() {
	hasNegation := false
	for _, r := range c.prog.Rules {
		for _, b := range r.Body {
			if b.Negated {
				hasNegation = true
				c.add(Diagnostic{
					Code:     CodeNegation,
					Severity: Error,
					Pos:      b.Pos,
					Message:  fmt.Sprintf("negated literal !%s is not supported by the evaluation pipeline yet", b.Pred),
				})
			}
		}
	}
	if !hasNegation {
		return
	}
	// Stratifiability: a negative edge inside a strongly connected component
	// of the predicate dependency graph means recursion through negation.
	comp := make(map[string]int)
	for i, scc := range c.prog.StronglyConnectedComponents() {
		for _, p := range scc {
			comp[p] = i
		}
	}
	for _, r := range c.prog.Rules {
		for _, b := range r.Body {
			if !b.Negated || !c.derived[b.Pred] {
				continue
			}
			hc, hok := comp[r.Head.Pred]
			bc, bok := comp[b.Pred]
			if hok && bok && hc == bc {
				c.add(Diagnostic{
					Code:     CodeUnstratifiable,
					Severity: Error,
					Pos:      b.Pos,
					Message:  fmt.Sprintf("%s is negated inside its own recursive component (via %s); the program has no stratification", b.Pred, r.Head.Pred),
					Related:  []Related{{Pos: r.Pos, Message: "recursive rule closing the negative cycle"}},
				})
			}
		}
	}
}

// checkQueries validates that every query targets a derived predicate
// (DL0011).
func (c *checker) checkQueries() {
	known := make([]string, 0, len(c.derived))
	for p := range c.derived {
		known = append(known, p)
	}
	sort.Strings(known)
	for _, q := range c.opts.Queries {
		pred := q.Atom.Pred
		if c.derived[pred] {
			continue
		}
		msg := fmt.Sprintf("query predicate %s is not defined by any rule", pred)
		if c.edb[pred] {
			msg = fmt.Sprintf("query predicate %s is a base relation; queries must target a predicate defined by rules", pred)
		} else if sugg, ok := closestName(pred, known); ok {
			msg += fmt.Sprintf("; did you mean %s?", sugg)
		}
		c.add(Diagnostic{
			Code:     CodeBadQuery,
			Severity: Error,
			Pos:      q.Atom.Pos,
			Message:  msg,
		})
	}
}

// checkReachability warns about derived predicates that no query form can
// reach (DL0008): their rules can never contribute to an answer.
func (c *checker) checkReachability() {
	if len(c.opts.Queries) == 0 {
		return
	}
	deps := c.prog.PredicateDependencies()
	reached := make(map[string]bool)
	var mark func(string)
	mark = func(p string) {
		if reached[p] {
			return
		}
		reached[p] = true
		for d := range deps[p] {
			mark(d)
		}
	}
	anyValid := false
	for _, q := range c.opts.Queries {
		if c.derived[q.Atom.Pred] {
			anyValid = true
			mark(q.Atom.Pred)
		}
	}
	if !anyValid {
		return
	}
	preds := make([]string, 0, len(c.derived))
	for p := range c.derived {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		if reached[p] {
			continue
		}
		idxs := c.prog.RulesFor(p)
		if len(idxs) == 0 {
			continue
		}
		d := Diagnostic{
			Code:     CodeUnreachable,
			Severity: Warning,
			Pos:      c.prog.Rules[idxs[0]].Pos,
			Message:  fmt.Sprintf("predicate %s (%d rule(s)) is unreachable from the query form(s); its rules never fire", p, len(idxs)),
		}
		for _, i := range idxs[1:] {
			d.Related = append(d.Related, Related{Pos: c.prog.Rules[i].Pos, Message: fmt.Sprintf("another unreachable rule for %s", p)})
		}
		c.add(d)
	}
}

// checkDivergence runs the Section 10 analyses per query form: Theorem 10.3
// divergence prediction for the counting strategies (DL0012) and the
// Theorem 10.1/10.2 termination guarantees for the magic rewritings
// (DL0013). With no explicit queries and AutoQueryForms set, the canonical
// bound-first form of every derived predicate is analyzed instead.
func (c *checker) checkDivergence() {
	if anyNegated(c.prog) {
		// The adornment and safety machinery is defined for positive
		// programs only; negation is already an error (DL0009).
		return
	}
	queries := c.opts.Queries
	if len(queries) == 0 {
		if !c.opts.AutoQueryForms {
			return
		}
		queries = autoQueryForms(c.prog)
	}
	seenForm := make(map[string]bool)
	for _, q := range queries {
		if !c.derived[q.Atom.Pred] || q.Validate() != nil {
			continue
		}
		form := q.Atom.Pred + "^" + string(q.Adornment())
		if seenForm[form] {
			continue
		}
		seenForm[form] = true
		ad, err := adorn.Adorn(c.prog, q, sip.FullLeftToRight())
		if err != nil {
			continue
		}
		rep := safety.Analyze(ad)
		if rep.CountingMayDivergeOnAllData {
			d := Diagnostic{
				Code:     CodeCountingDiverges,
				Severity: Warning,
				Pos:      q.Atom.Pos,
				Message:  fmt.Sprintf("counting strategies diverge for query form %s on every database: the argument graph has a reachable cycle (Theorem 10.3)", form),
			}
			if witness, wpos, ok := c.cycleWitness(rep); ok {
				rel := Related{Pos: wpos, Message: witness}
				if !d.Pos.IsValid() {
					// Programmatic or auto-generated query: anchor the
					// diagnostic at the offending rule itself.
					d.Pos = wpos
					d.Message += "; " + witness
					rel = Related{}
				}
				if rel.Message != "" {
					d.Related = append(d.Related, rel)
				}
			}
			c.add(d)
		}
		if !rep.MagicSafe {
			c.add(Diagnostic{
				Code:     CodeMagicUnsafe,
				Severity: Warning,
				Pos:      q.Atom.Pos,
				Message:  fmt.Sprintf("no termination guarantee for query form %s: the program has function symbols and a binding-graph cycle of non-positive length (neither Theorem 10.1 nor Theorem 10.2 applies)", form),
			})
		}
	}
}

// cycleWitness maps the argument-graph cycle witness back to a source rule.
func (c *checker) cycleWitness(rep *safety.Report) (string, ast.Pos, bool) {
	node, ok := rep.ArgumentGraph.ReachableCycleNode()
	if !ok {
		return "", ast.Pos{}, false
	}
	predKey, argPos, ok := safety.SplitArgNode(node)
	if !ok {
		return "", ast.Pos{}, false
	}
	pred := predKey
	if i := strings.IndexByte(predKey, '^'); i >= 0 {
		pred = predKey[:i]
	}
	msg := fmt.Sprintf("bound argument %d of %s feeds back into itself through this recursive rule", argPos+1, predKey)
	for _, r := range c.prog.Rules {
		if r.Head.Pred != pred {
			continue
		}
		recursive := false
		for _, b := range r.Body {
			if b.Pred == pred {
				recursive = true
				break
			}
		}
		if recursive {
			return msg, r.Pos, true
		}
	}
	if idxs := c.prog.RulesFor(pred); len(idxs) > 0 {
		return msg, c.prog.Rules[idxs[0]].Pos, true
	}
	return msg, ast.Pos{}, true
}

func anyNegated(p *ast.Program) bool {
	for _, r := range p.Rules {
		for _, b := range r.Body {
			if b.Negated {
				return true
			}
		}
	}
	return false
}

// autoQueryForms builds the canonical point-query form p(c, X2, ..., Xn)
// (adornment bf...f) for every derived predicate — the binding pattern of
// the paper's running examples. Zero-arity predicates have no bound
// positions and cannot diverge under counting, so they are skipped.
func autoQueryForms(p *ast.Program) []ast.Query {
	arities := make(map[string]int)
	for _, r := range p.Rules {
		if _, ok := arities[r.Head.Pred]; !ok {
			arities[r.Head.Pred] = len(r.Head.Args)
		}
	}
	preds := make([]string, 0, len(arities))
	for pred := range arities {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	var out []ast.Query
	for _, pred := range preds {
		n := arities[pred]
		if n == 0 {
			continue
		}
		args := make([]ast.Term, n)
		args[0] = ast.S("c")
		for i := 1; i < n; i++ {
			args[i] = ast.V(fmt.Sprintf("X%d", i))
		}
		out = append(out, ast.NewQuery(ast.NewAtom(pred, args...)))
	}
	return out
}

// closestName returns the candidate with the smallest Levenshtein distance
// to name, if that distance is small enough to suggest a typo (at most 2,
// and strictly less than half the name's length).
func closestName(name string, candidates []string) (string, bool) {
	best, bestDist := "", 3
	for _, c := range candidates {
		if c == name {
			continue
		}
		if d := levenshtein(name, c); d < bestDist {
			best, bestDist = c, d
		}
	}
	if best == "" || bestDist*2 >= len(name) {
		return "", false
	}
	return best, true
}

func levenshtein(a, b string) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	prev := make([]int, len(a)+1)
	cur := make([]int, len(a)+1)
	for i := range prev {
		prev[i] = i
	}
	for j := 1; j <= len(b); j++ {
		cur[0] = j
		for i := 1; i <= len(a); i++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[i] = min(prev[i]+1, min(cur[i-1]+1, prev[i-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(a)]
}

func sortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Code < b.Code
	})
}
