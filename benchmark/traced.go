package main

// The traced run: per-layer numbers for one workload, taken in this
// process, on one goroutine, from spans recorded around the calls into each
// layer's public functions. See span.go for how depth is unfolded into
// repeated execution. End-to-end numbers never come from here.

import (
	"path/filepath"
	"runtime"
)

// layerMetrics are the per-layer metrics of BENCHMARK.json, in report
// order. Every traced run reports every one; a layer the workload never
// enters reports 0. A `_us` value is a median self time per op — the
// layer's span minus the spans of the layers it calls on the same op;
// `_allocs` is the runtime's malloc count across the call.
var layerMetrics = []struct{ name, unit, better string }{
	{"datalogd.transport_us", "us", "lower"},
	{"datalogd.boot_ms", "ms", "lower"},
	{"server.query_self_us", "us", "lower"},
	{"server.query_allocs", "count", "lower"},
	{"server.resp_bytes_per_answer", "B", "lower"},
	{"server.txn_self_us", "us", "lower"},
	{"server.txn_allocs", "count", "lower"},
	{"server.rejected", "count", "lower"},
	{"datalog.snapshot_pin_us", "us", "lower"},
	{"datalog.prepare_hit_us", "us", "lower"},
	{"datalog.run_self_us", "us", "lower"},
	{"datalog.run_allocs", "count", "lower"},
	{"datalog.commit_self_us", "us", "lower"},
	{"datalog.commit_allocs", "count", "lower"},
	{"datalog.open_ms", "ms", "lower"},
	{"datalog.compile_us", "us", "lower"},
	{"datalog.prepare_cold_us", "us", "lower"},
	{"parser.program_us", "us", "lower"},
	{"parser.query_us", "us", "lower"},
	{"parser.facts_ns_per_fact", "ns", "lower"},
	{"lint.check_us", "us", "lower"},
	{"adorn.adorn_us", "us", "lower"},
	{"rewrite.magic_us", "us", "lower"},
	{"rewrite.supmagic_us", "us", "lower"},
	{"rewrite.counting_us", "us", "lower"},
	{"rewrite.rules_out", "count", "lower"},
	{"depgraph.analyze_us", "us", "lower"},
	{"eval.prepare_us", "us", "lower"},
	{"eval.fixpoint_us", "us", "lower"},
	{"eval.fixpoint_allocs", "count", "lower"},
	{"eval.answers_us", "us", "lower"},
	{"eval.derivations", "count", "lower"},
	{"eval.iterations", "count", "lower"},
	{"eval.derived_facts", "count", "lower"},
	{"eval.aux_facts", "count", "lower"},
	{"eval.join_probes_per_answer", "ratio", "lower"},
	{"eval.index_hit_ratio", "ratio", "higher"},
	{"eval.facts_per_answer", "ratio", "lower"},
	{"eval.parallel_speedup", "ratio", "higher"},
	{"database.overlay_us", "us", "lower"},
	{"database.pin_us", "us", "lower"},
	{"database.lookup_ns", "ns", "lower"},
	{"database.index_build_us", "us", "lower"},
	{"database.clone_after_pin_us", "us", "lower"},
	{"database.apply_ns_per_fact", "ns", "lower"},
	{"database.apply_allocs_per_fact", "ratio", "lower"},
	{"intern.intern_ns_per_term", "ns", "lower"},
	{"wal.append_us", "us", "lower"},
	{"wal.sync_us", "us", "lower"},
	{"wal.fsyncs_per_commit", "ratio", "lower"},
	{"wal.bytes_per_fact", "B", "lower"},
	{"wal.replay_us_per_record", "us", "lower"},
	{"wal.replay_allocs_per_record", "ratio", "lower"},
	{"wal.checkpoint_ms", "ms", "lower"},
	{"wal.checkpoint_bytes_per_fact", "B", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"trace.self_sum_share", "share", "lower"},
}

func layerMetricNames() []string {
	out := make([]string, len(layerMetrics))
	for i, m := range layerMetrics {
		out[i] = m.name
	}
	return out
}

// tracedShare is the part of -seconds the op replay may take; the probes
// that follow it are bounded by their repetition counts.
const tracedShare = 0.5

// tracedRun collects what one traced run measures.
type tracedRun struct {
	e   *env
	tr  *tracer
	chk *checker
	// values are the non-span measurements, by metric name; allocs are
	// malloc counts across a call, by span id.
	values map[string][]float64
	allocs map[int]float64
	// counts, when non-nil, says which spans the metrics are computed from;
	// the trace file always holds them all.
	counts func(span) bool
}

func newTracedRun(e *env) *tracedRun {
	return &tracedRun{e: e, tr: newTracer(true), chk: &checker{},
		values: map[string][]float64{}, allocs: map[int]float64{}}
}

func (r *tracedRun) add(name string, v float64) { r.values[name] = append(r.values[name], v) }

// reset forgets everything recorded so far — what set-up and warm-up did is
// not an op's — except the named values.
func (r *tracedRun) reset(keep ...string) {
	kept := map[string][]float64{}
	for _, name := range keep {
		kept[name] = r.values[name]
	}
	r.tr.spans = r.tr.spans[:0]
	r.values, r.allocs = kept, map[int]float64{}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// call records a span around fn and returns its id.
func (r *tracedRun) call(name, layer string, op, parent int, fn func()) int {
	id := r.tr.begin(name, layer, op, parent)
	fn()
	r.tr.end(id)
	return id
}

// counted is call plus the malloc count across fn, read outside the span.
func (r *tracedRun) counted(name, layer string, op, parent int, fn func()) int {
	before := mallocs()
	id := r.call(name, layer, op, parent, fn)
	r.allocs[id] = float64(mallocs() - before)
	return id
}

// runTraced runs the traced run of one workload and writes its spans to
// out/<workload>.trace.json.
func runTraced(e *env, workload string) (*runResult, error) {
	r := newTracedRun(e)
	var err error
	if workload == "adhoc_paper" {
		err = r.adhoc()
	} else {
		err = r.served(workload)
	}
	if err != nil {
		return nil, err
	}
	if err := writeTrace(filepath.Join(e.outDir, workload+".trace.json"), workload, r.tr.spans); err != nil {
		return nil, err
	}
	res := &runResult{Workload: workload, Traced: true, Metrics: r.metrics()}
	r.chk.into(res)
	return res, nil
}

// spanMetrics says which span a time or malloc metric is read from: its
// self time, its total time, or the mallocs across it. Every other metric
// is a value a probe recorded under the metric's own name.
var spanMetrics = map[string]struct {
	span string
	kind byte // 's' self µs, 't' total µs, 'a' mallocs
}{
	"datalogd.transport_us":   {"datalogd.roundtrip", 's'},
	"server.query_self_us":    {"server.query", 's'},
	"server.query_allocs":     {"server.query", 'a'},
	"server.txn_self_us":      {"server.txn", 's'},
	"server.txn_allocs":       {"server.txn", 'a'},
	"datalog.snapshot_pin_us": {"datalog.snapshot", 's'},
	"datalog.prepare_hit_us":  {"datalog.prepare_hit", 's'},
	"datalog.run_self_us":     {"datalog.run", 's'},
	"datalog.run_allocs":      {"datalog.run", 'a'},
	"datalog.commit_self_us":  {"datalog.commit", 's'},
	"datalog.commit_allocs":   {"datalog.commit", 'a'},
	"datalog.compile_us":      {"datalog.compile", 's'},
	"datalog.prepare_cold_us": {"datalog.prepare_cold", 's'},
	"parser.program_us":       {"parser.program", 't'},
	"parser.query_us":         {"parser.query", 't'},
	"lint.check_us":           {"lint.check", 't'},
	"adorn.adorn_us":          {"adorn.adorn", 't'},
	"rewrite.magic_us":        {"rewrite.magic", 't'},
	"rewrite.supmagic_us":     {"rewrite.supmagic", 't'},
	"rewrite.counting_us":     {"rewrite.counting", 't'},
	"depgraph.analyze_us":     {"depgraph.analyze", 't'},
	"eval.prepare_us":         {"eval.prepare", 't'},
	"eval.fixpoint_us":        {"eval.fixpoint", 's'},
	"eval.fixpoint_allocs":    {"eval.fixpoint", 'a'},
	"eval.answers_us":         {"eval.answers", 't'},
	"database.overlay_us":     {"database.overlay", 't'},
	"database.pin_us":         {"database.pin", 't'},
	"wal.append_us":           {"wal.append", 't'},
	"wal.sync_us":             {"wal.sync", 't'},
}

// metrics turns spans and values into the per-layer metric list: medians,
// and 0 for what the workload never did.
func (r *tracedRun) metrics() []metric {
	spans := r.tr.spans
	if r.counts != nil {
		spans = nil
		for _, s := range r.tr.spans {
			if r.counts(s) {
				spans = append(spans, s)
			}
		}
	}
	self, total := selfTimes(spans), totalTimes(spans)
	allocs := map[string][]float64{}
	for _, s := range spans {
		if n, ok := r.allocs[s.ID]; ok {
			allocs[s.Name] = append(allocs[s.Name], n)
		}
	}
	if share, n := selfSumShare(self, total); n > 0 {
		r.add("trace.self_sum_share", share)
	}
	out := make([]metric, 0, len(layerMetrics))
	for _, lm := range layerMetrics {
		samples, scale := r.values[lm.name], 1.0
		if sm, ok := spanMetrics[lm.name]; ok {
			switch sm.kind {
			case 's':
				samples, scale = self[sm.span], 1e-3
			case 't':
				samples, scale = total[sm.span], 1e-3
			case 'a':
				samples = allocs[sm.span]
			}
		}
		m := metric{Name: lm.name, Unit: lm.unit, N: len(samples), Better: lm.better}
		if len(samples) > 0 {
			m.Value = median(samples) * scale
		}
		out = append(out, m)
	}
	return out
}

// selfSumShare is the tracing's own consistency check on reads: the medians
// of the self times of every span under the handler, summed, as a share of
// the handler span's median. Depths run separately, so it is not 1 by
// construction; it is near 1 when every copy of the state does the same
// work for the same op.
func selfSumShare(self, total map[string][]float64) (float64, int) {
	handler := total["server.query"]
	if len(handler) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, name := range []string{"server.query", "datalog.snapshot", "datalog.prepare_hit", "datalog.run",
		"database.pin", "rewrite.parameterize", "eval.fixpoint", "eval.answers", "database.overlay"} {
		if v := self[name]; len(v) > 0 {
			sum += median(v)
		}
	}
	return sum / median(handler), len(handler)
}
