package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	values := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{200, 0.95, 190, true},
		{199, 0.95, 190, false},
		{3, 0.5, 2, true}, // the median is always reported
		{1, 0.5, 1, true},
	} {
		got, ok := percentile(values(tc.n), tc.p, minBeyond)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5, minBeyond); ok {
		t.Error("percentile of no samples must not be supported")
	}
}

func TestSummarizeReportsTheMedianWindow(t *testing.T) {
	// Five windows of 300 back-to-back ops; the fourth is ten times slower,
	// as if a checkpoint had run through it.
	var (
		samples []sample
		at      time.Duration
	)
	for w := 0; w < phaseWindows; w++ {
		d := time.Millisecond
		if w == 3 {
			d = 10 * time.Millisecond
		}
		for i := 0; i < 300; i++ {
			samples = append(samples, sample{start: at, dur: d})
			at += d
		}
	}
	s := summarize(samples, minBeyond)
	if s.N != 1500 || s.Windows != phaseWindows {
		t.Fatalf("N=%d Windows=%d", s.N, s.Windows)
	}
	if s.P50 != 1 || s.P95 != 1 {
		t.Errorf("median window p50=%g p95=%g, want 1 and 1: the slow window must not decide", s.P50, s.P95)
	}
	if math.Abs(s.PerSec-1000) > 1e-6 {
		t.Errorf("median window rate %g, want 1000/s", s.PerSec)
	}
	// (max-min)/median over windows: (10-1)/1 for latency, (1000-100)/1000.
	if math.Abs(s.SpreadP50-9) > 1e-9 || math.Abs(s.SpreadPerSec-0.9) > 1e-9 {
		t.Errorf("spread p50=%g rate=%g, want 9 and 0.9", s.SpreadP50, s.SpreadPerSec)
	}
	if math.IsNaN(s.P99) || s.P99 != 10 {
		t.Errorf("whole-phase p99 = %g, want 10", s.P99)
	}

	// Too few ops to cut into windows: reported whole, tail unsupported.
	short := summarize(samples[:12], minBeyond)
	if short.Windows != 1 || !math.IsNaN(short.P95) || !math.IsNaN(short.P99) || short.P50 != 1 {
		t.Errorf("short phase: %+v", short)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "roundtrip", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "handler", Start: 2000, End: 2700},
		{ID: 3, Parent: 2, Name: "run", Start: 3000, End: 3400},
		{ID: 4, Parent: 2, Name: "pin", Start: 3500, End: 3600},
		{ID: 5, Name: "roundtrip", Start: 4000, End: 4100},
	}
	self := selfTimes(spans)
	want := map[string][]float64{"roundtrip": {300, 100}, "handler": {200}, "run": {400}, "pin": {100}}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if total := totalTimes(spans)["handler"]; !reflect.DeepEqual(total, []float64{700}) {
		t.Errorf("totalTimes[handler] = %v", total)
	}
}

func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin("x", "y", 1, 0)
	tr.end(id)
	if id != 0 || len(tr.spans) != 0 {
		t.Errorf("disabled tracer recorded id=%d spans=%d", id, len(tr.spans))
	}
}

// opStream renders everything a seed generates for the served workloads
// into one byte stream.
func opStream(seed int64) []byte {
	e := &env{seed: seed, seconds: 1, sizes: smokeSizes}
	in := newForestInputs(e)
	var b bytes.Buffer
	b.Write(txnBody(in.forest.Facts(0, len(in.forest.Edges)), nil))
	b.Write(txnBody(in.control.Facts(0, len(in.control.Edges)), nil))
	for _, k := range in.keys {
		b.Write(queryBody("q1", in.forest.Names[k]))
	}
	for _, k := range in.ckeys {
		b.Write(queryBody("q2", in.control.Names[k]))
	}
	for _, op := range in.writes {
		b.Write(op.Body)
	}
	plan := newIngestPlan(rand.New(rand.NewSource(seed)), 2, 30)
	for _, op := range plan.Bulk {
		b.Write(op.Body)
	}
	for _, stream := range plan.Small {
		for _, op := range stream {
			b.Write(op.Body)
		}
	}
	for _, f := range newSuite(rand.New(rand.NewSource(seed)), smokeSuite) {
		b.WriteString(f.Facts)
		b.WriteString(f.Query)
	}
	return b.Bytes()
}

func TestSameSeedSameOpStream(t *testing.T) {
	a, b := opStream(7), opStream(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated two different op streams")
	}
	if bytes.Equal(a, opStream(8)) {
		t.Fatal("two seeds generated the same op stream")
	}
	if len(a) == 0 {
		t.Fatal("empty op stream")
	}
}

func TestForestShape(t *testing.T) {
	f := NewForest(rand.New(rand.NewSource(1)), "par", "n", 5, forestTrees, forestDepth, true)
	if len(f.Edges) != 25200 || len(f.Depth1()) != 400 {
		t.Fatalf("%d edges, %d depth-1 nodes; want 25,200 and 400", len(f.Edges), len(f.Depth1()))
	}
	g := graphOf("par", f.Facts(0, len(f.Edges)))
	for _, k := range f.Depth1()[:8] {
		if n := len(g.Reachable(f.Names[k])); n != answersPerRead {
			t.Fatalf("%d nodes below a depth-1 node, want %d", n, answersPerRead)
		}
	}
}

func TestOracleOnHandWrittenInputs(t *testing.T) {
	// Two tiny trees: a → b, c; b → d; and x → y. A cycle must terminate.
	facts := []wireFact{
		{"par", [2]string{"a", "b"}}, {"par", [2]string{"a", "c"}}, {"par", [2]string{"b", "d"}},
		{"par", [2]string{"x", "y"}}, {"par", [2]string{"d", "a"}},
		{"other", [2]string{"a", "z"}},
	}
	g := graphOf("par", facts)
	for start, want := range map[string][]string{
		"a": {"a", "b", "c", "d"}, // through the cycle d → a
		"b": {"a", "b", "c", "d"},
		"x": {"y"},
		"y": {},
	} {
		if got := g.Reachable(start); !reflect.DeepEqual(got, want) {
			t.Errorf("Reachable(%s) = %v, want %v", start, got, want)
		}
	}

	// Same generation over two layers: u1, u2 below t1, t2; flat t1 → t2.
	up := Graph{"u1": {"t1"}, "u2": {"t2"}}
	down := Graph{"t1": {"u1"}, "t2": {"u2"}}
	flat := Graph{"t1": {"t2"}}
	sg := sameGeneration(up, flat, down)
	if !sg["t1"]["t2"] || !sg["u1"]["u2"] || len(sg) != 2 {
		t.Errorf("sameGeneration = %v", sg)
	}
	// p(u1, Y): b1 gives m1; sg(u1, u2), p(u2, m2), b2(m2, o2) gives o2.
	got := nestedSameGeneration(up, flat, down, Graph{"u1": {"m1"}, "u2": {"m2"}}, Graph{"m1": {"o1"}, "m2": {"o2"}}, "u1")
	if !reflect.DeepEqual(got, []string{"m1", "o2"}) {
		t.Errorf("nestedSameGeneration = %v, want [m1 o2]", got)
	}

	if got := reversedList([]string{"a", "b", "c"}); got != "[c, b, a]" {
		t.Errorf("reversedList = %s", got)
	}
	if reversedList(nil) != "[]" {
		t.Errorf("reversedList(nil) = %s", reversedList(nil))
	}
	if !sameSet([]string{"b", "a"}, []string{"a", "b"}) || sameSet([]string{"a"}, []string{"a", "b"}) || sameSet([]string{"a", "a"}, []string{"a", "b"}) {
		t.Error("sameSet")
	}
}

// benchmarkSpec is the part of ../BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name  string
		Bound float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONNamesWhatTheCodeReports(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads: code %v, BENCHMARK.json %v", names, specNames)
	}
	if len(spec.EndToEnd) != len(slotBounds) {
		t.Errorf("%d end_to_end metrics, %d slots", len(spec.EndToEnd), len(slotBounds))
	}
	for _, m := range spec.EndToEnd {
		if b, ok := slotBounds[m.Name]; !ok || b != m.Bound {
			t.Errorf("end_to_end %s bound %g; the code has %g (%v)", m.Name, m.Bound, b, ok)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per_layer metrics, code reports %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), code has %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

// TestSmoke runs every workload, end to end and traced, at tiny sizes
// against an in-process server, and checks the shape of what comes out.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	e := &env{outDir: t.TempDir(), launch: launchInproc, seed: 3, seconds: 0.1, sizes: smokeSizes}
	var set []runResult
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var (
				r   *runResult
				err error
			)
			if traced {
				r, err = runTraced(e, w.name)
			} else {
				r, err = w.run(e)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.correct() {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.name, traced, r.Failed, r.Attempted, r.Errors)
			}
			set = append(set, *r)

			line, err := driverLine(r)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var out map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatal(err)
			}
			var keys []string
			for k := range out {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("driver line keys %v", keys)
			}
			var metrics map[string]struct {
				Value *float64
				Unit  string
			}
			if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			var want []string
			if traced {
				for _, m := range spec.PerLayer {
					want = append(want, m.Name)
				}
			} else {
				for _, m := range spec.EndToEnd {
					want = append(want, m.Name)
				}
			}
			if len(metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(metrics), len(want))
			}
			for _, name := range want {
				m, ok := metrics[name]
				if !ok || m.Value == nil || m.Unit == "" {
					t.Errorf("%s traced=%v: metric %s missing or without value and unit", w.name, traced, name)
				} else if !traced && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.name, name, *m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(e.outDir, w.name+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
		}
	}

	// The read path's self times must add up to the handler's time.
	for _, r := range set {
		if r.Traced && r.Workload == "read_point" {
			if m, _ := r.find("trace.self_sum_share"); m.Value < 0.5 || m.Value > 1.5 {
				t.Errorf("read_point self times sum to %.2f of the handler span", m.Value)
			}
		}
	}

	// Result files round-trip, compare with themselves, and refuse a file
	// from another machine shape.
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	rf := &resultFile{Shape: machineShape(dir), Run: runInfo{Seed: 3, Seconds: 0.1, Commit: "test"}, Sets: [][]runResult{set}}
	if err := writeResultFile(a, rf); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if pass, err := compareFiles(&report, a, a); err != nil || !pass {
		t.Errorf("a file compared with itself: pass=%v err=%v\n%s", pass, err, report.String())
	}
	if !compareSets(&report, [][]runResult{set, set}) {
		t.Errorf("a set compared with itself failed:\n%s", report.String())
	}
	rf.Shape.NProc++
	if err := writeResultFile(b, rf); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(&report, a, b); err == nil || !strings.Contains(err.Error(), "machine shapes differ") {
		t.Errorf("comparing files of different machine shapes: err = %v", err)
	}
}

func TestCompareFlagsARegressionBeyondTheBound(t *testing.T) {
	run := func(p50, bytes float64) []runResult {
		return []runResult{{Workload: "w", Attempted: 1, Metrics: []metric{
			gated("read_p50_ms", slotMainP50, p50, "ms", 100, 0),
			gated("read_ops_per_s", slotMainPS, 1000/p50, "1/s", 100, 0),
			{Name: "wal_bytes_per_fact", Value: bytes, Unit: "B", Exact: true, Better: "lower"},
		}}}
	}
	var out bytes.Buffer
	if !compareSets(&out, [][]runResult{run(1.00, 26), run(1.05, 26)}) {
		t.Errorf("5%% apart must pass a %g bound:\n%s", slotBounds[slotMainP50], out.String())
	}
	if compareSets(&out, [][]runResult{run(1.00, 26), run(1.50, 26)}) {
		t.Errorf("50%% apart must fail a %g bound:\n%s", slotBounds[slotMainP50], out.String())
	}
	if compareSets(&out, [][]runResult{run(1.00, 26), run(1.00, 26.5)}) {
		t.Errorf("an exact count that moved must fail:\n%s", out.String())
	}
}
