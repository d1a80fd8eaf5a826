package datalog

import (
	"encoding/json"
	"testing"

	"repro/internal/eval"
)

// TestStatsJSONGolden pins the JSON wire shape of Stats: the field names are
// a stable contract of cmd/datalogd's responses, so they must not drift
// with Go field renames. A fully populated
// struct exercises every tag; the zero-ish struct pins which fields are
// omitempty.
func TestStatsJSONGolden(t *testing.T) {
	full := Stats{
		Strategy:       Counting,
		Sip:            SipPartial,
		RewrittenRules: 7,
		DerivedFacts:   100,
		AuxFacts:       40,
		Counters: eval.Counters{
			Derivations:   2000,
			Iterations:    12,
			JoinProbes:    5000,
			Strata:        3,
			IndexProbes:   600,
			IndexHits:     550,
			CompiledPlans: 9,
			PlanOps:       31,
			OpProbes:      450,
			OpScans:       20,
			ScanRows:      4450,
			StoppedEarly:  true,
			WorkerRounds:  16,
		},
		PlanCacheHit:       true,
		MaterializedHit:    true,
		DivergenceFallback: true,
	}
	const wantFull = `{"strategy":"counting","sip":"partial","rewritten_rules":7,` +
		`"derived_facts":100,"aux_facts":40,"derivations":2000,"iterations":12,` +
		`"join_probes":5000,"strata":3,"index_probes":600,"index_hits":550,` +
		`"compiled_plans":9,"plan_ops":31,"op_probes":450,"op_scans":20,"scan_rows":4450,` +
		`"stopped_early":true,"worker_rounds":16,` +
		`"plan_cache_hit":true,"materialized_hit":true,"divergence_fallback":true}`
	gotFull, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotFull) != wantFull {
		t.Errorf("full Stats JSON drifted:\n got %s\nwant %s", gotFull, wantFull)
	}

	minimal := Stats{Strategy: MagicSets, DerivedFacts: 1, Counters: eval.Counters{Derivations: 1, Iterations: 1}}
	const wantMinimal = `{"strategy":"magic","derived_facts":1,"derivations":1,"iterations":1}`
	gotMinimal, err := json.Marshal(minimal)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotMinimal) != wantMinimal {
		t.Errorf("minimal Stats JSON drifted:\n got %s\nwant %s", gotMinimal, wantMinimal)
	}
}

// TestDiagnosticJSONGolden pins the Diagnostic wire shape (code, severity,
// position, message, related), consumed by datalogvet -json and the
// /v1/programs and /v1/prepare responses of cmd/datalogd.
func TestDiagnosticJSONGolden(t *testing.T) {
	d := Diagnostic{
		Code:     "DL0003",
		Severity: SeverityWarning,
		Position: Position{Line: 3, Col: 13},
		Message:  "predicate pth/2 is not defined",
		Related: []RelatedInformation{
			{Position: Position{Line: 1, Col: 1}, Message: "did you mean path/2?"},
		},
	}
	const want = `{"code":"DL0003","severity":"warning","position":{"line":3,"col":13},` +
		`"message":"predicate pth/2 is not defined",` +
		`"related":[{"position":{"line":1,"col":1},"message":"did you mean path/2?"}]}`
	got, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("Diagnostic JSON drifted:\n got %s\nwant %s", got, want)
	}
}

// TestOptionsJSONRoundTrip pins the Options wire names and that a wire
// payload unmarshals onto the right fields — the request path of
// cmd/datalogd decodes untrusted Options straight into the struct.
func TestOptionsJSONRoundTrip(t *testing.T) {
	in := `{"strategy":"supplementary-magic","sip":"greedy","semijoin":true,` +
		`"keep_all_guards":true,"simplify":true,"max_iterations":4,"max_facts":5,` +
		`"max_derivations":6,"first_n":7,"no_materialize":true,"parallelism":8,` +
		`"on_divergence":"fail"}`
	var opts Options
	if err := json.Unmarshal([]byte(in), &opts); err != nil {
		t.Fatal(err)
	}
	want := Options{
		Strategy: SupplementaryMagicSets, Sip: SipGreedy, Semijoin: true,
		KeepAllGuards: true, Simplify: true, MaxIterations: 4, MaxFacts: 5,
		MaxDerivations: 6, FirstN: 7, NoMaterialize: true, Parallelism: 8,
		OnDivergence: DivergenceFail,
	}
	if opts != want {
		t.Errorf("Options round-trip mismatch:\n got %+v\nwant %+v", opts, want)
	}
	out, err := json.Marshal(opts)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != in {
		t.Errorf("Options JSON drifted:\n got %s\nwant %s", out, in)
	}
}
