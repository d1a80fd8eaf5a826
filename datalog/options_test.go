package datalog

import (
	"strings"
	"testing"
)

// TestOptionsValidate table-tests the facade-boundary validation: negative
// limits and unknown enumeration values must produce a descriptive error
// instead of undefined behavior, and zero/default values must pass.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		wantErr string // substring; empty means valid
	}{
		{name: "zero value", opts: Options{}},
		{name: "all defaults explicit", opts: Options{Strategy: MagicSets, Sip: SipFull, OnDivergence: DivergenceFallback}},
		{name: "every strategy", opts: Options{Strategy: SupplementaryCounting, Sip: SipGreedy, OnDivergence: DivergenceRun}},
		{name: "positive limits", opts: Options{MaxIterations: 5, MaxFacts: 10, MaxDerivations: 100, FirstN: 3, Parallelism: 4}},

		{name: "unknown strategy", opts: Options{Strategy: "bottomup"}, wantErr: `unknown strategy "bottomup"`},
		{name: "unknown sip", opts: Options{Sip: "sideways"}, wantErr: `unknown sip policy "sideways"`},
		{name: "unknown divergence policy", opts: Options{OnDivergence: "explode"}, wantErr: `unknown divergence policy "explode"`},
		{name: "negative max iterations", opts: Options{MaxIterations: -1}, wantErr: "Options.MaxIterations is negative (-1)"},
		{name: "negative max facts", opts: Options{MaxFacts: -7}, wantErr: "Options.MaxFacts is negative (-7)"},
		{name: "negative max derivations", opts: Options{MaxDerivations: -2}, wantErr: "Options.MaxDerivations is negative (-2)"},
		{name: "negative first n", opts: Options{FirstN: -3}, wantErr: "Options.FirstN is negative (-3)"},
		{name: "negative parallelism", opts: Options{Parallelism: -8}, wantErr: "Options.Parallelism is negative (-8)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestInvalidOptionsRejectedAtEveryEntryPoint pins that each query entry
// point — one-shot, prepare, stream, Rewrite — rejects bad options with the
// validation error rather than evaluating.
func TestInvalidOptionsRejectedAtEveryEntryPoint(t *testing.T) {
	fx := newFixture(t, `
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
		par(john, mary).
	`)
	bad := Options{FirstN: -1}
	check := func(what, wantErr string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: error = %v, want one containing %q", what, err, wantErr)
		}
	}
	const wantErr = "Options.FirstN is negative"
	_, err := fx.prog.Rewrite("anc(john, Y)", Options{Strategy: "nope"})
	check("Program.Rewrite", `unknown strategy "nope"`, err)
	snap := fx.snap()
	_, err = snap.Query("anc(john, Y)", bad)
	check("Snapshot.Query", wantErr, err)
	_, err = snap.Prepare("anc(john, Y)", bad)
	check("Snapshot.Prepare", wantErr, err)
	var streamErr error
	for _, e := range snap.Stream(t.Context(), "anc(john, Y)", bad) {
		streamErr = e
	}
	check("Snapshot.Stream", wantErr, streamErr)
}
