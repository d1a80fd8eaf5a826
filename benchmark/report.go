package main

// Output: the table a person reads, the one-line JSON object the driver
// reads, the result file, and the comparison of sets of runs.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// resultFile is what -o writes: the machine shape, what was run, and one
// set of results per -repeat.
type resultFile struct {
	Shape shape         `json:"shape"`
	Run   runInfo       `json:"run"`
	Sets  [][]runResult `json:"sets"`
}

func writeResultFile(path string, rf *resultFile) error {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// MarshalJSON writes NaN (a percentile the run could not support) as null,
// which encoding/json would otherwise refuse.
func (m metric) MarshalJSON() ([]byte, error) {
	type plain metric
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		type nulled struct {
			plain
			Value *float64 `json:"value"`
		}
		return json.Marshal(nulled{plain: plain(m)})
	}
	return json.Marshal(plain(m))
}

// UnmarshalJSON reads a null value back as NaN.
func (m *metric) UnmarshalJSON(data []byte) error {
	type plain metric
	aux := struct {
		*plain
		Value *float64 `json:"value"`
	}{plain: (*plain)(m)}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	m.Value = math.NaN()
	if aux.Value != nil {
		m.Value = *aux.Value
	}
	return nil
}

// printRun prints every metric of one run by name, with unit, sample count,
// window spread and regression bound.
func printRun(w io.Writer, r *runResult) {
	mode := "end to end, tracing off"
	if r.Traced {
		mode = "traced run, per layer"
	}
	fmt.Fprintf(w, "\n== %s (%s) ==\n", r.Workload, mode)
	fmt.Fprintf(w, "%-34s %-12s %14s %-6s %8s %8s %6s\n", "metric", "slot", "value", "unit", "n", "spread", "bound")
	for _, m := range r.Metrics {
		value := fmt.Sprintf("%14.4f", m.Value)
		if math.IsNaN(m.Value) {
			value = fmt.Sprintf("%14s", "too short")
		}
		bound, spr := "", ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", m.Bound*100)
		}
		if m.Spread > 0 {
			spr = fmt.Sprintf("%.1f%%", m.Spread*100)
		}
		fmt.Fprintf(w, "%-34s %-12s %s %-6s %8d %8s %6s\n", m.Name, m.Slot, value, m.Unit, m.N, spr, bound)
	}
	fmt.Fprintf(w, "%-34s %-12s %14.6f %-6s %8d %8s %6s\n", "error_share", "", r.errorShare(), "share", r.Attempted, "", "0")
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// driverLine renders the contract's last line: exactly the keys correct,
// attempted, failed and metrics, the metrics being every end_to_end slot
// (tracing off) or every per_layer metric (traced).
func driverLine(r *runResult) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if r.Traced {
		for _, name := range layerMetricNames() {
			m, ok := r.find(name)
			if !ok || math.IsNaN(m.Value) {
				return "", fmt.Errorf("%s: per-layer metric %s was not measured", r.Workload, name)
			}
			metrics[name] = value{m.Value, m.Unit}
		}
	} else {
		for _, m := range r.Metrics {
			if m.Slot != "" {
				if !usable(m.Value) {
					return "", fmt.Errorf("%s: run too short: %s (%s) has no supported value after %d samples",
						r.Workload, m.Name, m.Slot, m.N)
				}
				metrics[m.Slot] = value{m.Value, m.Unit}
			}
		}
		for slot := range slotBounds {
			if _, ok := metrics[slot]; !ok {
				return "", fmt.Errorf("%s: no metric fills slot %s", r.Workload, slot)
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	return string(line), err
}

// worse is how much worse b is than a, as a share of a, in the metric's own
// direction; negative when b is better.
func worse(m metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, per workload and bounded metric, the value in every
// set, how much the worst set is worse than the best, and PASS or FAIL
// against the metric's bound; exact counts must repeat exactly. It reports
// whether everything passed.
func compareSets(w io.Writer, sets [][]runResult) bool {
	pass := true
	for _, r := range sets[0] {
		fmt.Fprintf(w, "\n== %s: %d sets ==\n", r.Workload, len(sets))
		for _, m := range r.Metrics {
			if m.Bound == 0 && !m.Exact {
				continue
			}
			vals := metricValues(sets, r.Workload, r.Traced, m.Name)
			best, worst := vals[0], vals[0]
			for _, v := range vals {
				if worse(m, best, v) < 0 {
					best = v
				}
				if worse(m, worst, v) > 0 {
					worst = v
				}
			}
			diff := worse(m, best, worst)
			verdict := "PASS"
			if m.Exact && diff != 0 {
				verdict, pass = "FAIL (must repeat exactly)", false
			} else if !m.Exact && diff > m.Bound {
				verdict, pass = "FAIL", false
			}
			cells := make([]string, len(vals))
			for i, v := range vals {
				cells[i] = fmt.Sprintf("%.4f", v)
			}
			fmt.Fprintf(w, "%-30s %-12s %-30s median %12.4f %-5s diff %6.2f%% bound %3.0f%% %s\n",
				m.Name, m.Slot, strings.Join(cells, " "), median(vals), m.Unit, diff*100, m.Bound*100, verdict)
		}
	}
	return pass
}

// metricValues collects one metric's value from every run of one workload
// and mode across sets.
func metricValues(sets [][]runResult, workload string, traced bool, name string) []float64 {
	var out []float64
	for _, set := range sets {
		for i := range set {
			if set[i].Workload == workload && set[i].Traced == traced {
				if m, ok := set[i].find(name); ok {
					out = append(out, m.Value)
				}
			}
		}
	}
	return out
}

// compareFiles checks the second result file against the first: per
// workload and bounded metric, the median over each file's sets, and FAIL
// when the second is worse than the first by more than the bound. It
// refuses files whose machine shapes differ: a number from another machine
// is another number.
func compareFiles(w io.Writer, a, b string) (bool, error) {
	fa, err := readResultFile(a)
	if err != nil {
		return false, err
	}
	fb, err := readResultFile(b)
	if err != nil {
		return false, err
	}
	if fa.Shape != fb.Shape {
		return false, fmt.Errorf("refusing to compare: machine shapes differ\n  %s: %+v\n  %s: %+v", a, fa.Shape, b, fb.Shape)
	}
	if fa.Run.Seconds != fb.Run.Seconds {
		return false, fmt.Errorf("refusing to compare: -seconds differ (%g and %g)", fa.Run.Seconds, fb.Run.Seconds)
	}
	fmt.Fprintf(w, "base %s (commit %s, seed %d), change %s (commit %s, seed %d)\n",
		a, fa.Run.Commit, fa.Run.Seed, b, fb.Run.Commit, fb.Run.Seed)
	pass := true
	if len(fa.Sets) == 0 {
		return false, fmt.Errorf("%s holds no results", a)
	}
	for _, r := range fa.Sets[0] {
		fmt.Fprintf(w, "\n== %s ==\n", r.Workload)
		for _, m := range r.Metrics {
			if m.Bound == 0 {
				continue
			}
			va, vb := metricValues(fa.Sets, r.Workload, r.Traced, m.Name), metricValues(fb.Sets, r.Workload, r.Traced, m.Name)
			if len(vb) == 0 {
				fmt.Fprintf(w, "%-30s missing from %s: FAIL\n", m.Name, b)
				pass = false
				continue
			}
			diff := worse(m, median(va), median(vb))
			verdict := "PASS"
			if diff > m.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(w, "%-30s %-12s base %12.4f change %12.4f %-5s worse by %6.2f%% bound %3.0f%% %s\n",
				m.Name, m.Slot, median(va), median(vb), m.Unit, diff*100, m.Bound*100, verdict)
		}
	}
	return pass, nil
}
