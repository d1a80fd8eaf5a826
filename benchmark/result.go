package main

// What a run reports: named metrics with unit, sample count and regression
// bound, and the count of operations attempted and failed.

import (
	"fmt"
	"math"
	"sync"
)

// The end-to-end slots of BENCHMARK.json. The contract wants every workload
// to report every end-to-end metric, but the four workloads do not measure
// the same things (reads here, commits there), so BENCHMARK.json names
// slots and each workload fills a slot with its own quantity: main is the
// stream the workload is named for, side the stream that accompanies it.
// README.md has the table; the report prints both names.
const (
	slotSetup   = "setup_s"
	slotMainP50 = "main_p50_ms"
	slotMainP99 = "main_p99_ms"
	slotMainPS  = "main_per_s"
	slotSideP50 = "side_p50_ms"
	slotSidePS  = "side_per_s"
	slotRSS     = "rss_mb"
)

// slotBounds are the regression bounds of BENCHMARK.json: the share of the
// parent's median by which a metric may get worse. The contract wants a
// bound at least three times the run-to-run spread and caps it at 0.25; on
// the 2-vCPU guest this was defined on, every metric's spread reached a
// third of the cap on some workload in some set of runs (README.md has the
// numbers), so every bound is the cap.
var slotBounds = map[string]float64{
	slotSetup:   0.25,
	slotMainP50: 0.25,
	slotMainP99: 0.25,
	slotMainPS:  0.25,
	slotSideP50: 0.25,
	slotSidePS:  0.25,
	slotRSS:     0.25,
}

// metric is one reported number.
type metric struct {
	Name   string  `json:"name"`
	Slot   string  `json:"slot,omitempty"` // BENCHMARK.json name, when gated
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`                // samples behind the value
	Spread float64 `json:"spread,omitempty"` // (max-min)/median across windows
	Better string  `json:"better,omitempty"` // "lower" | "higher"
	Bound  float64 `json:"bound,omitempty"`  // 0 = reported, not gated
	// Exact marks a count that must repeat exactly between runs of one
	// commit with one seed.
	Exact bool `json:"exact,omitempty"`
}

// gated builds an end-to-end metric bound to a slot.
func gated(name, slot string, value float64, unit string, n int, spread float64) metric {
	better := "lower"
	if slot == slotMainPS || slot == slotSidePS {
		better = "higher"
	}
	return metric{Name: name, Slot: slot, Value: value, Unit: unit, N: n, Spread: spread,
		Better: better, Bound: slotBounds[slot]}
}

// runResult is one workload, run once, in one mode.
type runResult struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"` // the first few failures
	Metrics   []metric `json:"metrics"`
}

func (r *runResult) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

func (r *runResult) errorShare() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func (r *runResult) find(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// checker counts operations and their failures. Several generator
// goroutines share one.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errors    []string
}

const keptErrors = 8

// ok counts one correct operation.
func (c *checker) ok() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

// fail counts one failed, refused or wrong operation.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	c.attempted++
	c.failed++
	if len(c.errors) < keptErrors {
		c.errors = append(c.errors, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// check counts one operation, failed when err is non-nil.
func (c *checker) check(err error) {
	if err != nil {
		c.fail("%v", err)
		return
	}
	c.ok()
}

func (c *checker) into(r *runResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.Attempted, r.Failed, r.Errors = c.attempted, c.failed, c.errors
}

// usable reports whether v can stand as a gated value: the contract rejects
// zeros, and NaN marks a percentile the run was too short to support.
func usable(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0 }
