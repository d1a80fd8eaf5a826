// Command benchmark is this repository's benchmark: four workloads over the
// served and the library path, checked against an oracle of its own, with
// end-to-end numbers from a real datalogd subprocess and a separate traced
// run that times the calls into each layer. README.md describes the
// workloads, the metrics and how they are expected to move.
//
//	cd benchmark && go run . -workload all -seed 1
//
// The driver's form (see ../BENCHMARK.json) is
//
//	go -C benchmark run . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints one JSON object as the last line of standard output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// workloads in report order, with the function that runs each end to end.
var workloads = []struct {
	name string
	run  func(*env) (*runResult, error)
}{
	{"read_point", runReadPoint},
	{"durable_ingest", runDurableIngest},
	{"mixed_rw", runMixedRW},
	{"adhoc_paper", runAdhocPaper},
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "all", "workload to run: read_point, durable_ingest, mixed_rw, adhoc_paper or all")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = flag.String("trace", "both", "0 = end-to-end run, tracing off; 1 = traced per-layer run; both")
		repeat   = flag.Int("repeat", 1, "run the selected workloads this many times and compare the sets")
		smoke    = flag.Bool("smoke", false, "tiny sizes against an in-process server: exercises every code path in about a second")
		outPath  = flag.String("o", "", "result file (default out/result.json)")
		compare  = flag.String("compare", "", "compare two result files, base,change, instead of running")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *compare != "" {
		a, b, ok := strings.Cut(*compare, ",")
		if !ok {
			return errors.New("-compare wants base.json,change.json")
		}
		pass, err := compareFiles(os.Stdout, a, b)
		if err != nil {
			return err
		}
		if !pass {
			return errors.New("the change is worse than the base beyond a bound")
		}
		return nil
	}
	if *seconds <= 0 || *repeat < 1 {
		return errors.New("-seconds and -repeat must be positive")
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		return fmt.Errorf("-trace %q: want 0, 1 or both", *trace)
	}
	var selected []int
	for i, w := range workloads {
		if *workload == "all" || *workload == w.name {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", *workload)
	}

	benchDir, err := findBenchDir()
	if err != nil {
		return err
	}
	root := filepath.Dir(benchDir)
	outDir := filepath.Join(benchDir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	e := &env{outDir: outDir, seed: *seed, seconds: *seconds, sizes: fullSizes, launch: launchInproc}
	if *smoke {
		e.sizes = smokeSizes
	} else {
		start := time.Now()
		bin, err := buildDatalogd(root, outDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "built %s in %.1fs\n", bin, time.Since(start).Seconds())
		e.launch = daemonLauncher(bin, filepath.Join(outDir, "datalogd.log"))
	}
	// A signal must not leave a datalogd behind: running children are
	// killed on the way out.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killChildren()
		os.Exit(130)
	}()

	rf := &resultFile{
		Shape: machineShape(outDir),
		Run:   runInfo{Seed: *seed, Seconds: *seconds, Commit: commitOf(root)},
	}
	fmt.Printf("machine: %+v\nrun: %+v\n", rf.Shape, rf.Run)
	failed := false
	var lines []string
	for rep := 0; rep < *repeat; rep++ {
		var set []runResult
		for _, i := range selected {
			w := workloads[i]
			var results []*runResult
			if *trace != "1" {
				r, err := w.run(e)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				results = append(results, r)
			}
			if *trace != "0" {
				r, err := runTraced(e, w.name)
				if err != nil {
					return fmt.Errorf("%s (traced): %w", w.name, err)
				}
				results = append(results, r)
			}
			for _, r := range results {
				printRun(os.Stdout, r)
				set = append(set, *r)
				failed = failed || !r.correct()
				line, err := driverLine(r)
				if err != nil {
					return err
				}
				lines = append(lines, line)
			}
		}
		rf.Sets = append(rf.Sets, set)
	}
	if *repeat > 1 && !compareSets(os.Stdout, rf.Sets) {
		failed = true
	}
	path := *outPath
	if path == "" {
		path = filepath.Join(outDir, "result.json")
	}
	if err := writeResultFile(path, rf); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s\n", path)
	if failed {
		return errors.New("FAILED: an output was wrong, an operation failed, or two sets disagreed beyond a bound")
	}
	// The driver reads the last line; it asks for one workload in one mode.
	for _, line := range lines {
		fmt.Println(line)
	}
	return nil
}

// findBenchDir locates this package's directory: the working directory when
// run as `go -C benchmark run .`, or ./benchmark from the repository root.
func findBenchDir() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Join(wd, "benchmark")} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module repro/benchmark\n") {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repository root or from benchmark/ (no benchmark/go.mod under %s)", wd)
}

// buildDatalogd builds cmd/datalogd from the checkout's own sources.
func buildDatalogd(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "datalogd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/datalogd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building datalogd: %w\n%s", err, out)
	}
	return bin, nil
}
