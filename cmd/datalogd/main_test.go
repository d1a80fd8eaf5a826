package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// readmeProgram is the -program file of the boot command in README.md.
var readmeProgram = filepath.Join("..", "..", "examples", "programs", "ancestor_rules.dl")

// daemon is one datalogd booted in-process by run, on a port of the
// kernel's choosing.
type daemon struct {
	base string
	stop chan os.Signal
	done chan error
}

// boot starts run with args and waits until it accepts connections.
func boot(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{stop: make(chan os.Signal, 1), done: make(chan error, 1)}
	ready := make(chan string, 1)
	go func() { d.done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), d.stop, ready) }()
	select {
	case addr := <-ready:
		d.base = "http://" + addr
	case err := <-d.done:
		t.Fatalf("datalogd exited during boot: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("datalogd did not start listening")
	}
	return d
}

// call sends a request (a GET when body is empty, else a JSON POST),
// requires 200 and decodes the reply into out.
func (d *daemon) call(t *testing.T, path, body string, out any) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(d.base + path)
	} else {
		resp, err = http.Post(d.base+path, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("%s: %v in %s", path, err, data)
	}
}

// shutdown sends the signal main forwards and requires a clean exit.
func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	d.stop <- syscall.SIGTERM
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("datalogd did not shut down")
	}
}

// ancestors queries anc(john, Y) and returns the answers in reply order.
func (d *daemon) ancestors(t *testing.T) []string {
	t.Helper()
	var reply server.QueryResponse
	d.call(t, "/v1/query", `{"query": "anc(john, Y)"}`, &reply)
	if len(reply.Results) != 1 {
		t.Fatalf("anc(john, Y): %d result sets, want 1", len(reply.Results))
	}
	var out []string
	for _, a := range reply.Results[0].Answers {
		out = append(out, fmt.Sprint(a[0]))
	}
	return out
}

// TestBootServeShutdown boots datalogd the way the README does and drives
// one write and one read through it before stopping it.
func TestBootServeShutdown(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), "-program examples/programs/ancestor_rules.dl") {
		t.Fatal("README.md no longer boots with the program file this test boots with")
	}

	d := boot(t, "-program", readmeProgram, "-timeout", "5s")
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}
	var txn server.TxnResponse
	d.call(t, "/v1/txn", `{"assert_text": "par(john, mary)."}`, &txn)
	if txn.Version != 1 {
		t.Fatalf("txn version = %d, want 1", txn.Version)
	}
	if got := d.ancestors(t); len(got) != 1 || got[0] != "mary" {
		t.Fatalf("anc(john, Y) over the boot program = %v, want the one answer mary", got)
	}
	d.shutdown(t)
}

// TestDurableShutdownRecovers pins the -data-dir shutdown path: SIGTERM
// checkpoints the final state and seals the log, so a second boot on the
// same directory recovers the committed version from the checkpoint alone,
// sees the seal, and answers from the recovered facts.
func TestDurableShutdownRecovers(t *testing.T) {
	dir := t.TempDir()
	d := boot(t, "-program", readmeProgram, "-data-dir", dir)
	var txn server.TxnResponse
	d.call(t, "/v1/txn", `{"assert_text": "par(john, mary). par(mary, sue)."}`, &txn)
	if txn.Version == 0 {
		t.Fatal("txn committed no version")
	}
	d.shutdown(t)

	d = boot(t, "-program", readmeProgram, "-data-dir", dir)
	defer d.shutdown(t)
	var stats server.StatsResponse
	d.call(t, "/v1/stats", "", &stats)
	ds := stats.Durability
	if ds == nil {
		t.Fatal("/v1/stats of a -data-dir server has no durability section")
	}
	if ds.RecoveredVersion != txn.Version || !ds.CleanShutdown || ds.ReplayedRecords != 0 {
		t.Fatalf("reboot: recovered_version %d, clean_shutdown %v, replayed_records %d; want %d, true, 0 (a final checkpoint covering a sealed log)",
			ds.RecoveredVersion, ds.CleanShutdown, ds.ReplayedRecords, txn.Version)
	}
	if got := d.ancestors(t); len(got) != 2 || got[0] != "mary" || got[1] != "sue" {
		t.Fatalf("anc(john, Y) after reboot = %v, want [mary sue]", got)
	}
}

// TestBootRefusesProgramWithFacts pins the boot half of the embedded-facts
// fix: a -program file that carries ground facts fails the boot instead of
// serving the rules with the facts silently dropped.
func TestBootRefusesProgramWithFacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.dl")
	if err := os.WriteFile(path, []byte("anc(X, Y) :- par(X, Y).\npar(a, b).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-addr", "127.0.0.1:0", "-program", path}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "2:1") || !strings.Contains(err.Error(), "-facts") {
		t.Fatalf("boot with embedded facts: err = %v, want a refusal naming 2:1 and -facts", err)
	}
}
