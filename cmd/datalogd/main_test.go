package main

import (
	"encoding/json"
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

// TestBootServeShutdown boots datalogd the way the README does, on a port
// of the kernel's choosing, and drives one write and one read through it
// before stopping it with the signal main forwards.
func TestBootServeShutdown(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), "-program examples/programs/ancestor_rules.dl") {
		t.Fatal("README.md no longer boots with the program file this test boots with")
	}

	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-program", readmeProgram, "-timeout", "5s"}, stop, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("datalogd exited during boot: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("datalogd did not start listening")
	}

	post := func(path, body string, out any) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: %v in %s", path, err, data)
		}
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}
	var txn server.TxnResponse
	post("/v1/txn", `{"assert_text": "par(john, mary)."}`, &txn)
	if txn.Version != 1 {
		t.Fatalf("txn version = %d, want 1", txn.Version)
	}
	var reply server.QueryResponse
	post("/v1/query", `{"query": "anc(john, Y)"}`, &reply)
	if len(reply.Results) != 1 || len(reply.Results[0].Answers) != 1 || reply.Results[0].Answers[0][0] != "mary" {
		t.Fatalf("anc(john, Y) over the boot program = %+v, want the one answer mary", reply.Results)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("datalogd did not shut down")
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
