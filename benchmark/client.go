package main

// The load generator's side of the wire: a datalogd subprocess, and one
// keep-alive HTTP connection per generator goroutine.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running datalogd.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{} // closed when the process has been waited for
}

// children are the datalogd processes currently running, so that a signal
// can take them down with the benchmark.
var children = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: map[*daemon]bool{}}

func killChildren() {
	children.Lock()
	var all []*daemon
	for d := range children.set {
		all = append(all, d)
	}
	children.Unlock()
	for _, d := range all {
		d.kill()
	}
}

// daemonConfig is the part of datalogd's command line a workload chooses.
type daemonConfig struct {
	DataDir         string // empty = memory-only
	CheckpointEvery int
}

// fsyncPolicy is the same on every durable run and recorded in the output.
const fsyncPolicy = "always"

// startDaemon execs the built datalogd on a free loopback port and returns
// once /healthz answers; the second result is exec → healthy.
func startDaemon(bin, logPath string, cfg daemonConfig) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-addr", addr}
	if cfg.DataDir != "" {
		args = append(args, "-data-dir", cfg.DataDir, "-fsync", fsyncPolicy,
			"-checkpoint-every", strconv.Itoa(cfg.CheckpointEvery))
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, log: logFile, done: make(chan struct{})}
	children.Lock()
	children.set[d] = true
	children.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a killed child is not news
		close(d.done)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.done:
			d.kill()
			return nil, 0, fmt.Errorf("datalogd exited during boot; see %s", logPath)
		default:
		}
		if time.Since(start) > 60*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("datalogd not healthy after 60s; see %s", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the process and returns once it has been reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // already gone is fine
	<-d.done
	d.log.Close()
	children.Lock()
	delete(children.set, d)
	children.Unlock()
}

// peakRSSMB reads VmHWM of the running process.
func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// conn is one closed-loop caller: a client that owns a single keep-alive
// connection and sends its next request only after reading the reply.
type conn struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends body and returns the status and the raw reply, valid until the
// next call.
func (c *conn) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.client.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// call posts a JSON request and decodes a 200 reply into out.
func (c *conn) call(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.postJSON(path, body, out)
}

// postJSON posts a ready-made body and decodes a 200 reply into out; any
// other status is an error carrying the reply.
func (c *conn) postJSON(path string, body []byte, out any) error {
	status, reply, err := c.post(path, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, status, bytes.TrimSpace(reply))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(reply, out)
}

// queryReply is the part of a /v1/query reply the checker reads.
type queryReply struct {
	Version uint64 `json:"version"`
	Results []struct {
		Answers [][]string `json:"answers"`
	} `json:"results"`
}

// txnReply is the part of a /v1/txn reply the checker reads.
type txnReply struct {
	Version  uint64 `json:"version"`
	Asserts  int    `json:"asserts"`
	Retracts int    `json:"retracts"`
}

// statsReply is the part of /v1/stats the harness reads.
type statsReply struct {
	Database struct {
		Version    uint64 `json:"version"`
		TotalFacts int    `json:"total_facts"`
	} `json:"database"`
	Tenants map[string]struct {
		Rejected int64 `json:"rejected"`
	} `json:"tenants"`
	Durability *struct {
		RecordsAppended       uint64 `json:"records_appended"`
		BytesAppended         uint64 `json:"bytes_appended"`
		Fsyncs                uint64 `json:"fsyncs"`
		RecoveredVersion      uint64 `json:"recovered_version"`
		LastCheckpointVersion uint64 `json:"last_checkpoint_version"`
		LastCheckpointError   string `json:"last_checkpoint_error"`
	} `json:"durability"`
}

func (c *conn) stats() (*statsReply, error) {
	resp, err := c.client.Get(c.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out statsReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// loadProgram uploads and activates the served program.
func (c *conn) loadProgram(src string) error {
	return c.call("/v1/programs", map[string]any{"source": src, "activate": true}, nil)
}

// prepare registers a query form and returns its handle.
func (c *conn) prepare(query string) (string, error) {
	var out struct {
		PreparedID string `json:"prepared_id"`
	}
	if err := c.call("/v1/prepare", map[string]any{"query": query}, &out); err != nil {
		return "", err
	}
	return out.PreparedID, nil
}
