package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/datalog"
)

const ancProgram = `
	anc(X, Y) :- par(X, Y).
	anc(X, Y) :- par(X, Z), anc(Z, Y).
`

// doJSON posts body to url and decodes the response into out (when non-nil),
// returning the HTTP status.
func doJSON(t *testing.T, method, url, tenant string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return serveDB(t, datalog.NewDatabase(), cfg)
}

// serveDB serves db for the test. Its first cleanup runs after the server
// has finished every request (ts.Close waits for them) and asserts that
// every snapshot taken while serving was released again.
func serveDB(t *testing.T, db *datalog.Database, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	t.Cleanup(func() {
		if n := db.LivePins(); n != 0 {
			t.Errorf("%d snapshots still pinned after the test", n)
		}
	})
	s := New(db, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestSnapshotsReleased drives every handler that pins a snapshot — prepare,
// a single query, a failing single query, a batch, a finished and an
// abandoned stream — plus a checkpoint of the durable database behind the
// server, and reads the live-pin gauge from /v1/stats afterwards. serveDB's
// cleanup asserts the gauge is 0 once the abandoned stream's handler is done
// too.
func TestSnapshotsReleased(t *testing.T) {
	db, err := datalog.Open(t.TempDir(), datalog.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	_, ts := serveDB(t, db, Config{})
	if st := doJSON(t, "POST", ts.URL+"/v1/programs", "", ProgramRequest{Source: ancProgram}, nil); st != http.StatusOK {
		t.Fatalf("programs: status %d", st)
	}
	var facts strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&facts, "par(n%d, n%d). ", i, i+1)
	}
	if st := doJSON(t, "POST", ts.URL+"/v1/txn", "", TxnRequest{AssertText: facts.String()}, nil); st != http.StatusOK {
		t.Fatalf("txn: status %d", st)
	}
	if st := doJSON(t, "POST", ts.URL+"/v1/prepare", "", PrepareRequest{Query: "anc(n0, Y)"}, nil); st != http.StatusOK {
		t.Fatalf("prepare: status %d", st)
	}
	if st := doJSON(t, "POST", ts.URL+"/v1/query", "", QueryRequest{QueryEntry: QueryEntry{PreparedID: "q1"}}, nil); st != http.StatusOK {
		t.Fatalf("query: status %d", st)
	}
	if st := doJSON(t, "POST", ts.URL+"/v1/query", "", QueryRequest{QueryEntry: QueryEntry{Query: "nosuch(X)"}}, nil); st == http.StatusOK {
		t.Fatal("query of an unknown predicate succeeded")
	}
	if st := doJSON(t, "POST", ts.URL+"/v1/query", "", QueryRequest{
		Batch: []QueryEntry{{PreparedID: "q1"}, {Query: "anc(n5, Y)"}},
	}, nil); st != http.StatusOK {
		t.Fatalf("batch: status %d", st)
	}
	if rows, _ := readStream(t, ts.URL+"/v1/query/stream?prepared_id=q1"); len(rows) != 200 {
		t.Fatalf("stream: %d rows, want 200", len(rows))
	}
	resp, err := http.Get(ts.URL + "/v1/query/stream?prepared_id=q1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // abandon the stream after its first row
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := doJSON(t, "POST", ts.URL+"/v1/txn", "", TxnRequest{AssertText: "par(n0, x)."}, nil); st != http.StatusOK {
		t.Fatalf("txn: status %d", st)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if st := doJSON(t, "GET", ts.URL+"/v1/stats", "", nil, &stats); st != http.StatusOK {
		t.Fatalf("stats: status %d", st)
	}
	// The abandoned stream's handler may still be writing; every other pin
	// has ended.
	if stats.Database.LivePins > 1 {
		t.Errorf("live_pins = %d after the requests returned", stats.Database.LivePins)
	}
}

// TestServerEndToEnd walks the whole protocol: upload, seed, prepare, run,
// parameterize, batch, stream, stats.
func TestServerEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var prog ProgramResponse
	if st := doJSON(t, "POST", ts.URL+"/v1/programs", "", ProgramRequest{Source: ancProgram}, &prog); st != http.StatusOK {
		t.Fatalf("programs: status %d", st)
	}
	if prog.ProgramID != "p1" || prog.Rules != 2 || !prog.Default {
		t.Fatalf("programs: %+v", prog)
	}

	var txn TxnResponse
	if st := doJSON(t, "POST", ts.URL+"/v1/txn", "", TxnRequest{
		AssertText: "par(john, mary). par(mary, sue).",
		Asserts:    []Fact{{Pred: "par", Args: []any{"sue", "ann"}}},
	}, &txn); st != http.StatusOK {
		t.Fatalf("txn: status %d", st)
	}
	if txn.Asserts != 3 || txn.Version == 0 {
		t.Fatalf("txn: %+v", txn)
	}

	var prep PrepareResponse
	if st := doJSON(t, "POST", ts.URL+"/v1/prepare", "", PrepareRequest{Query: "anc(john, Y)"}, &prep); st != http.StatusOK {
		t.Fatalf("prepare: status %d", st)
	}
	if prep.PreparedID != "q1" || prep.ProgramID != "p1" {
		t.Fatalf("prepare: %+v", prep)
	}

	// Run the prepared handle: john's descendants are mary, sue, ann.
	var qr QueryResponse
	if st := doJSON(t, "POST", ts.URL+"/v1/query", "", QueryRequest{
		QueryEntry: QueryEntry{PreparedID: "q1"},
	}, &qr); st != http.StatusOK {
		t.Fatalf("query: status %d", st)
	}
	if len(qr.Results) != 1 || len(qr.Results[0].Answers) != 3 {
		t.Fatalf("query: %+v", qr)
	}
	if qr.Results[0].Stats.Strategy == "" {
		t.Error("query result should carry evaluation stats")
	}
	if qr.Version == 0 {
		t.Error("query response should carry the pinned snapshot version")
	}

	// Parameterize the same handle: args replace the form's bound constant.
	qr = QueryResponse{}
	if st := doJSON(t, "POST", ts.URL+"/v1/query", "", QueryRequest{
		QueryEntry: QueryEntry{PreparedID: "q1", Args: []any{"mary"}},
	}, &qr); st != http.StatusOK {
		t.Fatalf("parameterized query: status %d", st)
	}
	if len(qr.Results[0].Answers) != 2 { // sue, ann
		t.Fatalf("parameterized query: %+v", qr.Results[0])
	}

	// Ad-hoc entry against the default program, plus a batch.
	qr = QueryResponse{}
	if st := doJSON(t, "POST", ts.URL+"/v1/query", "", QueryRequest{
		Batch: []QueryEntry{
			{Query: "anc(X, ann)"},
			{PreparedID: "q1", Options: &datalog.Options{FirstN: 1}},
		},
	}, &qr); st != http.StatusOK {
		t.Fatalf("batch: status %d", st)
	}
	if len(qr.Results) != 2 {
		t.Fatalf("batch: %+v", qr)
	}
	if len(qr.Results[0].Answers) != 3 { // john, mary, sue
		t.Errorf("batch entry 0: %+v", qr.Results[0])
	}
	if len(qr.Results[1].Answers) != 1 {
		t.Errorf("batch entry 1 should honor FirstN=1: %+v", qr.Results[1])
	}

	// Stream the handle as NDJSON: rows then one done trailer.
	rows, trailer := readStream(t, ts.URL+"/v1/query/stream?prepared_id=q1")
	if len(rows) != 3 || !trailer.Done || trailer.Rows != 3 || trailer.Version == 0 {
		t.Fatalf("stream: rows=%d trailer=%+v", len(rows), trailer)
	}
	rows, trailer = readStream(t, ts.URL+"/v1/query/stream?prepared_id=q1&first_n=2")
	if len(rows) != 2 || trailer.Rows != 2 {
		t.Fatalf("stream first_n=2: rows=%d trailer=%+v", len(rows), trailer)
	}
	// Stream args parameterize just like /v1/query args.
	rows, _ = readStream(t, ts.URL+"/v1/query/stream?prepared_id=q1&args=mary")
	if len(rows) != 2 {
		t.Fatalf("stream args=mary: rows=%d", len(rows))
	}

	var stats StatsResponse
	if st := doJSON(t, "GET", ts.URL+"/v1/stats", "", nil, &stats); st != http.StatusOK {
		t.Fatalf("stats: status %d", st)
	}
	if stats.Database.TotalFacts != 3 || stats.Programs != 1 || stats.Prepared != 1 {
		t.Errorf("stats: %+v", stats)
	}
	def := stats.Tenants["default"]
	if def.Queries < 4 || def.Streams != 3 || def.Txns != 1 || def.RowsStreamed != 7 {
		t.Errorf("default tenant counters: %+v", def)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
}

// readStream consumes one NDJSON stream, returning the row events and the
// terminal event.
func readStream(t *testing.T, url string) (rows []StreamEvent, terminal StreamEvent) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream %s: status %d: %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		if ev.Done || ev.Error != nil {
			return rows, ev
		}
		rows = append(rows, ev)
	}
	t.Fatal("stream ended without a terminal event")
	return nil, StreamEvent{}
}

// TestServerErrors pins the protocol's failure modes: codes, statuses, and
// the rule that rejected work still reports the stats it accrued.
func TestServerErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{
		TenantLimits: map[string]Limits{
			"metered": {MaxDerivations: 10000},
			"tiny":    {MaxBodyBytes: 64},
			"rushed":  {Timeout: time.Millisecond},
		},
	})

	var errResp struct {
		Error *WireError     `json:"error"`
		Stats *datalog.Stats `json:"stats"`
	}
	check := func(what string, gotStatus, wantStatus int, wantCode string) {
		t.Helper()
		if gotStatus != wantStatus {
			t.Errorf("%s: status %d, want %d (error: %+v)", what, gotStatus, wantStatus, errResp.Error)
		}
		if errResp.Error == nil || errResp.Error.Code != wantCode {
			t.Errorf("%s: error %+v, want code %q", what, errResp.Error, wantCode)
		}
		errResp.Error, errResp.Stats = nil, nil
	}

	// No program loaded yet: queries cannot resolve a default.
	st := doJSON(t, "POST", ts.URL+"/v1/query", "", QueryRequest{QueryEntry: QueryEntry{Query: "anc(X, Y)"}}, &errResp)
	check("query without a program", st, http.StatusNotFound, CodeNotFound)

	st = doJSON(t, "POST", ts.URL+"/v1/programs", "", ProgramRequest{Source: "anc(X :-"}, &errResp)
	check("malformed program", st, http.StatusUnprocessableEntity, CodeCompileFailed)

	if st := doJSON(t, "POST", ts.URL+"/v1/programs", "", ProgramRequest{Source: ancProgram}, nil); st != http.StatusOK {
		t.Fatalf("programs: status %d", st)
	}
	seed := strings.Builder{}
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&seed, "par(n%d, n%d). ", i, i+1)
	}
	if st := doJSON(t, "POST", ts.URL+"/v1/txn", "", TxnRequest{AssertText: seed.String()}, nil); st != http.StatusOK {
		t.Fatalf("txn: status %d", st)
	}

	st = doJSON(t, "POST", ts.URL+"/v1/query", "", QueryRequest{QueryEntry: QueryEntry{PreparedID: "q99"}}, &errResp)
	check("unknown prepared_id", st, http.StatusNotFound, CodeNotFound)

	st = doJSON(t, "POST", ts.URL+"/v1/query", "", QueryRequest{QueryEntry: QueryEntry{ProgramID: "p99", Query: "anc(X, Y)"}}, &errResp)
	check("unknown program_id", st, http.StatusNotFound, CodeNotFound)

	st = doJSON(t, "POST", ts.URL+"/v1/query", "", QueryRequest{}, &errResp)
	check("empty entry", st, http.StatusBadRequest, CodeBadRequest)

	st = doJSON(t, "POST", ts.URL+"/v1/query", "", QueryRequest{
		QueryEntry: QueryEntry{Query: "anc(X, Y)", Options: &datalog.Options{FirstN: -1}},
	}, &errResp)
	check("negative FirstN", st, http.StatusBadRequest, CodeBadRequest)

	st = doJSON(t, "POST", ts.URL+"/v1/prepare", "", PrepareRequest{Query: "nosuch(X)"}, &errResp)
	check("prepare against unknown predicate", st, http.StatusUnprocessableEntity, CodeBadRequest)

	var prep PrepareResponse
	if st := doJSON(t, "POST", ts.URL+"/v1/prepare", "", PrepareRequest{Query: "anc(n0, Y)"}, &prep); st != http.StatusOK {
		t.Fatalf("prepare: status %d", st)
	}
	st = doJSON(t, "POST", ts.URL+"/v1/query", "", QueryRequest{
		QueryEntry: QueryEntry{PreparedID: prep.PreparedID, Options: &datalog.Options{Strategy: datalog.SemiNaive}},
	}, &errResp)
	check("form-shaping option on a prepared handle", st, http.StatusBadRequest, CodeBadRequest)

	// The derivation-gas rejection must bill the work it accrued.
	st = doJSON(t, "POST", ts.URL+"/v1/query", "metered", QueryRequest{QueryEntry: QueryEntry{Query: "anc(X, Y)"}}, &errResp)
	if st != http.StatusUnprocessableEntity || errResp.Error == nil || errResp.Error.Code != CodeLimitExceeded {
		t.Fatalf("gas rejection: status %d, error %+v", st, errResp.Error)
	}
	if errResp.Error.Tenant != "metered" {
		t.Errorf("gas rejection should name the tenant: %+v", errResp.Error)
	}
	if errResp.Stats == nil || errResp.Stats.Derivations == 0 {
		t.Errorf("gas rejection should carry the accrued stats, got %+v", errResp.Stats)
	}
	errResp.Error, errResp.Stats = nil, nil

	// In a batch, the failing entry reports inline and the rest still answer.
	var qr QueryResponse
	if st := doJSON(t, "POST", ts.URL+"/v1/query", "metered", QueryRequest{
		Batch: []QueryEntry{{Query: "anc(X, Y)"}, {Query: "anc(n0, Y)", Options: &datalog.Options{FirstN: 1}}},
	}, &qr); st != http.StatusOK {
		t.Fatalf("batch with failing entry: status %d", st)
	}
	if qr.Results[0].Error == nil || qr.Results[0].Error.Code != CodeLimitExceeded {
		t.Errorf("batch entry 0 should fail on gas: %+v", qr.Results[0].Error)
	}
	if qr.Results[1].Error != nil || len(qr.Results[1].Answers) != 1 {
		t.Errorf("batch entry 1 should still answer: %+v", qr.Results[1])
	}

	// Wall-clock timeout (tenant-bound): a 1ms budget cannot close a 400-node
	// transitive closure (~160k derivations) on this engine.
	st = doJSON(t, "POST", ts.URL+"/v1/query", "rushed", QueryRequest{QueryEntry: QueryEntry{Query: "anc(X, Y)"}}, &errResp)
	check("tenant timeout", st, http.StatusGatewayTimeout, CodeDeadlineExceeded)

	// Request-size cap.
	st = doJSON(t, "POST", ts.URL+"/v1/txn", "tiny", TxnRequest{AssertText: seed.String()}, &errResp)
	check("oversized body", st, http.StatusRequestEntityTooLarge, CodeTooLarge)

	// Malformed JSON body.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/query", strings.NewReader("{nope"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	check("malformed JSON", resp.StatusCode, http.StatusBadRequest, CodeBadRequest)

	// Limit hits were counted against the tenant.
	var stats StatsResponse
	if st := doJSON(t, "GET", ts.URL+"/v1/stats", "", nil, &stats); st != http.StatusOK {
		t.Fatalf("stats: status %d", st)
	}
	if m := stats.Tenants["metered"]; m.LimitExceeded == 0 {
		t.Errorf("metered tenant should have recorded limit hits: %+v", m)
	}
}

// TestRemovedStrategiesRejected pins that naive and top-down evaluation,
// which are test oracles rather than strategies, are unknown strategies on
// the wire: a query or a prepare naming one is a 400 with the
// unknown-strategy message.
func TestRemovedStrategiesRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if st := doJSON(t, "POST", ts.URL+"/v1/programs", "", ProgramRequest{Source: ancProgram}, nil); st != http.StatusOK {
		t.Fatalf("programs: status %d", st)
	}
	for _, name := range []datalog.Strategy{"top-down", "naive"} {
		opts := datalog.Options{Strategy: name}
		for path, body := range map[string]any{
			"/v1/query":   QueryRequest{QueryEntry: QueryEntry{Query: "anc(n0, Y)", Options: &opts}},
			"/v1/prepare": PrepareRequest{Query: "anc(n0, Y)", Options: opts},
		} {
			var errResp struct {
				Error *WireError `json:"error"`
			}
			st := doJSON(t, "POST", ts.URL+path, "", body, &errResp)
			if st != http.StatusBadRequest || errResp.Error == nil || errResp.Error.Code != CodeBadRequest ||
				!strings.Contains(errResp.Error.Message, "unknown strategy") {
				t.Errorf("%s with strategy %q: status %d, error %+v; want 400 unknown strategy", path, name, st, errResp.Error)
			}
		}
	}
}

// TestConcurrencyLimitEnforced pins the admission semaphore end to end,
// deterministically: a request that stalls mid-body holds its tenant slot,
// so a concurrent request from the same tenant is rejected with 429 while
// any other tenant sails through; closing the stalled connection frees the
// slot.
func TestConcurrencyLimitEnforced(t *testing.T) {
	_, ts := newTestServer(t, Config{
		TenantLimits: map[string]Limits{"locked": {MaxConcurrent: 1}},
	})
	if st := doJSON(t, "POST", ts.URL+"/v1/programs", "", ProgramRequest{Source: ancProgram}, nil); st != http.StatusOK {
		t.Fatal("programs failed")
	}

	// A raw connection that sends headers plus half a body, then stalls: the
	// handler admits (taking the slot) and blocks decoding the body.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/txn HTTP/1.1\r\nHost: t\r\nX-Tenant: locked\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{")

	waitActive := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			var stats StatsResponse
			doJSON(t, "GET", ts.URL+"/v1/stats", "", nil, &stats)
			if stats.Tenants["locked"].Active == want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("locked tenant never reached active=%d", want)
	}
	waitActive(1)

	var errResp errorBody
	st := doJSON(t, "POST", ts.URL+"/v1/query", "locked", QueryRequest{QueryEntry: QueryEntry{Query: "anc(X, Y)"}}, &errResp)
	if st != http.StatusTooManyRequests || errResp.Error == nil || errResp.Error.Code != CodeOverCapacity {
		t.Fatalf("locked tenant at capacity: status %d, error %+v", st, errResp.Error)
	}
	if errResp.Error.Tenant != "locked" {
		t.Errorf("rejection should name the tenant: %+v", errResp.Error)
	}

	// Admission is per tenant: the default tenant is unaffected.
	var qr QueryResponse
	if st := doJSON(t, "POST", ts.URL+"/v1/query", "", QueryRequest{QueryEntry: QueryEntry{Query: "anc(X, Y)"}}, &qr); st != http.StatusOK {
		t.Fatalf("default tenant should be admitted: status %d", st)
	}

	// Freeing the stalled request frees the slot.
	conn.Close()
	waitActive(0)
	if st := doJSON(t, "POST", ts.URL+"/v1/query", "locked", QueryRequest{QueryEntry: QueryEntry{Query: "anc(X, Y)"}}, nil); st != http.StatusOK {
		t.Fatalf("locked tenant after release: status %d", st)
	}
}

// TestServingMutualConsistency is the acceptance test: concurrent clients
// read through the server while a writer commits facts in atomic pairs
// {a(i), b(i)}. Every batch response must observe the pair invariant —
// equally many a-rows and b-rows — because both entries run against the one
// snapshot pinned at request admission. A torn read (entry 2 seeing a commit
// entry 1 missed) would break the count equality immediately.
func TestServingMutualConsistency(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if st := doJSON(t, "POST", ts.URL+"/v1/programs", "", ProgramRequest{
		Source: "qa(X) :- a(X). qb(X) :- b(X).",
	}, nil); st != http.StatusOK {
		t.Fatal("programs failed")
	}

	const commits = 150
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < commits; i++ {
			var txr TxnResponse
			st := doJSON(t, "POST", ts.URL+"/v1/txn", "writer", TxnRequest{Asserts: []Fact{
				{Pred: "a", Args: []any{fmt.Sprintf("k%d", i)}},
				{Pred: "b", Args: []any{fmt.Sprintf("k%d", i)}},
			}}, &txr)
			if st != http.StatusOK {
				t.Errorf("txn %d: status %d", i, st)
				return
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tenant := fmt.Sprintf("reader%d", r)
			for {
				select {
				case <-stop:
					return
				default:
				}
				var qr QueryResponse
				st := doJSON(t, "POST", ts.URL+"/v1/query", tenant, QueryRequest{
					Batch: []QueryEntry{{Query: "qa(X)"}, {Query: "qb(X)"}},
				}, &qr)
				if st != http.StatusOK {
					t.Errorf("%s: status %d", tenant, st)
					return
				}
				na, nb := len(qr.Results[0].Answers), len(qr.Results[1].Answers)
				if na != nb {
					t.Errorf("%s: torn read at version %d: %d a-rows vs %d b-rows", tenant, qr.Version, na, nb)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// After the writer is done, a final read sees every pair.
	var qr QueryResponse
	if st := doJSON(t, "POST", ts.URL+"/v1/query", "", QueryRequest{
		Batch: []QueryEntry{{Query: "qa(X)"}, {Query: "qb(X)"}},
	}, &qr); st != http.StatusOK {
		t.Fatalf("final read: status %d", st)
	}
	if len(qr.Results[0].Answers) != commits || len(qr.Results[1].Answers) != commits {
		t.Fatalf("final read: %d/%d rows, want %d/%d",
			len(qr.Results[0].Answers), len(qr.Results[1].Answers), commits, commits)
	}
}

// TestStreamPinsSnapshot drives the same invariant through the NDJSON
// stream: the trailer's version is the pinned version, and the row count
// matches a point-in-time count even with commits landing mid-stream.
func TestStreamPinsSnapshot(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if st := doJSON(t, "POST", ts.URL+"/v1/programs", "", ProgramRequest{Source: "qa(X) :- a(X)."}, nil); st != http.StatusOK {
		t.Fatal("programs failed")
	}
	if st := doJSON(t, "POST", ts.URL+"/v1/txn", "", TxnRequest{
		Asserts: []Fact{{Pred: "a", Args: []any{"k0"}}, {Pred: "a", Args: []any{"k1"}}},
	}, nil); st != http.StatusOK {
		t.Fatal("txn failed")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn commits while streams run, bounded to keep the EDB small
		defer wg.Done()
		for i := 2; i < 500; i++ {
			select {
			case <-stop:
				return
			default:
			}
			txn := s.Database().Begin()
			_ = txn.Assert("a", fmt.Sprintf("k%d", i))
			if err := txn.Commit(); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	for i := 0; i < 10; i++ {
		rows, trailer := readStream(t, ts.URL+"/v1/query/stream?query="+`qa(X)`)
		if trailer.Error != nil {
			t.Fatalf("stream error: %+v", trailer.Error)
		}
		snapRows := s.Database().TotalFacts() // grows monotonically; lower bound is the pinned count
		if len(rows) != trailer.Rows || trailer.Rows > snapRows {
			t.Fatalf("stream %d: %d rows, trailer %+v, facts now %d", i, len(rows), trailer, snapRows)
		}
	}
	close(stop)
	wg.Wait()
}

// uploadProgram posts a source to /v1/programs and returns the status and,
// on a refusal, the wire error. It reports transport failures as err so
// that goroutines other than the test's own can call it.
func uploadProgram(url, source string) (status int, code, message string, err error) {
	body, err := json.Marshal(ProgramRequest{Source: source})
	if err != nil {
		return 0, "", "", err
	}
	resp, err := http.Post(url+"/v1/programs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", "", err
	}
	defer resp.Body.Close()
	var reply struct {
		Error *WireError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return resp.StatusCode, "", "", err
	}
	if reply.Error != nil {
		code, message = reply.Error.Code, reply.Error.Message
	}
	return resp.StatusCode, code, message, nil
}

// postProgram is uploadProgram for the test's own goroutine.
func postProgram(t *testing.T, url, source string) (status int, code, message string) {
	t.Helper()
	status, code, message, err := uploadProgram(url, source)
	if err != nil {
		t.Fatal(err)
	}
	return status, code, message
}

// TestProgramWithEmbeddedFactsIsRefused: a source mixing rules and ground
// facts used to be accepted with the facts silently dropped, so every query
// over them answered nothing. It is refused like a source carrying a query,
// with the count, the first position and where facts do go; nothing is
// registered.
func TestProgramWithEmbeddedFactsIsRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if st, code, _ := postProgram(t, ts.URL, "anc(X, Y) :- par(X, Y)."); st != http.StatusOK {
		t.Fatalf("rules-only source: status %d (%s)", st, code)
	}
	st, code, msg := postProgram(t, ts.URL, "anc(X, Y) :- par(X, Y).\n  par(a, b).")
	if st != http.StatusUnprocessableEntity || code != CodeCompileFailed {
		t.Fatalf("rules + one fact: status %d code %q, want 422 %s", st, code, CodeCompileFailed)
	}
	for _, want := range []string{"2:3", "1 ground fact", "/v1/txn"} {
		if !strings.Contains(msg, want) {
			t.Errorf("refusal %q does not mention %q", msg, want)
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.programs) != 1 || s.defaultProgram != "p1" {
		t.Fatalf("registry after the refusal: %d programs, default %q; want the first upload only", len(s.programs), s.defaultProgram)
	}
}

// TestFullRegistryStillReportsCompileErrors: with the registry at its cap a
// valid upload is an admission failure (429) but a broken one is still the
// source's fault (422) — the handler used to report both as 429 by peeking
// at the registry size, without the lock, after the fact. The concurrent
// wave is for the race detector.
func TestFullRegistryStillReportsCompileErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	for i := 0; i < maxPrograms+8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, code, _, err := uploadProgram(ts.URL, ancProgram)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				t.Error(err)
			case st == http.StatusOK:
				accepted++
			case st != http.StatusTooManyRequests || code != CodeOverCapacity:
				t.Errorf("upload past the cap: status %d code %q, want 429 %s", st, code, CodeOverCapacity)
			}
		}()
	}
	wg.Wait()
	if accepted != maxPrograms {
		t.Fatalf("accepted %d uploads, want exactly the cap %d", accepted, maxPrograms)
	}
	if st, code, _ := postProgram(t, ts.URL, "anc(X :-"); st != http.StatusUnprocessableEntity || code != CodeCompileFailed {
		t.Errorf("syntax error with a full registry: status %d code %q, want 422 %s", st, code, CodeCompileFailed)
	}
	if st, code, _ := postProgram(t, ts.URL, ancProgram); st != http.StatusTooManyRequests || code != CodeOverCapacity {
		t.Errorf("valid source with a full registry: status %d code %q, want 429 %s", st, code, CodeOverCapacity)
	}
}
