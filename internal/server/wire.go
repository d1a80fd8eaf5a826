// Wire types of the /v1 protocol served by cmd/datalogd.
//
// The protocol is prepare-once/run-many over HTTP/JSON: a client uploads a
// rule program once (POST /v1/programs), prepares each query form it will
// run repeatedly (POST /v1/prepare), then runs and streams the forms with
// per-call constants (POST /v1/query, GET /v1/query/stream) and writes
// facts through atomic transactions (POST /v1/txn). Field names here — like
// the json tags on datalog.Options, datalog.Stats and datalog.Diagnostic
// they embed — are a stable contract: add fields, never rename them.
package server

import (
	"repro/datalog"
)

// WireError is the structured error of every non-2xx response (and of
// per-entry failures inside a batch): a stable machine-matchable code plus
// a human message. Admission rejections carry the tenant they were
// accounted to.
type WireError struct {
	// Code is one of: bad_request, not_found, compile_failed,
	// over_capacity, limit_exceeded, deadline_exceeded, canceled,
	// too_large, internal.
	Code    string `json:"code"`
	Message string `json:"message"`
	Tenant  string `json:"tenant,omitempty"`
}

// The WireError codes.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeCompileFailed    = "compile_failed"
	CodeOverCapacity     = "over_capacity"
	CodeLimitExceeded    = "limit_exceeded"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeCanceled         = "canceled"
	CodeTooLarge         = "too_large"
	CodeInternal         = "internal"
)

// errorBody is the top-level JSON shape of an error response. Stats is
// present when the failed evaluation accrued work before hitting its limit
// or deadline — a rejected query is not a free query, and the client gets
// the bill.
type errorBody struct {
	Error *WireError     `json:"error"`
	Stats *datalog.Stats `json:"stats,omitempty"`
}

// ProgramRequest uploads a rule program. With Strict, warnings (not just
// errors) refuse the upload — the upload gate for untrusted programs. With
// Activate, the program becomes the server's default for requests that name
// no program_id.
type ProgramRequest struct {
	Source   string `json:"source"`
	Strict   bool   `json:"strict,omitempty"`
	Activate bool   `json:"activate,omitempty"`
}

// ProgramResponse describes a compiled, registered program. Diagnostics are
// the retained compile-time warnings and infos (errors fail the upload).
type ProgramResponse struct {
	ProgramID   string               `json:"program_id"`
	Rules       int                  `json:"rules"`
	Default     bool                 `json:"default,omitempty"`
	Diagnostics []datalog.Diagnostic `json:"diagnostics,omitempty"`
}

// PrepareRequest compiles one query form against a registered program —
// parse, adornment, rewriting and plan compilation happen here, once — and
// returns a handle that /v1/query and /v1/query/stream run with per-call
// constants. Options are the form-shaping evaluation options; run-time
// limits in them are kept as the handle's defaults and still clamped by the
// tenant's admission limits on every run.
type PrepareRequest struct {
	// ProgramID names the program to prepare against; empty means the
	// server's default program.
	ProgramID string          `json:"program_id,omitempty"`
	Query     string          `json:"query"`
	Options   datalog.Options `json:"options"`
}

// PrepareResponse returns the prepared-statement handle. Diagnostics are
// the query-form findings (unreachable rules, the Section 10 divergence
// prediction); error-severity findings refuse the preparation.
type PrepareResponse struct {
	PreparedID  string               `json:"prepared_id"`
	ProgramID   string               `json:"program_id"`
	Diagnostics []datalog.Diagnostic `json:"diagnostics,omitempty"`
}

// QueryEntry is one query to run: either a prepared handle plus optional
// positional Args replacing the form's bound constants, or an ad-hoc
// query text with optional Options. Ad-hoc entries pay parse (and, on a
// cold form, compile) per request; prepared entries only evaluate.
type QueryEntry struct {
	PreparedID string           `json:"prepared_id,omitempty"`
	ProgramID  string           `json:"program_id,omitempty"`
	Query      string           `json:"query,omitempty"`
	Options    *datalog.Options `json:"options,omitempty"`
	// Args replace the prepared form's bound constants positionally:
	// JSON strings become symbolic constants, JSON integers become
	// integer constants.
	Args []any `json:"args,omitempty"`
}

// QueryRequest runs one query or a batch. Every entry of one request —
// single or batch — is evaluated against the same snapshot, pinned at
// request admission: the answers are mutually consistent with each other no
// matter what commits land concurrently. TimeoutMillis bounds the whole
// request (clamped by the tenant's admission timeout).
type QueryRequest struct {
	QueryEntry
	Batch         []QueryEntry `json:"batch,omitempty"`
	TimeoutMillis int64        `json:"timeout_ms,omitempty"`
}

// QueryResult is the outcome of one entry: the typed answer tuples (symbols
// as JSON strings, integers as JSON numbers, compound terms rendered in
// source syntax) and the evaluation stats. In a batch, a failed entry
// carries its Error inline and the other entries still answer.
type QueryResult struct {
	Answers [][]any       `json:"answers"`
	Stats   datalog.Stats `json:"stats"`
	Error   *WireError    `json:"error,omitempty"`
}

// QueryResponse carries the pinned snapshot version every entry read from
// and one result per entry (a single, non-batch request has exactly one).
type QueryResponse struct {
	Version uint64        `json:"version"`
	Results []QueryResult `json:"results"`
}

// Fact is one ground fact of a transaction: predicate name plus constant
// arguments (JSON strings become symbols, JSON integers become integers).
type Fact struct {
	Pred string `json:"pred"`
	Args []any  `json:"args"`
}

// TxnRequest is an atomic batch write: retracts are applied before asserts,
// the whole batch is validated before the first write, and a failure
// anywhere leaves the database untouched. AssertText/RetractText accept
// facts in source syntax ("par(john, mary). par(mary, sue).").
type TxnRequest struct {
	Asserts     []Fact `json:"asserts,omitempty"`
	Retracts    []Fact `json:"retracts,omitempty"`
	AssertText  string `json:"assert_text,omitempty"`
	RetractText string `json:"retract_text,omitempty"`
}

// TxnResponse reports the commit: the database version after it (unchanged
// when the batch was empty) and the buffered operation counts.
type TxnResponse struct {
	Version  uint64 `json:"version"`
	Asserts  int    `json:"asserts"`
	Retracts int    `json:"retracts"`
}

// StreamEvent is one NDJSON line of GET /v1/query/stream: rows first (one
// per line, in discovery order), then exactly one terminal line — either
// done (with the total row count and the pinned snapshot version) or error.
type StreamEvent struct {
	Row     []any      `json:"row,omitempty"`
	Done    bool       `json:"done,omitempty"`
	Rows    int        `json:"rows,omitempty"`
	Version uint64     `json:"version,omitempty"`
	Error   *WireError `json:"error,omitempty"`
}

// TenantStats are the per-tenant admission-control counters of /v1/stats.
type TenantStats struct {
	Admitted      int64 `json:"admitted"`
	Rejected      int64 `json:"rejected"`
	Active        int64 `json:"active"`
	Queries       int64 `json:"queries"`
	Streams       int64 `json:"streams"`
	Txns          int64 `json:"txns"`
	RowsStreamed  int64 `json:"rows_streamed"`
	LimitExceeded int64 `json:"limit_exceeded"`
}

// DatabaseStats is the database section of /v1/stats. LivePins counts the
// snapshots taken and not yet released.
type DatabaseStats struct {
	Version    uint64 `json:"version"`
	TotalFacts int    `json:"total_facts"`
	LivePins   int64  `json:"live_pins"`
}

// StatsResponse is the GET /v1/stats payload. Durability is present only
// when the server's database runs a durable backend (datalogd -data-dir):
// WAL records/bytes/fsyncs, recovery and checkpoint state
// (datalog.DurabilityStats).
type StatsResponse struct {
	UptimeSeconds  float64                  `json:"uptime_seconds"`
	Database       DatabaseStats            `json:"database"`
	Programs       int                      `json:"programs"`
	Prepared       int                      `json:"prepared"`
	DefaultProgram string                   `json:"default_program,omitempty"`
	Tenants        map[string]TenantStats   `json:"tenants"`
	Durability     *datalog.DurabilityStats `json:"durability,omitempty"`
}
