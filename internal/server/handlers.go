// The /v1 endpoint handlers: decode → admit → pin snapshot → evaluate →
// encode. Everything tenant-scoped (semaphore, gas clamps, deadlines, body
// caps, counters) goes through admission.go; everything consistency-scoped
// goes through the snapshot pinned at admission.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/datalog"
)

// tenantHeader names the request's tenant; absent means defaultTenant.
const (
	tenantHeader  = "X-Tenant"
	defaultTenant = "default"
)

func tenantName(r *http.Request) string {
	if t := r.Header.Get(tenantHeader); t != "" {
		return t
	}
	return defaultTenant
}

// writeJSON encodes one response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // header already written; nothing useful to do on error
}

// writeErr writes a structured error response; stats, when non-nil, bills
// the work the failed evaluation accrued.
func writeErr(w http.ResponseWriter, status int, code, msg, tenant string, stats *datalog.Stats) {
	writeJSON(w, status, errorBody{
		Error: &WireError{Code: code, Message: msg, Tenant: tenant},
		Stats: stats,
	})
}

// decodeBody decodes a JSON request body under the tenant's size cap,
// classifying oversize and malformed bodies.
func decodeBody(w http.ResponseWriter, r *http.Request, limits Limits, v any) *WireError {
	capBytes := limits.MaxBodyBytes
	if capBytes <= 0 {
		capBytes = defaultMaxBody
	}
	r.Body = http.MaxBytesReader(w, r.Body, capBytes)
	dec := json.NewDecoder(r.Body)
	dec.UseNumber() // keep integers exact: JSON numbers become json.Number
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &WireError{Code: CodeTooLarge, Message: fmt.Sprintf("request body exceeds the %d-byte cap", tooBig.Limit)}
		}
		return &WireError{Code: CodeBadRequest, Message: "malformed JSON body: " + err.Error()}
	}
	return nil
}

// constantArgs converts wire arguments (JSON strings and integers) into the
// ...any form RunCtx and Txn.Assert accept.
func constantArgs(args []any) ([]any, error) {
	out := make([]any, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case string:
			out[i] = v
		case json.Number:
			n, err := strconv.ParseInt(v.String(), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("argument %d: %q is not a symbol or integer", i, v.String())
			}
			out[i] = n
		case float64: // a decoder without UseNumber (e.g. query-param paths never hit this)
			n := int64(v)
			if float64(n) != v {
				return nil, fmt.Errorf("argument %d: %v is not an integer", i, v)
			}
			out[i] = n
		default:
			return nil, fmt.Errorf("argument %d: unsupported type %T (want string or integer)", i, a)
		}
	}
	return out, nil
}

// jsonRow converts one typed answer row to its wire shape: integers as JSON
// numbers, symbols as JSON strings, compound terms rendered in source
// syntax.
func jsonRow(row datalog.Row) []any {
	out := make([]any, len(row))
	for i, v := range row {
		if n, ok := v.Int(); ok {
			out[i] = n
		} else if s, ok := v.Symbol(); ok {
			out[i] = s
		} else {
			out[i] = v.String()
		}
	}
	return out
}

// evalFailure classifies an evaluation error into HTTP status + wire code.
func evalFailure(err error) (int, string) {
	switch {
	case errors.Is(err, datalog.ErrLimitExceeded):
		return http.StatusUnprocessableEntity, CodeLimitExceeded
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, CodeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return http.StatusBadRequest, CodeCanceled
	default:
		return http.StatusBadRequest, CodeBadRequest
	}
}

// handlePrograms compiles and registers an uploaded program.
func (s *Server) handlePrograms(w http.ResponseWriter, r *http.Request) {
	tenant := tenantName(r)
	tn := s.adm.tenantFor(tenant)
	release, err := tn.admit()
	if err != nil {
		writeErr(w, http.StatusTooManyRequests, CodeOverCapacity, err.Error(), tenant, nil)
		return
	}
	defer release()
	var req ProgramRequest
	if werr := decodeBody(w, r, tn.limits, &req); werr != nil {
		writeErr(w, statusOf(werr.Code), werr.Code, werr.Message, tenant, nil)
		return
	}
	if req.Source == "" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "source is required", tenant, nil)
		return
	}
	resp, err := s.LoadProgram(req.Source, req.Strict, req.Activate)
	if err != nil {
		code, status := CodeCompileFailed, http.StatusUnprocessableEntity
		if errors.Is(err, errRegistryFull) {
			code, status = CodeOverCapacity, http.StatusTooManyRequests
		}
		writeErr(w, status, code, err.Error(), tenant, nil)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusOf maps a decode-stage wire code to its HTTP status.
func statusOf(code string) int {
	if code == CodeTooLarge {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// handlePrepare compiles a query form against a registered program and
// registers the handle.
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	tenant := tenantName(r)
	tn := s.adm.tenantFor(tenant)
	release, err := tn.admit()
	if err != nil {
		writeErr(w, http.StatusTooManyRequests, CodeOverCapacity, err.Error(), tenant, nil)
		return
	}
	defer release()
	var req PrepareRequest
	if werr := decodeBody(w, r, tn.limits, &req); werr != nil {
		writeErr(w, statusOf(werr.Code), werr.Code, werr.Message, tenant, nil)
		return
	}
	if req.Query == "" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "query is required", tenant, nil)
		return
	}
	entry, err := s.programFor(req.ProgramID)
	if err != nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, err.Error(), tenant, nil)
		return
	}
	// Vet the form before compiling it: error-severity findings (bad query
	// predicate, wrong arity) refuse the preparation; warnings — including
	// the Section 10 divergence prediction — ride along in the response.
	diags, err := entry.prog.DiagnosticsFor(req.Query)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err.Error(), tenant, nil)
		return
	}
	for _, d := range diags {
		if d.Severity == datalog.SeverityError {
			writeErr(w, http.StatusUnprocessableEntity, CodeBadRequest,
				fmt.Sprintf("query form rejected: %s", d), tenant, nil)
			return
		}
	}
	// Warm the program's form cache so the first /v1/query run of this
	// handle only evaluates: parse → adorn → rewrite → compile happen here.
	snap := s.db.Snapshot()
	_, err = snap.With(entry.prog).Prepare(req.Query, req.Options)
	snap.Release()
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err.Error(), tenant, nil)
		return
	}
	id, err := s.registerPrepared(entry.id, entry.prog, req.Query, req.Options)
	if err != nil {
		writeErr(w, http.StatusTooManyRequests, CodeOverCapacity, err.Error(), tenant, nil)
		return
	}
	writeJSON(w, http.StatusOK, PrepareResponse{
		PreparedID:  id,
		ProgramID:   entry.id,
		Diagnostics: diags,
	})
}

// resolveEntry turns one QueryEntry into the program, query text and
// effective options to run: a prepared handle (with optional run-time
// option overrides) or an ad-hoc query against a named/default program.
func (s *Server) resolveEntry(entry QueryEntry) (prog *datalog.Program, query string, opts datalog.Options, werr *WireError) {
	if entry.PreparedID != "" {
		if entry.Query != "" {
			return nil, "", opts, &WireError{Code: CodeBadRequest, Message: "give prepared_id or query, not both"}
		}
		pe, err := s.preparedFor(entry.PreparedID)
		if err != nil {
			return nil, "", opts, &WireError{Code: CodeNotFound, Message: err.Error()}
		}
		opts = pe.opts
		if entry.Options != nil {
			// Run-time limits may be tightened per call; the form-shaping
			// fields are fixed at prepare time.
			o := entry.Options
			if o.Strategy != "" || o.Sip != "" || o.Semijoin || o.KeepAllGuards || o.Simplify || o.OnDivergence != "" {
				return nil, "", opts, &WireError{Code: CodeBadRequest,
					Message: "options on a prepared_id entry may set only run-time fields (max_*, first_n, parallelism, no_materialize)"}
			}
			if o.MaxIterations > 0 {
				opts.MaxIterations = o.MaxIterations
			}
			if o.MaxFacts > 0 {
				opts.MaxFacts = o.MaxFacts
			}
			if o.MaxDerivations > 0 {
				opts.MaxDerivations = o.MaxDerivations
			}
			if o.FirstN > 0 {
				opts.FirstN = o.FirstN
			}
			if o.Parallelism > 0 {
				opts.Parallelism = o.Parallelism
			}
			if o.NoMaterialize {
				opts.NoMaterialize = true
			}
		}
		return pe.prog, pe.query, opts, nil
	}
	if entry.Query == "" {
		return nil, "", opts, &WireError{Code: CodeBadRequest, Message: "entry needs a prepared_id or a query"}
	}
	pentry, err := s.programFor(entry.ProgramID)
	if err != nil {
		return nil, "", opts, &WireError{Code: CodeNotFound, Message: err.Error()}
	}
	if entry.Options != nil {
		opts = *entry.Options
	}
	return pentry.prog, entry.Query, opts, nil
}

// runEntry evaluates one entry against the pinned snapshot.
func (s *Server) runEntry(ctx context.Context, snap *datalog.Snapshot, entry QueryEntry, tn *tenant) (QueryResult, int) {
	prog, query, opts, werr := s.resolveEntry(entry)
	if werr != nil {
		status := http.StatusBadRequest
		if werr.Code == CodeNotFound {
			status = http.StatusNotFound
		}
		return QueryResult{Error: werr}, status
	}
	tn.limits.clampOptions(&opts)
	pq, err := snap.With(prog).Prepare(query, opts)
	if err != nil {
		return QueryResult{Error: &WireError{Code: CodeBadRequest, Message: err.Error()}}, http.StatusBadRequest
	}
	args, err := constantArgs(entry.Args)
	if err != nil {
		return QueryResult{Error: &WireError{Code: CodeBadRequest, Message: err.Error()}}, http.StatusBadRequest
	}
	res, err := pq.RunCtx(ctx, args...)
	tn.queries.Add(1)
	result := QueryResult{Answers: [][]any{}}
	if res != nil {
		result.Stats = res.Stats
		for _, a := range res.Answers {
			result.Answers = append(result.Answers, jsonRow(a.Vals))
		}
	}
	if err != nil {
		status, code := evalFailure(err)
		if code == CodeLimitExceeded || code == CodeDeadlineExceeded {
			tn.limitExceeded.Add(1)
		}
		result.Error = &WireError{Code: code, Message: err.Error(), Tenant: tn.name}
		return result, status
	}
	return result, http.StatusOK
}

// handleQuery runs one query or a batch, every entry against the same
// snapshot pinned here, at admission.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	tenant := tenantName(r)
	tn := s.adm.tenantFor(tenant)
	release, err := tn.admit()
	if err != nil {
		writeErr(w, http.StatusTooManyRequests, CodeOverCapacity, err.Error(), tenant, nil)
		return
	}
	defer release()
	var req QueryRequest
	if werr := decodeBody(w, r, tn.limits, &req); werr != nil {
		writeErr(w, statusOf(werr.Code), werr.Code, werr.Message, tenant, nil)
		return
	}
	entries := req.Batch
	single := len(entries) == 0
	if single {
		entries = []QueryEntry{req.QueryEntry}
	} else if req.PreparedID != "" || req.Query != "" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "give a single entry or a batch, not both", tenant, nil)
		return
	}

	ctx, cancel := tn.limits.requestContext(r.Context(), time.Duration(req.TimeoutMillis)*time.Millisecond)
	defer cancel()

	// The consistency pin: one snapshot per request, taken after admission,
	// read by every entry. Concurrent commits and program uploads cannot
	// tear the response. The pin ends once the entries have been answered:
	// the response holds copies, not rows of the snapshot.
	snap := s.db.Snapshot()

	resp := QueryResponse{Version: snap.Version(), Results: make([]QueryResult, 0, len(entries))}
	for _, entry := range entries {
		result, status := s.runEntry(ctx, snap, entry, tn)
		if single && result.Error != nil {
			snap.Release()
			// A single query surfaces its failure as the response status;
			// batches report per-entry errors inline under a 200.
			var stats *datalog.Stats
			if result.Stats.Strategy != "" {
				stats = &result.Stats
			}
			writeErr(w, status, result.Error.Code, result.Error.Message, tenant, stats)
			return
		}
		resp.Results = append(resp.Results, result)
	}
	snap.Release()
	writeJSON(w, http.StatusOK, resp)
}

// handleStream runs one query and streams its rows as NDJSON, backed by
// PreparedQuery.Stream: rows are yielded in discovery order and FirstN cuts
// the evaluation itself short. The snapshot pin and admission rules are the
// same as /v1/query.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	tenant := tenantName(r)
	tn := s.adm.tenantFor(tenant)
	release, err := tn.admit()
	if err != nil {
		writeErr(w, http.StatusTooManyRequests, CodeOverCapacity, err.Error(), tenant, nil)
		return
	}
	defer release()

	q := r.URL.Query()
	entry := QueryEntry{
		PreparedID: q.Get("prepared_id"),
		ProgramID:  q.Get("program_id"),
		Query:      q.Get("query"),
	}
	for _, a := range q["args"] {
		// Integer-looking parameters are integer constants; a Datalog symbol
		// can never lex as an integer, so the coercion is unambiguous.
		if n, err := strconv.ParseInt(a, 10, 64); err == nil {
			entry.Args = append(entry.Args, json.Number(strconv.FormatInt(n, 10)))
		} else {
			entry.Args = append(entry.Args, a)
		}
	}
	var asked time.Duration
	if ms := q.Get("timeout_ms"); ms != "" {
		n, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, "timeout_ms must be a non-negative integer", tenant, nil)
			return
		}
		asked = time.Duration(n) * time.Millisecond
	}
	prog, query, opts, werr := s.resolveEntry(entry)
	if werr != nil {
		status := http.StatusBadRequest
		if werr.Code == CodeNotFound {
			status = http.StatusNotFound
		}
		writeErr(w, status, werr.Code, werr.Message, tenant, nil)
		return
	}
	if fn := q.Get("first_n"); fn != "" {
		n, err := strconv.Atoi(fn)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, "first_n must be a non-negative integer", tenant, nil)
			return
		}
		opts.FirstN = n
	}
	tn.limits.clampOptions(&opts)
	args, err := constantArgs(entry.Args)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err.Error(), tenant, nil)
		return
	}

	ctx, cancel := tn.limits.requestContext(r.Context(), asked)
	defer cancel()
	snap := s.db.Snapshot() // the pin: every streamed row reads this version
	defer snap.Release()    // whether the stream finishes or is abandoned
	pq, err := snap.With(prog).Prepare(query, opts)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err.Error(), tenant, nil)
		return
	}

	tn.streams.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	rows := 0
	for row, err := range pq.Stream(ctx, args...) {
		if err != nil {
			_, code := evalFailure(err)
			if code == CodeLimitExceeded || code == CodeDeadlineExceeded {
				tn.limitExceeded.Add(1)
			}
			_ = enc.Encode(StreamEvent{Error: &WireError{Code: code, Message: err.Error(), Tenant: tenant}})
			return
		}
		if encErr := enc.Encode(StreamEvent{Row: jsonRow(row)}); encErr != nil {
			return // client went away; Stream released its locks before yielding
		}
		rows++
		tn.rowsStreamed.Add(1)
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(StreamEvent{Done: true, Rows: rows, Version: snap.Version()})
}

// handleTxn applies one atomic batch write.
func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request) {
	tenant := tenantName(r)
	tn := s.adm.tenantFor(tenant)
	release, err := tn.admit()
	if err != nil {
		writeErr(w, http.StatusTooManyRequests, CodeOverCapacity, err.Error(), tenant, nil)
		return
	}
	defer release()
	var req TxnRequest
	if werr := decodeBody(w, r, tn.limits, &req); werr != nil {
		writeErr(w, statusOf(werr.Code), werr.Code, werr.Message, tenant, nil)
		return
	}
	txn := s.db.Begin()
	defer txn.Rollback() // no-op after a successful commit
	buffer := func(facts []Fact, op func(pred string, args ...any) error) error {
		for _, f := range facts {
			args, err := constantArgs(f.Args)
			if err != nil {
				return fmt.Errorf("%s: %w", f.Pred, err)
			}
			if err := op(f.Pred, args...); err != nil {
				return err
			}
		}
		return nil
	}
	if err := buffer(req.Retracts, txn.Retract); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err.Error(), tenant, nil)
		return
	}
	if err := buffer(req.Asserts, txn.Assert); err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, err.Error(), tenant, nil)
		return
	}
	if req.RetractText != "" {
		if err := txn.RetractText(req.RetractText); err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, err.Error(), tenant, nil)
			return
		}
	}
	if req.AssertText != "" {
		if err := txn.AssertText(req.AssertText); err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, err.Error(), tenant, nil)
			return
		}
	}
	asserts, retracts := txn.Pending()
	if err := txn.Commit(); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, CodeBadRequest, err.Error(), tenant, nil)
		return
	}
	tn.txns.Add(1)
	writeJSON(w, http.StatusOK, TxnResponse{
		Version:  s.db.Version(),
		Asserts:  asserts,
		Retracts: retracts,
	})
}

// handleStats reports the server's counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	programs, prepared, def := len(s.programs), len(s.prepared), s.defaultProgram
	s.mu.RUnlock()
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Database: DatabaseStats{
			Version:    s.db.Version(),
			TotalFacts: s.db.TotalFacts(),
			LivePins:   s.db.LivePins(),
		},
		Programs:       programs,
		Prepared:       prepared,
		DefaultProgram: def,
		Tenants:        s.adm.statsByTenant(),
	}
	if ds, ok := s.db.DurabilityStats(); ok {
		resp.Durability = &ds
	}
	writeJSON(w, http.StatusOK, resp)
}
