// Package server is the network serving layer over the datalog engine:
// an HTTP/JSON server exposing the prepare-once/run-many protocol that the
// paper's program/query split makes natural (see wire.go for the protocol,
// admission.go for the per-tenant control plane, handlers.go for the
// endpoints).
//
// # Snapshot-pinned reads
//
// The server's one consistency invariant: every read request pins a
// database Snapshot at admission time and answers entirely from it. All
// entries of a batch query, and every row of a stream, observe exactly one
// commit version — concurrent transactions and program uploads can never
// tear a response. The pin is O(#relations) and lock-free to read, so the
// invariant costs microseconds, not a lock hold.
//
// # Programs and prepared statements
//
// Uploaded programs are compiled once (with the full static-analysis
// suite) into immutable datalog.Programs and registered under stable ids;
// prepared statements bind a query form to a program and warm the
// program's form cache, so each /v1/query run of a prepared handle only
// parameterizes seeds and evaluates. Both registries are bounded
// (over_capacity past the cap) because registration is a resource grant,
// not a cache.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/datalog"
)

// Registry caps: uploads past these are rejected with over_capacity. A
// registration pins compiled rules (programs) or a warmed query form
// (prepared statements) for the life of the process, so both are admission
// decisions, not cache policy.
const (
	maxPrograms = 64
	maxPrepared = 1024
)

// Config configures a Server.
type Config struct {
	// DefaultLimits applies to every tenant without an override; the zero
	// value admits everything.
	DefaultLimits Limits
	// TenantLimits overrides the defaults per tenant name.
	TenantLimits map[string]Limits
}

// defaultMaxBody caps request bodies when the tenant's limits do not: even
// an unlimited tenant should not be able to buffer an arbitrarily large
// upload into memory.
const defaultMaxBody = 8 << 20

// programEntry is one registered program.
type programEntry struct {
	id     string
	prog   *datalog.Program
	source string
}

// preparedEntry is one registered prepared statement: the program it is
// bound to and the form-shaping options it was prepared with. The compiled
// artifacts live in the program's form cache; each run re-binds the form to
// the request's pinned snapshot.
type preparedEntry struct {
	id        string
	programID string
	prog      *datalog.Program
	query     string
	opts      datalog.Options
}

// Server serves the /v1 protocol over one datalog.Database. Create with
// New, mount Handler on an http.Server. A Server is safe for concurrent
// use; all state beyond the database itself is the two registries and the
// admission counters.
type Server struct {
	db  *datalog.Database
	adm *admission

	mu             sync.RWMutex
	programs       map[string]*programEntry
	prepared       map[string]*preparedEntry
	programSeq     uint64
	preparedSeq    uint64
	defaultProgram string

	start time.Time
}

// New creates a Server over db. The database may be shared with in-process
// writers; the snapshot-pinning invariant holds regardless of who commits.
func New(db *datalog.Database, cfg Config) *Server {
	return &Server{
		db:       db,
		adm:      newAdmission(cfg.DefaultLimits, cfg.TenantLimits),
		programs: make(map[string]*programEntry),
		prepared: make(map[string]*preparedEntry),
		start:    time.Now(),
	}
}

// Database returns the server's underlying database (the load path of
// cmd/datalogd seeds facts through it).
func (s *Server) Database() *datalog.Database { return s.db }

// errRegistryFull is returned (wrapped) by LoadProgram when maxPrograms
// programs are registered already: an admission failure (over_capacity),
// as opposed to every other LoadProgram error, which is the source's fault
// (compile_failed).
var errRegistryFull = errors.New("program registry is full")

// LoadProgram compiles and registers a program exactly as POST /v1/programs
// would, for boot-time loading (cmd/datalogd -program). When activate is
// set (or no default exists yet) it becomes the default program. A source
// carrying ground facts is refused, like one carrying a query: a program
// is rules only here, and silently dropping the facts would answer every
// query over them with nothing. (Loading them instead would make a
// WAL-backed server log a duplicate batch on every boot.)
func (s *Server) LoadProgram(source string, strict, activate bool) (*ProgramResponse, error) {
	compile := datalog.Compile
	if strict {
		compile = datalog.CompileStrict
	}
	prog, err := compile(source)
	if err != nil {
		return nil, err
	}
	if n, first := prog.EmbeddedFacts(); n > 0 {
		return nil, fmt.Errorf("datalog: %s: the program text contains %d ground fact(s), the first one here; "+
			"a served program is rules only — commit facts through POST /v1/txn (or datalogd -facts)", first, n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.programs) >= maxPrograms {
		return nil, fmt.Errorf("%w (%d programs)", errRegistryFull, maxPrograms)
	}
	s.programSeq++
	entry := &programEntry{
		id:     fmt.Sprintf("p%d", s.programSeq),
		prog:   prog,
		source: source,
	}
	s.programs[entry.id] = entry
	if activate || s.defaultProgram == "" {
		s.defaultProgram = entry.id
	}
	return &ProgramResponse{
		ProgramID:   entry.id,
		Rules:       prog.Rules(),
		Default:     s.defaultProgram == entry.id,
		Diagnostics: prog.Diagnostics(),
	}, nil
}

// programFor resolves a program id ("" means the default program).
func (s *Server) programFor(id string) (*programEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id == "" {
		id = s.defaultProgram
		if id == "" {
			return nil, fmt.Errorf("no program_id given and no default program is loaded")
		}
	}
	entry, ok := s.programs[id]
	if !ok {
		return nil, fmt.Errorf("unknown program_id %q", id)
	}
	return entry, nil
}

// registerPrepared stores a prepared statement and returns its id.
func (s *Server) registerPrepared(programID string, prog *datalog.Program, query string, opts datalog.Options) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.prepared) >= maxPrepared {
		return "", fmt.Errorf("prepared-statement registry is full (%d statements)", maxPrepared)
	}
	s.preparedSeq++
	id := fmt.Sprintf("q%d", s.preparedSeq)
	s.prepared[id] = &preparedEntry{
		id:        id,
		programID: programID,
		prog:      prog,
		query:     query,
		opts:      opts,
	}
	return id, nil
}

// preparedFor resolves a prepared-statement id.
func (s *Server) preparedFor(id string) (*preparedEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entry, ok := s.prepared[id]
	if !ok {
		return nil, fmt.Errorf("unknown prepared_id %q", id)
	}
	return entry, nil
}

// Handler returns the server's HTTP handler, one route per protocol verb.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/programs", s.handlePrograms)
	mux.HandleFunc("POST /v1/prepare", s.handlePrepare)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/query/stream", s.handleStream)
	mux.HandleFunc("POST /v1/txn", s.handleTxn)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}
