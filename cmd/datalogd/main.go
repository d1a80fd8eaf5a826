// Command datalogd serves a Datalog database over HTTP/JSON: the
// prepare-once/run-many protocol of internal/server (upload programs,
// prepare query forms, run and stream them with per-call constants, write
// through atomic transactions), with snapshot-pinned reads and per-tenant
// admission control.
//
// Usage:
//
//	datalogd -addr :8344 -program rules.dl -facts facts.dl \
//	    -max-concurrent 32 -max-derivations 1000000 -timeout 5s
//
// The -program file is compiled and activated as the default program; it
// holds rules only (a file with ground facts or a ?- query is refused at
// boot). The -facts file (plain "pred(a, b)." source syntax) seeds the
// database. Both are optional — programs and facts can also arrive over the
// wire. The
// -limits file, when given, is a JSON object mapping tenant names to their
// Limits overrides; the flag-level limits apply to every other tenant.
//
// See cmd/datalogd/README.md for the endpoint reference with curl examples.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/datalog"
	"repro/internal/server"
)

func main() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], sigc, nil); err != nil {
		fmt.Fprintln(os.Stderr, "datalogd:", err)
		os.Exit(1)
	}
}

// run boots the server from its command-line arguments and serves until
// stop delivers a signal, then shuts down cleanly. ready, when non-nil,
// receives the bound listen address once the server accepts connections
// (the test boots on port 0).
func run(args []string, stop <-chan os.Signal, ready chan<- string) error {
	fs := flag.NewFlagSet("datalogd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8344", "listen address")
		programPath = fs.String("program", "", "rule program (rules only) to compile and activate at boot")
		factsPath   = fs.String("facts", "", "fact file (source syntax) to seed the database")
		strict      = fs.Bool("strict", false, "refuse the boot program on warnings, not just errors")
		limitsPath  = fs.String("limits", "", "JSON file mapping tenant names to Limits overrides")

		maxConcurrent  = fs.Int("max-concurrent", 0, "per-tenant concurrent-request cap (0 = unlimited)")
		maxDerivations = fs.Int64("max-derivations", 0, "per-request derivation gas (0 = unlimited)")
		maxFacts       = fs.Int("max-facts", 0, "per-request derived-fact cap (0 = unlimited)")
		timeout        = fs.Duration("timeout", 0, "per-request wall-clock bound (0 = unlimited)")
		maxBody        = fs.Int64("max-body-bytes", 0, "request body cap in bytes (0 = 8MiB default)")

		dataDir         = fs.String("data-dir", "", "directory for the write-ahead log and checkpoints (empty = memory-only)")
		fsync           = fs.String("fsync", "always", "WAL fsync policy: always | interval | none")
		checkpointEvery = fs.Uint64("checkpoint-every", 0, "write an automatic checkpoint every N commits (0 = only at shutdown)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := server.Config{
		DefaultLimits: server.Limits{
			MaxConcurrent:  *maxConcurrent,
			MaxDerivations: *maxDerivations,
			MaxFacts:       *maxFacts,
			Timeout:        *timeout,
			MaxBodyBytes:   *maxBody,
		},
	}
	if *limitsPath != "" {
		data, err := os.ReadFile(*limitsPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &cfg.TenantLimits); err != nil {
			return fmt.Errorf("parsing %s: %w", *limitsPath, err)
		}
	}

	var db *datalog.Database
	if *dataDir != "" {
		var err error
		db, err = datalog.Open(*dataDir, datalog.OpenOptions{
			Fsync:           *fsync,
			CheckpointEvery: *checkpointEvery,
		})
		if err != nil {
			return err
		}
		if s, ok := db.DurabilityStats(); ok {
			log.Printf("opened %s: recovered version %d (%d records replayed in %.1fms, fsync=%s)",
				*dataDir, s.RecoveredVersion, s.ReplayedRecords, s.ReplayMillis, *fsync)
			if s.TornTailRecovered {
				log.Printf("torn log tail discarded (crash mid-write recovered)")
			}
		}
	} else {
		db = datalog.NewDatabase()
	}
	srv := server.New(db, cfg)

	if *factsPath != "" {
		if db.Version() > 0 {
			// A recovered durable database already holds its committed
			// facts; re-seeding would log a duplicate batch per restart.
			log.Printf("skipping -facts %s: %s already holds version %d", *factsPath, *dataDir, db.Version())
		} else {
			data, err := os.ReadFile(*factsPath)
			if err != nil {
				return err
			}
			txn := db.Begin()
			if err := txn.AssertText(string(data)); err != nil {
				return fmt.Errorf("seeding %s: %w", *factsPath, err)
			}
			if err := txn.Commit(); err != nil {
				return err
			}
			log.Printf("seeded %d facts from %s (version %d)", db.TotalFacts(), *factsPath, db.Version())
		}
	}
	if *programPath != "" {
		data, err := os.ReadFile(*programPath)
		if err != nil {
			return err
		}
		resp, err := srv.LoadProgram(string(data), *strict, true)
		if err != nil {
			return fmt.Errorf("compiling %s: %w", *programPath, err)
		}
		log.Printf("loaded program %s (%d rules, %d diagnostics) from %s",
			resp.ProgramID, resp.Rules, len(resp.Diagnostics), *programPath)
		for _, d := range resp.Diagnostics {
			log.Printf("  %s", d)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("datalogd listening on %s", ln.Addr())
		errc <- httpSrv.Serve(ln)
	}()
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		log.Printf("received %s, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		// With a durable backend: checkpoint the final state (so the next
		// boot loads a snapshot instead of replaying the whole log) and seal
		// the log cleanly. In-flight commits finished with Shutdown above.
		if _, ok := db.DurabilityStats(); ok {
			if err := db.Checkpoint(); err != nil {
				return fmt.Errorf("final checkpoint: %w", err)
			}
			if err := db.Close(); err != nil {
				return fmt.Errorf("sealing log: %w", err)
			}
			if s, sok := db.DurabilityStats(); sok {
				log.Printf("sealed %s at version %d (checkpoint %d)", *dataDir, db.Version(), s.LastCheckpointVersion)
			}
		}
		log.Printf("shutdown clean")
		return nil
	}
}
