package main

// The two ways a workload gets a server: the real datalogd subprocess for
// end-to-end numbers, and the same handler on a loopback listener inside
// this process for the traced run and the smoke pass.

import (
	"net"
	"net/http"
	"os"
	"time"

	"repro/datalog"
	"repro/internal/server"
)

// target is a running server a workload can drive.
type target struct {
	url  string
	boot time.Duration // exec (or construction) → healthy
	// crash stops the server the hard way: SIGKILL for a subprocess. It
	// returns once the process has been reaped.
	crash func()
	// peakRSSMB is VmHWM of the process hosting the engine.
	peakRSSMB func() (float64, error)
	// inproc is set for in-process targets: the handler and the database
	// behind it, for the traced run's deeper calls.
	inproc *inprocServer
}

// launcher starts a server with the workload's configuration.
type launcher func(cfg daemonConfig) (*target, error)

// daemonLauncher launches the built datalogd, logging to logPath.
func daemonLauncher(bin, logPath string) launcher {
	return func(cfg daemonConfig) (*target, error) {
		d, boot, err := startDaemon(bin, logPath, cfg)
		if err != nil {
			return nil, err
		}
		return &target{url: d.url, boot: boot, crash: d.kill, peakRSSMB: d.peakRSSMB}, nil
	}
}

// inprocServer is internal/server behind a loopback http.Server, as
// cmd/datalogd assembles it.
type inprocServer struct {
	db      *datalog.Database
	srv     *server.Server
	handler http.Handler
	http    *http.Server
	done    chan struct{}
}

// launchInproc is the in-process launcher. Its crash is a clean close — an
// abandoned in-process database would keep its checkpoint goroutine writing
// into the directory the next instance opens — so acked ⇒ durable is only
// checked for real against the subprocess.
func launchInproc(cfg daemonConfig) (*target, error) {
	start := time.Now()
	var db *datalog.Database
	if cfg.DataDir != "" {
		var err error
		db, err = datalog.Open(cfg.DataDir, datalog.OpenOptions{
			Fsync: fsyncPolicy, CheckpointEvery: uint64(cfg.CheckpointEvery)})
		if err != nil {
			return nil, err
		}
	} else {
		db = datalog.NewDatabase()
	}
	s := &inprocServer{db: db, srv: server.New(db, server.Config{}), done: make(chan struct{})}
	s.handler = s.srv.Handler()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	s.http = &http.Server{Handler: s.handler}
	go func() {
		_ = s.http.Serve(l) // returns ErrServerClosed from close below
		close(s.done)
	}()
	return &target{
		url:  "http://" + l.Addr().String(),
		boot: time.Since(start),
		crash: func() {
			s.http.Close()
			<-s.done
			db.Close()
		},
		peakRSSMB: func() (float64, error) { return peakRSSMB(os.Getpid()) },
		inproc:    s,
	}, nil
}
