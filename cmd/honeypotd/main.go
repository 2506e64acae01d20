// Command honeypotd builds the simulated world, runs the 13 honeypot
// campaigns in virtual time, and then serves the resulting platform
// state over HTTP so it can be crawled like the 2014 Facebook surface.
//
// Usage:
//
//	honeypotd [-addr :8080] [-seed N] [-scale 0.25] [-workers W] [-token secret]
//	          [-data-dir DIR] [-sync-every N] [-rps R] [-client-rps R] [-max-conns N]
//
// Endpoints: /api/page/{id}, /api/page/{id}/likes (GET paged, POST
// inject with X-Admin-Token), /api/user/{id}, /api/user/{id}/friends,
// /api/user/{id}/likes, /api/directory, /api/admin/report/{id}
// (X-Admin-Token), /api/healthz, and the live fraud-scoring surface
// /api/fraud, /api/page/{id}/fraud, /api/user/{id}/fraud (all
// X-Admin-Token; backed by the streaming detector's journal cursor).
//
// With -data-dir the world is durable: the first start builds it,
// checkpoints it into the directory, and serves the reopened copy;
// every like accepted afterwards streams through the append-only
// journal segments, so a restart — graceful or SIGKILL — resumes the
// world (and the live monitor's per-page cursors) instead of
// rebuilding it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/socialnet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(os.Args[1:], os.Stderr, func(addr string, h http.Handler, maxConns int) error {
		return serveGraceful(ctx, addr, h, maxConns, os.Stderr)
	}))
}

// syncWriter serializes writes to the diagnostics writer: the live
// monitor and scorer goroutines log to it concurrently, and an
// io.Writer is not in general safe for that (a bytes.Buffer is not).
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// run is the testable body of the command: it parses flags, builds (or
// loads, or durably reopens) the world, assembles the crawl surface,
// and hands the handler to serve. In production serve is serveGraceful
// — an http.Server with slow-client timeouts that drains on
// SIGINT/SIGTERM; tests inject a serve function backed by httptest
// instead of a real listener. It returns the process exit code.
func run(args []string, stderr io.Writer, serve func(addr string, h http.Handler, maxConns int) error) int {
	stderr = &syncWriter{w: stderr}
	fs := flag.NewFlagSet("honeypotd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	seed := fs.Int64("seed", 2014, "random seed")
	scale := fs.Float64("scale", 0.25, "study scale in (0,1]")
	workers := fs.Int("workers", 0, "study worker pool size (0 = one per CPU)")
	token := fs.String("token", "honeypot-admin", "admin token for /api/admin (empty disables)")
	rps := fs.Float64("rps", 0, "global rate-limit ceiling, requests/second (0 = unlimited)")
	clientRPS := fs.Float64("client-rps", 0, "per-client rate limit, requests/second (0 = disabled)")
	maxConns := fs.Int("max-conns", 0, "maximum simultaneously open client connections; over-limit connections are shed at accept (0 = unlimited)")
	load := fs.String("load", "", "serve a world snapshot instead of building one")
	save := fs.String("save", "", "write the built world to a snapshot file before serving")
	dataDir := fs.String("data-dir", "", "durable state directory: the world persists here and a restart resumes it (likes, monitor cursors and all)")
	syncEvery := fs.Int("sync-every", 1, "fsync the journal after this many likes; 1 = group commit, fully durable acknowledgements at coalesced-fsync cost (with -data-dir)")
	syncInterval := fs.Duration("sync-interval", socialnet.DefaultSyncInterval, "background journal fsync period (with -data-dir)")
	monPoll := fs.Duration("monitor-poll", 2*time.Second, "live monitor poll interval (with -data-dir)")
	follow := fs.String("follow", "", "run as a read replica of the leader at this URL: bootstrap from its snapshot, tail its journal segments, serve the full read API locally (requires -data-dir)")
	leaderToken := fs.String("leader-token", "honeypot-admin", "admin token for the leader's replication endpoints (with -follow)")
	followPoll := fs.Duration("follow-poll", 500*time.Millisecond, "replication poll interval (with -follow)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *follow != "" {
		return runFollower(followerConfig{
			leaderURL:   *follow,
			leaderToken: *leaderToken,
			pollEvery:   *followPoll,
			dataDir:     *dataDir,
			addr:        *addr,
			token:       *token,
			rps:         *rps,
			clientRPS:   *clientRPS,
			maxConns:    *maxConns,
			monPoll:     *monPoll,
			syncEvery:   *syncEvery,
			syncInt:     *syncInterval,
		}, stderr, serve)
	}

	var store *socialnet.Store
	var tailByPage map[socialnet.PageID]int
	var err error
	if *dataDir != "" {
		opts := socialnet.WALOptions{SyncEvery: *syncEvery, SyncInterval: *syncInterval}
		store, tailByPage, err = openOrBuildDurable(*dataDir, opts, *seed, *scale, *workers, *load, *save, stderr)
	} else {
		store, err = buildStore(*seed, *scale, *workers, *load, *save, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "honeypotd: %v\n", err)
		return 1
	}

	// The live monitor resumes each honeypot page's journal cursor from
	// the data dir, so likes injected while serving are observed across
	// any number of restarts (at-least-once over a crash boundary).
	var lm *liveMonitor
	if *dataDir != "" {
		lm, err = newLiveMonitor(store, filepath.Join(*dataDir, monitorStateFile), stderr, tailByPage)
		if err != nil {
			fmt.Fprintf(stderr, "honeypotd: %v\n", err)
			return 1
		}
		stop := lm.start(*monPoll)
		defer stop()
	}

	// The streaming fraud scorer serves live verdicts; with -data-dir
	// its cursor and feature state ride the checkpoint as a sidecar and
	// a restart resumes scoring instead of rescanning the journal.
	scorerPath := ""
	if *dataDir != "" {
		scorerPath = filepath.Join(*dataDir, scorerStateFile)
	}
	ls := newLiveScorer(store, scorerPath, stderr)
	stopScorer := ls.start(*monPoll)
	defer stopScorer()

	handler, apiSrv := newHandler(store, *token, *rps, *clientRPS, ls.scorer)
	if store.Durable() {
		// Advertise the fsync horizon so clients (and replicas' users)
		// can compare leader and replica X-Repl-Offsets directly.
		apiSrv.SetReplOffsets(func() []uint64 { return store.ReplOffsets(nil) })
	}
	fmt.Fprintf(stderr, "serving on http://%s (admin token %q)\n", *addr, *token)
	serveErr := serve(*addr, handler, *maxConns)

	// Orderly shutdown: persist the monitor cursors and scorer state,
	// checkpoint the world (folding the WAL tail into the snapshot and
	// compacting), and close the journal. A SIGKILL skips all of this —
	// that is what the WAL is for.
	if lm != nil {
		lm.stopAndSave()
	}
	ls.stopAndSave()
	if *dataDir != "" {
		if err := store.Checkpoint(*dataDir); err != nil {
			fmt.Fprintf(stderr, "honeypotd: final checkpoint: %v\n", err)
		}
		if err := store.Close(); err != nil {
			fmt.Fprintf(stderr, "honeypotd: close journal: %v\n", err)
		}
	}
	if serveErr != nil {
		fmt.Fprintf(stderr, "honeypotd: %v\n", serveErr)
		return 1
	}
	return 0
}

// followerConfig carries the replica-mode settings from run's flags.
type followerConfig struct {
	leaderURL   string
	leaderToken string
	pollEvery   time.Duration
	dataDir     string
	addr        string
	token       string
	rps         float64
	clientRPS   float64
	maxConns    int
	monPoll     time.Duration
	syncEvery   int
	syncInt     time.Duration
}

// runFollower serves a read replica: bootstrap from the leader's
// snapshot (first start only), tail its journal segments into a local
// WAL, and serve the full read API — likes, users, friends, directory,
// and live fraud verdicts from a local StreamScorer — while writes get
// 403 and every response carries the replica's applied offsets in
// X-Repl-Offsets. The live monitor does not run here: campaign
// observation is the leader's job; the replica's job is read capacity.
func runFollower(cfg followerConfig, stderr io.Writer, serve func(addr string, h http.Handler, maxConns int) error) int {
	if cfg.dataDir == "" {
		fmt.Fprintf(stderr, "honeypotd: -follow requires -data-dir (the replica persists shipped segments there)\n")
		return 2
	}
	src := api.NewReplHTTPSource(cfg.leaderURL, cfg.leaderToken, nil)
	opts := socialnet.WALOptions{SyncEvery: cfg.syncEvery, SyncInterval: cfg.syncInt}
	fw, stats, err := socialnet.OpenFollower(context.Background(), cfg.dataDir, src, socialnet.FollowerOptions{WAL: opts})
	if err != nil {
		fmt.Fprintf(stderr, "honeypotd: open follower: %v\n", err)
		return 1
	}
	store := fw.Store()
	if stats != nil && stats.TailEvents > 0 {
		fmt.Fprintf(stderr, "resumed replica from %s (%d replayed from WAL tail)\n", cfg.dataDir, stats.TailEvents)
	}
	if n, err := fw.Poll(context.Background()); err != nil {
		fmt.Fprintf(stderr, "honeypotd: initial catch-up: %v\n", err)
		return 1
	} else {
		fmt.Fprintf(stderr, "replica of %s caught up (+%d records; %d users, %d pages)\n",
			cfg.leaderURL, n, store.NumUsers(), store.NumPages())
	}

	// The serving state — follower store, its local fraud scorer, and
	// the API server built over them — is bundled so a re-bootstrap can
	// swap all of it atomically under the live listener.
	type replica struct {
		fw         *socialnet.FollowerStore
		ls         *liveScorer
		stopScorer func()
		apiSrv     *api.Server
		handler    http.Handler
		// inflight counts the replica's in-flight handlers: each holds
		// a read lock for its whole run, and closing the store takes
		// the write lock, so a close waits for the handlers already
		// reading the store and never overlaps one.
		inflight sync.RWMutex
		// dead marks a replica whose store was closed by a failed
		// re-bootstrap: shutdown must not checkpoint or re-close it.
		dead bool
	}
	// closeDrained closes a replica's store once its in-flight handlers
	// have drained.
	closeDrained := func(r *replica) error {
		r.inflight.Lock()
		defer r.inflight.Unlock()
		return r.fw.Close()
	}
	// The replica scores fraud locally from its own shipped journal —
	// read capacity scales with replicas, verdicts included.
	openReplica := func(fw *socialnet.FollowerStore) *replica {
		ls := newLiveScorer(fw.Store(), filepath.Join(cfg.dataDir, scorerStateFile), stderr)
		stop := ls.start(cfg.monPoll)
		handler, apiSrv := newHandler(fw.Store(), cfg.token, cfg.rps, cfg.clientRPS, ls.scorer)
		apiSrv.SetReadOnly(true)
		apiSrv.SetReplOffsets(func() []uint64 { return fw.Offsets(nil) })
		return &replica{fw: fw, ls: ls, stopScorer: stop, apiSrv: apiSrv, handler: handler}
	}
	var live atomic.Pointer[replica]
	live.Store(openReplica(fw))
	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := live.Load()
		rep.inflight.RLock()
		defer rep.inflight.RUnlock()
		rep.handler.ServeHTTP(w, r)
	})

	// Tail loop: poll the leader until shutdown. A replication gap
	// (leader compacted past our cursor) gets ONE automatic recovery
	// attempt: re-bootstrap from the leader's current snapshot into a
	// scratch dir, atomically swap it over the data dir, and swap the
	// whole serving bundle under the listener. A second gap, or a
	// failed re-bootstrap, is fatal — the operator must intervene;
	// anything else is transient and retried next tick. A dead tail
	// marks the replica unhealthy (/api/healthz goes 503) rather than
	// exiting the goroutine silently: the process keeps draining
	// in-flight readers, but health-checked traffic stops landing on
	// ever-staler data.
	done := make(chan struct{})
	tailStopped := make(chan struct{})
	go func() {
		defer close(tailStopped)
		tick := time.NewTicker(cfg.pollEvery)
		defer tick.Stop()
		rebootstrapped := false
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				cur := live.Load()
				_, err := cur.fw.Poll(context.Background())
				if err == nil {
					continue
				}
				if !errors.Is(err, socialnet.ErrReplGap) {
					fmt.Fprintf(stderr, "honeypotd: replication poll: %v\n", err)
					continue
				}
				if rebootstrapped {
					fmt.Fprintf(stderr, "honeypotd: replication gap again after re-bootstrap: %v (delete %s and restart)\n", err, cfg.dataDir)
					cur.apiSrv.SetHealthError(fmt.Sprintf("replication tail dead: %v", err))
					return
				}
				rebootstrapped = true
				fmt.Fprintf(stderr, "honeypotd: replication gap: %v; re-bootstrapping from the leader's current snapshot\n", err)
				cur.stopScorer()
				if cerr := closeDrained(cur); cerr != nil {
					fmt.Fprintf(stderr, "honeypotd: close gapped replica: %v\n", cerr)
				}
				fw2, _, rerr := socialnet.RebootstrapFollower(context.Background(), cfg.dataDir, src, socialnet.FollowerOptions{WAL: opts})
				if rerr != nil {
					fmt.Fprintf(stderr, "honeypotd: re-bootstrap: %v (delete %s and restart)\n", rerr, cfg.dataDir)
					cur.dead = true
					cur.apiSrv.SetHealthError(fmt.Sprintf("replication tail dead: re-bootstrap failed: %v", rerr))
					return
				}
				next := openReplica(fw2)
				live.Store(next)
				fmt.Fprintf(stderr, "replica re-bootstrapped from %s (%d users, %d pages)\n",
					cfg.leaderURL, fw2.Store().NumUsers(), fw2.Store().NumPages())
			}
		}
	}()
	fmt.Fprintf(stderr, "serving replica on http://%s (leader %s)\n", cfg.addr, cfg.leaderURL)
	serveErr := serve(cfg.addr, root, cfg.maxConns)

	close(done)
	<-tailStopped
	cur := live.Load()
	cur.stopScorer()
	if !cur.dead {
		cur.ls.stopAndSave()
		if err := cur.fw.Checkpoint(); err != nil {
			fmt.Fprintf(stderr, "honeypotd: final checkpoint: %v\n", err)
		}
		if err := closeDrained(cur); err != nil {
			fmt.Fprintf(stderr, "honeypotd: close journal: %v\n", err)
		}
	}
	if serveErr != nil {
		fmt.Fprintf(stderr, "honeypotd: %v\n", serveErr)
		return 1
	}
	return 0
}

// openOrBuildDurable resumes the world persisted in dir, or — on first
// start — builds it, checkpoints it into dir, and reopens it from disk.
// Serving always happens from the durably reopened store, so every
// restart sees the identical canonical world plus whatever the journal
// accumulated, and the world build is paid exactly once per data dir.
// It also returns the recovery's per-page WAL-tail counts, which the
// live monitor uses to clamp persisted cursors.
func openOrBuildDurable(dir string, opts socialnet.WALOptions, seed int64, scale float64, workers int, load, save string, stderr io.Writer) (*socialnet.Store, map[socialnet.PageID]int, error) {
	resuming := socialnet.HasDurableState(dir)
	store, stats, err := socialnet.OpenOrCreate(dir, opts, func() (*socialnet.Store, error) {
		return buildStore(seed, scale, workers, load, save, stderr)
	})
	if err != nil {
		return nil, nil, err
	}
	if resuming {
		fmt.Fprintf(stderr, "resumed world from %s (%d users, %d pages, %d journal events; %d replayed from WAL tail)\n",
			dir, store.NumUsers(), store.NumPages(), store.Journal().Len(), stats.TailEvents)
		if stats.DroppedEvents > 0 {
			fmt.Fprintf(stderr, "warning: %d journal events referenced unknown users/pages and were dropped\n", stats.DroppedEvents)
		}
	} else {
		fmt.Fprintf(stderr, "world persisted to %s\n", dir)
	}
	return store, stats.TailByPage, nil
}

// buildStore loads a snapshot or builds a fresh world by running the
// full study at the given scale on the parallel engine.
func buildStore(seed int64, scale float64, workers int, load, save string, stderr io.Writer) (*socialnet.Store, error) {
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return nil, err
		}
		store, err := socialnet.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "loaded world snapshot %s (%d users, %d pages)\n",
			load, store.NumUsers(), store.NumPages())
		return store, nil
	}

	cfg, err := core.ScaledConfig(seed, scale)
	if err != nil {
		return nil, err
	}
	cfg.Workers = workers
	fmt.Fprintf(stderr, "building world and running campaigns (seed %d, scale %.2f)...\n", seed, scale)
	start := time.Now()
	study, err := core.NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	res, err := study.Run()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "world ready in %s\n", time.Since(start).Round(time.Millisecond))
	for _, c := range res.Campaigns {
		fmt.Fprintf(stderr, "  %-8s page=%d likes=%d\n", c.Spec.ID, c.Page, c.Likes)
	}
	store := study.Store()
	if save != "" {
		f, err := os.Create(save)
		if err != nil {
			return nil, err
		}
		if err := store.WriteSnapshot(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "world snapshot written to %s\n", save)
	}
	return store, nil
}

// newHandler assembles the crawl surface: the API server plus the
// optional rate limiters. With -client-rps each client identity (the
// X-API-Token header, or the remote address) gets its own token bucket
// under the -rps global ceiling; with only -rps the single global
// bucket applies.
func newHandler(store *socialnet.Store, token string, rps, clientRPS float64, scorer *detect.StreamScorer) (http.Handler, *api.Server) {
	srv := api.NewServer(store, token)
	if scorer != nil {
		srv.SetFraudScorer(scorer)
	}
	var handler http.Handler = srv
	switch {
	case clientRPS > 0:
		handler = api.PerClientThrottle(handler, api.ThrottleConfig{
			PerClientRPS: clientRPS,
			GlobalRPS:    rps,
		})
	case rps > 0:
		handler = api.Throttle(handler, rps, int(rps)+1)
	}
	return handler, srv
}

// shutdownGrace bounds how long a graceful shutdown waits for in-flight
// requests before the process exits anyway.
const shutdownGrace = 10 * time.Second

// Slow-client timeouts for the public listener. Every accepted
// connection holds a goroutine and (under -max-conns) a listener slot,
// so each phase of a request's life gets an explicit bound; without
// them one slowloris-style client per slot could pin the server's
// capacity indefinitely.
const (
	// readHeaderTimeout bounds the wait for the request line and
	// headers — the cheapest phase to stall and the classic slowloris
	// vector, so it gets the tightest bound.
	readHeaderTimeout = 5 * time.Second
	// readTimeout bounds reading the entire request, body included.
	// Bodies here are small (the only POST is a like injection, capped
	// at 64 KiB), so 15s is generous even for slow links.
	readTimeout = 15 * time.Second
	// writeTimeout bounds writing the response. Directory and
	// like-stream pages can reach a few hundred KiB compressed; a
	// client must still drain that within 30s or forfeit the slot.
	writeTimeout = 30 * time.Second
	// idleTimeout bounds a keep-alive connection between requests. The
	// crawler reuses connections aggressively, so idle slots are
	// normal; two minutes keeps reuse effective while still reclaiming
	// abandoned sockets.
	idleTimeout = 2 * time.Minute
)

// serveGraceful runs an http.Server with slow-client timeouts and
// drains it cleanly when ctx is cancelled (SIGINT/SIGTERM in main). A
// clean shutdown returns nil; an aborted listener returns its error.
// maxConns > 0 gates the listener with api.LimitListener, bounding how
// many connections can hold server resources at once (the timeouts
// bound only how long each one can).
func serveGraceful(ctx context.Context, addr string, h http.Handler, maxConns int, stderr io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ln = api.LimitListener(ln, maxConns)
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintf(stderr, "honeypotd: signal received, draining for up to %s\n", shutdownGrace)
		shCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		// Serve may have failed for a real reason racing the signal;
		// only a clean close is success.
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
