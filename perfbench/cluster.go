package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/socialnet"
)

// The served world: one fixed study world, so every seed drives
// traffic against the same journal depth (scale 0.25 is ~740k journal
// events and ~1.5k enrolled accounts).
const (
	worldSeed  = 2014
	worldScale = 0.25
	adminToken = "perfbench-admin"
	scorerFile = "scorer.json"
	// followPoll is the follower's replication poll interval.
	followPoll = 100 * time.Millisecond
	// tickEvery is the scorer's cadence; each observing tick is
	// followed by a durable sidecar save.
	tickEvery = time.Second
	// setupReps is how many times a run sets the cluster up; setup_s
	// is their median. Each set-up takes about a second.
	setupReps = 7
)

// honeypotd's slow-client timeouts, which the served cluster copies.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 15 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// binaryTag identifies the running benchmark binary, so a template
// world built by one build of the program is never served by another.
func binaryTag() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// ensureTemplate returns the template data dir for the served world,
// building it once per binary: run the study, checkpoint the world,
// reopen it durably, catch a fresh scorer up on the whole journal and
// store its sidecar — the state honeypotd leaves after its first start.
// No run times this.
func ensureTemplate(cache string) (string, error) {
	tag, err := binaryTag()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(cache, fmt.Sprintf("world-%d-%g-%s", worldSeed, worldScale, tag))
	if socialnet.HasDurableState(dir) {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	cfg, err := core.ScaledConfig(worldSeed, worldScale)
	if err != nil {
		return "", err
	}
	st, err := core.NewStudy(cfg)
	if err != nil {
		return "", err
	}
	if _, err := st.Run(); err != nil {
		return "", err
	}
	if err := st.Store().Checkpoint(tmp); err != nil {
		return "", err
	}
	store, _, err := socialnet.OpenDurable(tmp, socialnet.WALOptions{SyncEvery: 1})
	if err != nil {
		return "", err
	}
	sc := detect.NewStreamScorer(store, detect.StreamScorerConfig{})
	sc.Tick()
	data, err := sc.MarshalState()
	if err == nil {
		err = socialnet.WriteFileDurable(filepath.Join(tmp, scorerFile), data)
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	// Worlds of earlier builds are never served again.
	if old, err := filepath.Glob(filepath.Join(cache, "world-*")); err == nil {
		for _, o := range old {
			if o != dir {
				os.RemoveAll(o)
			}
		}
	}
	runtime.GC()
	debug.FreeOSMemory()
	return dir, nil
}

// linkDir fills a fresh dst with hard links to the regular files of
// src. The store never rewrites a file in place — snapshots are
// immutable and the manifest and sidecar are replaced by rename — so
// the template stays intact while a run writes no copy of it.
func linkDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := os.Link(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// served is one HTTP server on a loopback port.
type served struct {
	url string
	srv *http.Server
}

func serve(h http.Handler) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() { _ = srv.Serve(ln) }()
	return &served{url: "http://" + ln.Addr().String(), srv: srv}, nil
}

func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
}

// cluster is the system under test: a durable leader with its live
// scorer and API, and one read-only follower tailing it over HTTP.
type cluster struct {
	tr *Tracer

	dir       string
	leaderDir string
	store     *socialnet.Store
	scorer    *detect.StreamScorer
	leader    *served
	fw        *socialnet.FollowerStore
	follower  *served
	// replClient carries the follower's replication fetches.
	replClient *http.Client

	openMS, bootstrapMS float64
	// saveErrs counts failed sidecar saves of the cadence loop.
	saveErrs atomic.Int64

	loops sync.WaitGroup
	stop  chan struct{}
}

// setUp starts the cluster setupReps times, each from a fresh link of
// the template, and keeps the last one serving. It returns the set-up
// times.
func setUp(b *bench) (*cluster, []float64, error) {
	var setups []float64
	var c *cluster
	for i := 0; i < setupReps; i++ {
		if c != nil {
			c.close()
			os.RemoveAll(c.dir)
		}
		var d time.Duration
		var err error
		if c, d, err = startCluster(b.tr, b.template, b.runDir(fmt.Sprintf("setup%d", i))); err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		b.markHeap()
	}
	// The set-ups leave dirty pages behind; write them back now rather
	// than under the measured load's fsyncs.
	syscall.Sync()
	return c, setups, nil
}

// startCluster opens a copy of the template as the leader and
// bootstraps a follower from it, returning once both answer healthz.
// The returned duration is the run's set-up time.
func startCluster(tr *Tracer, template, dir string) (*cluster, time.Duration, error) {
	c := &cluster{tr: tr, dir: dir, leaderDir: filepath.Join(dir, "leader"), stop: make(chan struct{})}
	if err := linkDir(template, c.leaderDir); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	sp := tr.Begin("socialnet.open", 0, 0)
	store, _, err := socialnet.OpenOrCreate(c.leaderDir, socialnet.WALOptions{SyncEvery: 1}, func() (*socialnet.Store, error) {
		return nil, errors.New("template data dir has no world")
	})
	sp.End(0)
	if err != nil {
		return nil, 0, err
	}
	c.openMS = ms(time.Since(start))
	c.store = store
	data, err := os.ReadFile(filepath.Join(c.leaderDir, scorerFile))
	if err != nil {
		c.close()
		return nil, 0, err
	}
	sp = tr.Begin("detect.restore", 0, 0)
	c.scorer, err = detect.RestoreStreamScorer(store, detect.StreamScorerConfig{}, data)
	if err == nil {
		c.scorer.Tick()
	}
	sp.End(0)
	if err != nil {
		c.close()
		return nil, 0, fmt.Errorf("restore scorer: %w", err)
	}
	apiSrv := api.NewServer(store, adminToken)
	apiSrv.SetFraudScorer(c.scorer)
	apiSrv.SetReplOffsets(func() []uint64 { return store.ReplOffsets(nil) })
	if c.leader, err = serve(apiLayer(tr, apiSrv)); err != nil {
		c.close()
		return nil, 0, err
	}

	c.replClient = &http.Client{Transport: &replTransport{tr: tr, base: newTransport(2)}}
	src := api.NewReplHTTPSource(c.leader.url, adminToken, c.replClient)
	b0 := time.Now()
	sp = tr.Begin("socialnet.bootstrap", 0, 0)
	c.fw, _, err = socialnet.OpenFollower(context.Background(), filepath.Join(dir, "follower"), src, socialnet.FollowerOptions{WAL: socialnet.WALOptions{SyncEvery: 1}})
	if err == nil {
		_, err = c.fw.Poll(context.Background())
	}
	sp.End(0)
	if err != nil {
		c.close()
		return nil, 0, fmt.Errorf("follower: %w", err)
	}
	c.bootstrapMS = ms(time.Since(b0))
	fsrv := api.NewServer(c.fw.Store(), adminToken)
	fsrv.SetReadOnly(true)
	fsrv.SetReplOffsets(func() []uint64 { return c.fw.Offsets(nil) })
	if c.follower, err = serve(apiLayer(tr, fsrv)); err != nil {
		c.close()
		return nil, 0, err
	}
	for _, u := range []string{c.leader.url, c.follower.url} {
		if err := healthy(u); err != nil {
			c.close()
			return nil, 0, err
		}
	}
	return c, time.Since(start), nil
}

func healthy(base string) error {
	resp, err := http.Get(base + "/api/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s healthz: status %d", base, resp.StatusCode)
	}
	return nil
}

// runScorer ticks the leader's scorer on the cadence and saves its
// sidecar durably after every tick that consumed events.
func (c *cluster) runScorer() {
	c.loops.Add(1)
	go func() {
		defer c.loops.Done()
		t := time.NewTicker(tickEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				if c.tickAndSave() != nil {
					c.saveErrs.Add(1)
				}
			}
		}
	}()
}

// tickAndSave is one observing step of the live scorer.
func (c *cluster) tickAndSave() error {
	before := 0
	if c.tr != nil {
		before = len(c.scorer.Accounts())
	}
	sp := c.tr.Begin("detect.tick", 0, 0)
	n := c.scorer.Tick()
	sp.End(int64(n))
	if c.tr != nil {
		c.tr.Add("detect.tick.enrolled", int64(len(c.scorer.Accounts())-before))
	}
	if n == 0 {
		return nil
	}
	sp = c.tr.Begin("detect.save", 0, 0)
	data, err := c.scorer.MarshalState()
	if err == nil {
		err = socialnet.WriteFileDurable(filepath.Join(c.leaderDir, scorerFile), data)
	}
	sp.End(int64(len(data)))
	return err
}

// runFollower polls the follower on its interval; after each poll it
// calls seen with the poll's completion time.
func (c *cluster) runFollower(seen func(time.Time)) {
	c.loops.Add(1)
	go func() {
		defer c.loops.Done()
		t := time.NewTicker(followPoll)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.poll()
				seen(time.Now())
			}
		}
	}()
}

// poll is one follower replication step.
func (c *cluster) poll() (int, error) {
	sp := c.tr.Begin("socialnet.poll", 0, 0)
	n, err := c.fw.Poll(withSpan(context.Background(), sp))
	sp.End(int64(n))
	if c.tr != nil {
		c.tr.Add("socialnet.held", int64(c.fw.Held()))
	}
	return n, err
}

// stopLoops ends the scorer and follower loops and waits for them.
func (c *cluster) stopLoops() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.loops.Wait()
}

// catchUp polls the follower until it has applied everything the
// leader has made durable.
func (c *cluster) catchUp() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := c.poll(); err != nil {
			return err
		}
		want, got := c.store.ReplOffsets(nil), c.fw.Offsets(nil)
		if fmt.Sprint(want) == fmt.Sprint(got) && c.fw.Held() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at %v, leader at %v", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops everything the cluster started and waits for it.
func (c *cluster) close() {
	c.stopLoops()
	for _, s := range []*served{c.follower, c.leader} {
		if s != nil {
			s.close()
		}
	}
	if c.replClient != nil {
		c.replClient.CloseIdleConnections()
	}
	if c.fw != nil {
		c.fw.Close()
	}
	if c.store != nil {
		c.store.Close()
	}
}

// newTransport is a keep-alive transport capped at conns connections
// per host.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
}

// replTransport times the follower's segment fetches as children of
// the poll that issued them and carries the span to the leader.
type replTransport struct {
	tr   *Tracer
	base http.RoundTripper
}

func (t *replTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if parent := spanFrom(r.Context()); parent != nil {
		r = r.Clone(r.Context())
		r.Header.Set(hdrSpan, strconv.FormatUint(parent.ID(), 10))
		r.Header.Set(hdrReq, strconv.FormatUint(parent.Req(), 10))
	}
	return t.base.RoundTrip(r)
}

// routeNames maps the API's route patterns to per-layer metric names.
var routeNames = map[string]string{
	"POST /api/page/{id}/likes":     "post_like",
	"GET /api/page/{id}/likes":      "page_likes",
	"GET /api/page/{id}":            "page",
	"GET /api/user/{id}":            "user",
	"GET /api/users":                "users_batch",
	"GET /api/user/{id}/friends":    "user_friends",
	"GET /api/user/{id}/likes":      "user_likes",
	"GET /api/user/{id}/fraud":      "user_fraud",
	"GET /api/fraud":                "fraud",
	"GET /api/repl/segments":        "repl_segments",
	"GET /api/repl/manifest":        "repl_manifest",
	"GET /api/repl/snapshot/{name}": "repl_snapshot",
	"GET /api/healthz":              "healthz",
}

// apiLayer is the api layer's boundary in the traced run: one span per
// request, named by route, parented to the client span named in the
// request headers, with the response bytes as its value. Untraced runs
// serve the api.Server directly.
func apiLayer(tr *Tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		sp := tr.Begin("api.other", parent, req)
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(cw, r)
		route := routeNames[r.Pattern]
		if route == "" {
			route = "other"
		}
		sp.span.Name = "api." + route
		sp.End(cw.bytes)
		tr.Add("api.bytes_out", cw.bytes)
		// A private friend list answers 403 by design; every other
		// non-2xx is an error.
		if cw.status >= 300 && !(route == "user_friends" && cw.status == http.StatusForbidden) {
			tr.Add("api.errors", 1)
		}
	})
}

type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// markHeap forces a collection at the end of one phase of the run and
// keeps the largest live heap seen: the run's peak retained working
// set. Marks sit outside every timed region, and the figure does not
// depend on when the collector happened to run.
func (b *bench) markHeap() {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if mb := float64(sample[0].Value.Uint64()) / (1 << 20); mb > b.peakHeapMB {
		b.peakHeapMB = mb
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
