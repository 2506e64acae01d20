package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/socialnet"
	"repro/internal/stats"
)

const (
	// crawlShards is the sharded crawl's width; each shard runs
	// nproc/crawlShards workers so the crawl keeps at most nproc
	// requests in flight.
	crawlShards = 2
	// deliveryLikes is the seeded delivery posted to the leader before
	// the crawl, so each seed crawls a different world.
	deliveryLikes = 200
)

func runReplicaCrawl(b *bench) (*result, error) {
	c, setups, err := setUp(b)
	if err != nil {
		return nil, err
	}
	defer c.close()
	r := &result{}

	// The seeded delivery: posted closed-loop, untimed, then the leader
	// is quiesced and the follower caught up.
	ops, ok := BuildSchedule(b.seed, []Step{{Rate: deliveryLikes, Dur: time.Second}}, farmPools(c))
	if !ok {
		return nil, fmt.Errorf("world too small for the delivery")
	}
	post := &http.Client{Transport: newTransport(1), Timeout: 30 * time.Second}
	defer post.CloseIdleConnections()
	for _, op := range ops {
		status, _, err := postLike(post, c.leader.url, op, nil)
		r.check(err == nil && status == http.StatusCreated, "delivery like acked")
	}
	r.check(c.catchUp() == nil, "follower catch-up")

	cfg, err := core.ScaledConfig(worldSeed, worldScale)
	if err != nil {
		return nil, err
	}
	baseline, err := analysis.BaselineSample(stats.SplitRand(worldSeed, "baseline"), c.store, cfg.BaselineSize)
	if err != nil {
		return nil, err
	}
	var pages []int64
	for _, p := range c.store.HoneypotPages() {
		pages = append(pages, int64(p))
	}

	// The reference: one process crawling the leader, untraced.
	ref, err := crawlOnce(b.ctx, nil, c.leader.url, pages, baseline, 1, b.nproc, nil)
	if err != nil {
		return nil, fmt.Errorf("reference crawl: %w", err)
	}
	want := digest(ref.tables)

	rec := &rttRecorder{}
	var crawlS, perSecond, profilesPerReq []float64
	var requests, retries, throttled int
	start := time.Now()
	for len(crawlS) == 0 || time.Since(start) < time.Duration(b.seconds)*time.Second {
		// Each crawl starts from a collected heap, so the collector's
		// phase does not carry over from one crawl into the next.
		runtime.GC()
		cs, err := crawlOnce(b.ctx, b.tr, c.follower.url, pages, baseline, crawlShards, max(b.nproc/crawlShards, 1), rec)
		r.check(err == nil, fmt.Sprintf("sharded crawl: %v", err))
		if err != nil {
			break
		}
		r.check(digest(cs.tables) == want, "merged tables equal a single-process crawl")
		crawlS = append(crawlS, cs.dur.Seconds())
		perSecond = append(perSecond, float64(cs.profiles)/cs.dur.Seconds())
		profilesPerReq = append(profilesPerReq, float64(cs.profiles)/float64(cs.requests))
		requests += cs.requests
		retries += cs.retries
		throttled += cs.throttled
	}
	b.markHeap()
	reads, failedReads := rec.results()
	r.attempted += len(reads)
	r.failed += failedReads
	b.logf("%d crawls, %d profiles each, crawl_s %s; reads %s", len(crawlS), ref.profiles, Summarize(crawlS), Summarize(reads))

	r.gated(median(setups), reads, median(perSecond))
	r.value("crawl_s", median(crawlS), "s")
	r.named("read_p50_ms", reads, 50, "ms")
	r.named("read_p99_ms", reads, 99, "ms")
	r.value("error_ratio", float64(r.failed)/float64(r.attempted), "ratio")
	if b.tr != nil {
		n := max(float64(len(crawlS)), 1)
		r.layer("socialnet.open_ms", c.openMS)
		r.layer("socialnet.bootstrap_ms", c.bootstrapMS)
		r.layer("crawler.requests", float64(requests)/n)
		r.layer("crawler.retries", float64(retries)/n)
		r.layer("crawler.throttled", float64(throttled)/n)
		r.layer("crawler.profiles_per_request", median(profilesPerReq))
		spans := b.tr.Spans(Window{})
		perRep := func(name string) float64 {
			var total int64
			for _, s := range spans {
				if s.Name == name {
					total += s.Dur()
				}
			}
			return float64(total) / 1e6 / n
		}
		r.layer("analysis.observe_ms", perRep("analysis.observe"))
		r.layer("analysis.tables_ms", perRep("analysis.tables"))
		r.layer("analysis.merge_ms", perRep("analysis.merge"))
		r.layer("api.gzip_ratio", rec.gzipRatio())
	}
	return r, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// crawlOutcome is one crawl's merged tables and client counters.
type crawlOutcome struct {
	tables                                 []byte
	profiles, requests, retries, throttled int
	dur                                    time.Duration
}

// crawlOnce runs roster → merged §4 tables against base: shards
// pipelines in parallel, each discovering the full roster, crawling its
// slice of the pages and baseline into its own aggregators, then one
// merge (or, with one shard, the analyzer's own tables). The duration
// covers all of it.
func crawlOnce(ctx context.Context, tr *Tracer, base string, pages []int64, baseline []socialnet.UserID, shards, workers int, rec *rttRecorder) (crawlOutcome, error) {
	start := time.Now()
	var profiles atomic.Int64
	exports := make([]crawler.ShardExport, shards)
	analyzers := make([]*analysis.CrawlAnalyzer, shards)
	clients := make([]*crawler.Client, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ccfg := crawler.DefaultConfig(base)
			ccfg.MinInterval = 0
			ccfg.HTTPClient = &http.Client{Transport: &crawlTransport{tr: tr, base: newTransport(workers), rec: rec}, Timeout: 10 * time.Second}
			if shards > 1 {
				ccfg.APIToken = fmt.Sprintf("crawler-shard-%d-of-%d", i+1, shards)
			}
			defer ccfg.HTTPClient.CloseIdleConnections()
			cl, err := crawler.New(ccfg)
			if err != nil {
				errs[i] = err
				return
			}
			clients[i] = cl
			roster, err := discoverRoster(ctx, cl, pages)
			if err != nil {
				errs[i] = fmt.Errorf("roster: %w", err)
				return
			}
			crawlRoster := roster
			if shards > 1 {
				crawlRoster = analysis.ShardActive(roster, func(p socialnet.PageID) bool {
					return crawler.ShardOf(int64(p), shards) == i
				})
			}
			shardBase := crawler.ShardUsers(baseline, i, shards)
			analyzers[i] = analysis.NewCrawlAnalyzer(crawlRoster, shardBase)
			sink := crawler.NewAnalysisSink(analyzers[i].Aggregators()...)
			pipe := crawler.NewPipeline(cl, crawler.PipelineConfig{Workers: workers, BatchSize: 50, Sink: sinkLayer(tr, sink)}, nil)
			emit := func(int64, crawler.LikerProfile) error {
				sp := tr.Begin("analysis.observe", 0, 0)
				profiles.Add(1)
				sp.End(0)
				return nil
			}
			if err := pipe.Crawl(ctx, crawler.ShardPages(pages, i, shards), emit); err != nil {
				errs[i] = err
				return
			}
			ids := make([]int64, len(shardBase))
			for k, u := range shardBase {
				ids[k] = int64(u)
			}
			if err := pipe.CrawlProfiles(ctx, ids, emit); err != nil {
				errs[i] = err
				return
			}
			blob, err := sink.Snapshot()
			if err != nil {
				errs[i] = err
				return
			}
			exports[i] = crawler.NewShardExport(i, shards, roster, baseline, blob)
		}(i)
	}
	wg.Wait()
	out := crawlOutcome{profiles: int(profiles.Load())}
	for i, err := range errs {
		if err != nil {
			return out, err
		}
		out.requests += clients[i].Requests()
		out.retries += clients[i].Retries()
		out.throttled += clients[i].Throttled()
	}
	analyzer := analyzers[0]
	if shards > 1 {
		sp := tr.Begin("analysis.merge", 0, 0)
		var err error
		analyzer, err = crawler.MergeShardExports(exports)
		sp.End(0)
		if err != nil {
			return out, err
		}
	}
	sp := tr.Begin("analysis.tables", 0, 0)
	t, err := analyzer.Tables()
	if err == nil {
		out.tables, err = t.MarshalStable()
	}
	sp.End(int64(len(out.tables)))
	out.dur = time.Since(start)
	return out, err
}

// discoverRoster builds the crawl-side campaign roster from the API
// the way `likefraud crawl` does: one campaign per page, labelled by
// the campaign ID in the page name, active when the page has likes.
func discoverRoster(ctx context.Context, cl *crawler.Client, pages []int64) ([]analysis.CrawlCampaign, error) {
	roster := make([]analysis.CrawlCampaign, len(pages))
	for i, id := range pages {
		doc, err := cl.Page(ctx, id)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("page-%d", id)
		if open := strings.LastIndexByte(doc.Name, '('); open >= 0 && strings.HasSuffix(doc.Name, ")") && open+1 < len(doc.Name)-1 {
			label = doc.Name[open+1 : len(doc.Name)-1]
		}
		roster[i] = analysis.CrawlCampaign{ID: label, Page: socialnet.PageID(id), Active: doc.LikeCount > 0}
	}
	return roster, nil
}

// observedSink is the analysis layer's boundary in the traced run: it
// times every observation the pipeline hands the aggregators.
type observedSink struct {
	tr *Tracer
	crawler.Sink
}

func sinkLayer(tr *Tracer, s crawler.Sink) crawler.Sink {
	if tr == nil {
		return s
	}
	return &observedSink{tr: tr, Sink: s}
}

func (s *observedSink) ObserveProfile(page int64, prof crawler.LikerProfile) error {
	sp := s.tr.Begin("analysis.observe", 0, 0)
	defer sp.End(0)
	return s.Sink.ObserveProfile(page, prof)
}

func (s *observedSink) ObserveLikes(page int64, likes []api.LikeDoc) error {
	sp := s.tr.Begin("analysis.observe", 0, 0)
	defer sp.End(int64(len(likes)))
	return s.Sink.ObserveLikes(page, likes)
}

// rttRecorder collects the crawler's round trips: full-response time
// and whether each one failed.
type rttRecorder struct {
	mu       sync.Mutex
	ms       []float64
	failed   int
	plain    int64
	squeezed int64
}

func (r *rttRecorder) add(d time.Duration, failed bool) {
	r.mu.Lock()
	r.ms = append(r.ms, ms(d))
	if failed {
		r.failed++
	}
	r.mu.Unlock()
}

func (r *rttRecorder) results() ([]float64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.ms...), r.failed
}

func (r *rttRecorder) gzipRatio() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.squeezed == 0 {
		return 0
	}
	return float64(r.plain) / float64(r.squeezed)
}

// crawlTransport is the crawler's boundary: it reads each response in
// full so the round trip covers the body, records it, and in the
// traced run opens the crawler.rtt span the server span parents to and
// measures the gzip ratio of compressed responses.
type crawlTransport struct {
	tr   *Tracer
	base http.RoundTripper
	rec  *rttRecorder
}

func (t *crawlTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	sp := t.tr.Begin("crawler.rtt", 0, 0)
	if sp != nil {
		r = r.Clone(r.Context())
		r.Header.Set(hdrSpan, strconv.FormatUint(sp.ID(), 10))
		r.Header.Set(hdrReq, strconv.FormatUint(sp.Req(), 10))
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(r)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	d := time.Since(t0)
	sp.End(int64(len(body)))
	if t.rec == nil {
		return resp, err
	}
	failed := err != nil
	if err == nil {
		s := resp.StatusCode
		private := s == http.StatusForbidden && strings.HasSuffix(r.URL.Path, "/friends")
		failed = s >= 300 && !private
	}
	t.rec.add(d, failed)
	if sp != nil && err == nil && resp.Header.Get("Content-Encoding") == "gzip" {
		if zr, zerr := gzip.NewReader(bytes.NewReader(body)); zerr == nil {
			n, _ := io.Copy(io.Discard, zr)
			t.rec.mu.Lock()
			t.rec.plain += n
			t.rec.squeezed += int64(len(body))
			t.rec.mu.Unlock()
		}
	}
	return resp, err
}
