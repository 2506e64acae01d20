package core

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/crawler"
	"repro/internal/socialnet"
)

// toUserIDs converts wire-typed user IDs to domain IDs.
func toUserIDs(ids []int64) []socialnet.UserID {
	out := make([]socialnet.UserID, len(ids))
	for i, id := range ids {
		out[i] = socialnet.UserID(id)
	}
	return out
}

// crawlWorld runs a scaled study and serves its world over HTTP,
// returning everything the crawl-side analyses need to be compared
// against the study: the stable study-table bytes, the
// crawl roster, the baseline sample, and the campaign page list.
func crawlWorld(t *testing.T) (srv *httptest.Server, want []byte, roster []analysis.CrawlCampaign, baseline []int64, pages []int64) {
	t.Helper()
	cfg, err := ScaledConfig(5, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	study, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	jt := res.CrawlTables()
	want, err = jt.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Campaigns {
		roster = append(roster, analysis.CrawlCampaign{ID: c.Spec.ID, Page: c.Page, Active: c.Active})
		pages = append(pages, int64(c.Page))
	}
	for _, u := range res.Baseline {
		baseline = append(baseline, int64(u))
	}
	srv = httptest.NewServer(api.NewServer(study.Store(), ""))
	t.Cleanup(srv.Close)
	return srv, want, roster, baseline, pages
}

// crawlTablesOver runs a full crawl (pages then baseline) through a
// fresh pipeline with the given worker count and returns the resulting
// §4 table bytes.
func crawlTablesOver(t *testing.T, srv *httptest.Server, roster []analysis.CrawlCampaign, baseline, pages []int64, workers int, sequential bool) []byte {
	t.Helper()
	cl := newCrawlClient(t, srv)
	analyzer := analysis.NewCrawlAnalyzer(roster, toUserIDs(baseline))
	sink := crawler.NewAnalysisSink(analyzer.Aggregators()...)
	pipe := crawler.NewPipeline(cl, crawler.PipelineConfig{Workers: workers, BatchSize: 17, Sink: sink, Sequential: sequential}, nil)
	noop := func(int64, crawler.LikerProfile) error { return nil }
	if err := pipe.Crawl(context.Background(), pages, noop); err != nil {
		t.Fatal(err)
	}
	if err := pipe.CrawlProfiles(context.Background(), baseline, noop); err != nil {
		t.Fatal(err)
	}
	tables, err := analyzer.Tables()
	if err != nil {
		t.Fatal(err)
	}
	data, err := tables.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newCrawlClient(t *testing.T, srv *httptest.Server) *crawler.Client {
	t.Helper()
	ccfg := crawler.DefaultConfig(srv.URL)
	ccfg.MinInterval = 0
	cl, err := crawler.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestCrawlTablesMatchJournalEngine is the acceptance test for the
// crawl-to-analysis pipeline: the §4 tables computed by streaming
// crawled profiles into the crawl aggregators — over HTTP, for any
// worker count — are byte-identical to the tables the study computes
// in-process (analysis.CrawlAnalyzer.ObserveStore) on the same world.
func TestCrawlTablesMatchJournalEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("full study + HTTP crawl")
	}
	srv, want, roster, baseline, pages := crawlWorld(t)
	for _, v := range []struct {
		workers    int
		sequential bool
	}{{1, false}, {4, false}, {16, false}, {4, true}} {
		got := crawlTablesOver(t, srv, roster, baseline, pages, v.workers, v.sequential)
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d sequential=%v: crawl-derived tables differ from study tables\ncrawl: %.300s\nstudy: %.300s",
				v.workers, v.sequential, got, want)
		}
	}
}

// TestCrawlTablesSurviveKillAndResume kills a crawl mid-flight (by
// context cancellation after a fixed number of emitted profiles),
// persists the checkpoint — including the aggregator state —, resumes
// with a fresh pipeline and a restored sink, and requires the finished
// tables to be byte-identical to the study's. This is the
// checkpoint/resume half of the determinism contract.
func TestCrawlTablesSurviveKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full study + HTTP crawl")
	}
	srv, want, roster, baseline, pages := crawlWorld(t)
	cl := newCrawlClient(t, srv)

	analyzer := analysis.NewCrawlAnalyzer(roster, toUserIDs(baseline))
	sink := crawler.NewAnalysisSink(analyzer.Aggregators()...)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var emitted atomic.Int32
	kill := func(int64, crawler.LikerProfile) error {
		if emitted.Add(1) == 40 {
			cancel() // the "kill": abort mid-page, mid-window
		}
		return nil
	}
	pipe := crawler.NewPipeline(cl, crawler.PipelineConfig{Workers: 8, BatchSize: 5, Sink: sink}, nil)
	err := pipe.Crawl(ctx, pages, kill)
	if err == nil {
		t.Fatal("crawl finished before the kill; lower the emit threshold")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("crawl aborted with %v, want context.Canceled", err)
	}
	ck := pipe.Checkpoint()
	if err := pipe.SnapshotErr(); err != nil {
		t.Fatal(err)
	}
	if ck.Sink == nil {
		t.Fatal("checkpoint carries no sink state")
	}

	// "Restart": fresh analyzer, sink restored from the checkpoint,
	// fresh pipeline resumed from it.
	analyzer2 := analysis.NewCrawlAnalyzer(roster, toUserIDs(baseline))
	sink2 := crawler.NewAnalysisSink(analyzer2.Aggregators()...)
	if err := sink2.Restore(ck.Sink); err != nil {
		t.Fatal(err)
	}
	pipe2 := crawler.NewPipeline(cl, crawler.PipelineConfig{Workers: 4, BatchSize: 17, Sink: sink2}, &ck)
	noop := func(int64, crawler.LikerProfile) error { return nil }
	if err := pipe2.Crawl(context.Background(), pages, noop); err != nil {
		t.Fatal(err)
	}
	if err := pipe2.CrawlProfiles(context.Background(), baseline, noop); err != nil {
		t.Fatal(err)
	}
	tables, err := analyzer2.Tables()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tables.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed crawl tables differ from study tables\ncrawl: %.300s\nstudy: %.300s", got, want)
	}
}
