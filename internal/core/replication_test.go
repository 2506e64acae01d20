package core

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/crawler"
	"repro/internal/socialnet"
)

// TestShardedCrawlOverReplicasMatchesJournalEngine is the acceptance
// test for the distributed study (DESIGN §15): run the study, persist
// it, serve it as a replication leader; bootstrap two read replicas
// over HTTP from its journal segments; split the crawl into two shard
// processes that round-robin their reads across the replicas; merge
// the shard exports — and require the merged §4 tables byte-identical
// to the study's on the same world.
func TestShardedCrawlOverReplicasMatchesJournalEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("full study + replication + HTTP crawl")
	}
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
	want, err := jt.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	var roster []analysis.CrawlCampaign
	var pages []int64
	for _, c := range res.Campaigns {
		roster = append(roster, analysis.CrawlCampaign{ID: c.Spec.ID, Page: c.Page, Active: c.Active})
		pages = append(pages, int64(c.Page))
	}
	var baseline []socialnet.UserID
	baseline = append(baseline, res.Baseline...)

	// Persist the world and serve the durable reopen as the leader.
	dir := t.TempDir()
	if err := study.Store().Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	leader, _, err := socialnet.OpenDurable(dir, socialnet.WALOptions{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	leaderSrv := httptest.NewServer(api.NewServer(leader, "sekrit"))
	defer leaderSrv.Close()

	// Two read replicas, bootstrapped and tailed entirely over HTTP.
	ctx := context.Background()
	const nReplicas = 2
	replicaURLs := make([]string, nReplicas)
	for i := 0; i < nReplicas; i++ {
		src := api.NewReplHTTPSource(leaderSrv.URL, "sekrit", nil)
		fw, _, err := socialnet.OpenFollower(ctx, t.TempDir(), src, socialnet.FollowerOptions{WAL: socialnet.WALOptions{SyncInterval: -1}})
		if err != nil {
			t.Fatal(err)
		}
		defer fw.Close()
		if _, err := fw.Poll(ctx); err != nil {
			t.Fatal(err)
		}
		rs := api.NewServer(fw.Store(), "")
		rs.SetReadOnly(true)
		rs.SetReplOffsets(func() []uint64 { return fw.Offsets(nil) })
		srv := httptest.NewServer(rs)
		defer srv.Close()
		replicaURLs[i] = srv.URL
	}

	// Replicas serve the read API with the staleness header stamped.
	resp, err := http.Get(replicaURLs[0] + "/api/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Repl-Offsets") == "" {
		t.Fatal("replica response missing X-Repl-Offsets")
	}

	// Two shard processes, each owning half the roster by page hash,
	// reads round-robined across both replicas under a per-shard
	// politeness identity.
	const nShards = 2
	exports := make([]crawler.ShardExport, 0, nShards)
	for shard := 0; shard < nShards; shard++ {
		ccfg := crawler.DefaultConfig(replicaURLs[0])
		ccfg.BaseURLs = replicaURLs
		ccfg.MinInterval = 0
		ccfg.APIToken = fmt.Sprintf("crawler-shard-%d-of-%d", shard+1, nShards)
		cl, err := crawler.New(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		owns := func(p socialnet.PageID) bool { return crawler.ShardOf(int64(p), nShards) == shard }
		crawlBaseline := crawler.ShardUsers(baseline, shard, nShards)
		analyzer := analysis.NewCrawlAnalyzer(analysis.ShardActive(roster, owns), crawlBaseline)
		sink := crawler.NewAnalysisSink(analyzer.Aggregators()...)
		pipe := crawler.NewPipeline(cl, crawler.PipelineConfig{Workers: 4, BatchSize: 17, Sink: sink}, nil)
		noop := func(int64, crawler.LikerProfile) error { return nil }
		if err := pipe.Crawl(ctx, crawler.ShardPages(pages, shard, nShards), noop); err != nil {
			t.Fatal(err)
		}
		ids := make([]int64, len(crawlBaseline))
		for i, u := range crawlBaseline {
			ids[i] = int64(u)
		}
		if err := pipe.CrawlProfiles(ctx, ids, noop); err != nil {
			t.Fatal(err)
		}
		blob, err := sink.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		exports = append(exports, crawler.NewShardExport(shard, nShards, roster, baseline, blob))
	}

	merged, err := crawler.MergeShardExports(exports)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := merged.Tables()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tables.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded crawl over replicas differs from study tables\ncrawl: %.300s\nstudy: %.300s", got, want)
	}
}
