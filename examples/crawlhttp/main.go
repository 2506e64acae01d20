// Crawlhttp: end-to-end HTTP data collection, the way the paper's
// Selenium crawler worked (§3). The example builds a world, serves it
// over a local HTTP API, and collects every liker of every honeypot
// campaign through the concurrent crawl pipeline: cursor paging over
// the like streams (stable even while campaigns are still delivering),
// batched profile fetches fanned over workers behind one shared
// politeness limiter, cross-campaign dedup, and a checkpoint that
// makes a second crawl a no-op.
//
// The §4 tables are computed WHILE the crawl runs: an AnalysisSink
// streams every crawled profile and like window straight into the
// crawl-side aggregator family, so no profile slice is ever
// materialized — and the resulting tables are byte-identical to the
// ones the study computes in-process from the same world.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/report"
)

func main() {
	cfg, err := core.ScaledConfig(11, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("building world and running campaigns...")
	study, err := core.NewStudy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Serve the platform over HTTP (in-process listener).
	srv := httptest.NewServer(api.NewServer(study.Store(), "admin-token"))
	defer srv.Close()
	fmt.Printf("platform served at %s\n", srv.URL)

	ccfg := crawler.DefaultConfig(srv.URL)
	ccfg.MinInterval = 0 // local loopback: no politeness needed
	ccfg.AdminToken = "admin-token"
	cl, err := crawler.New(ccfg)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// The crawl-side roster: what a crawler can know (page, label,
	// whether anything was delivered) — NOT the monitor's liker lists.
	var roster []analysis.CrawlCampaign
	var pages []int64
	for _, c := range res.Campaigns {
		roster = append(roster, analysis.CrawlCampaign{ID: c.Spec.ID, Page: c.Page, Active: c.Active})
		pages = append(pages, int64(c.Page))
	}
	var baseline []int64
	for _, u := range res.Baseline {
		baseline = append(baseline, int64(u))
	}

	analyzer := analysis.NewCrawlAnalyzer(roster, res.Baseline)
	sink := crawler.NewAnalysisSink(analyzer.Aggregators()...)
	pipe := crawler.NewPipeline(cl, crawler.PipelineConfig{Workers: 8, BatchSize: 25, Sink: sink}, nil)

	fmt.Printf("\ncrawling %d campaign pages + %d baseline profiles through the 8-worker pipeline...\n",
		len(pages), len(baseline))
	crawled := 0
	count := func(int64, crawler.LikerProfile) error { crawled++; return nil }
	if err := pipe.Crawl(ctx, pages, count); err != nil {
		log.Fatal(err)
	}
	if err := pipe.CrawlProfiles(ctx, baseline, count); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawled %d profiles with %d HTTP requests (%d retries) — none retained in memory\n",
		crawled, cl.Requests(), cl.Retries())

	// Finalize the crawl-side §4 tables and compare against the journal
	// engine byte-for-byte.
	tables, err := analyzer.Tables()
	if err != nil {
		log.Fatal(err)
	}
	crawlJSON, err := tables.MarshalStable()
	if err != nil {
		log.Fatal(err)
	}
	studyTables := res.CrawlTables()
	studyJSON, err := studyTables.MarshalStable()
	if err != nil {
		log.Fatal(err)
	}
	if bytes.Equal(crawlJSON, studyJSON) {
		fmt.Printf("\ncrawl-derived §4 tables == study tables (%d bytes, byte-identical)\n", len(crawlJSON))
	} else {
		fmt.Println("\nWARNING: crawl-derived tables diverge from the study's")
	}

	// A taste of the recomputed artifacts, straight from the crawl.
	t := report.NewTable("Table 2 (recomputed from the HTTP crawl)", "Campaign", "%F/%M", "N", "KL")
	for _, row := range tables.Demo {
		t.AddRow(row.CampaignID,
			fmt.Sprintf("%s/%s", report.F(row.FemalePct, 0), report.F(row.MalePct, 0)),
			fmt.Sprintf("%d", row.N), report.F(row.KL, 2))
	}
	fmt.Println(t.String())

	// Resume from the checkpoint: everything is already crawled — and
	// the aggregator state rides along, so a resumed process could
	// finalize the same tables without refetching a single profile.
	ck := pipe.Checkpoint()
	before := cl.Requests()
	analyzer2 := analysis.NewCrawlAnalyzer(roster, res.Baseline)
	sink2 := crawler.NewAnalysisSink(analyzer2.Aggregators()...)
	if err := sink2.Restore(ck.Sink); err != nil {
		log.Fatal(err)
	}
	resumed := crawler.NewPipeline(cl, crawler.PipelineConfig{Workers: 8, Sink: sink2}, &ck)
	refetched := 0
	if err := resumed.Crawl(ctx, pages, func(int64, crawler.LikerProfile) error { refetched++; return nil }); err != nil {
		log.Fatal(err)
	}
	if err := resumed.CrawlProfiles(ctx, baseline, func(int64, crawler.LikerProfile) error { refetched++; return nil }); err != nil {
		log.Fatal(err)
	}
	tables2, err := analyzer2.Tables()
	if err != nil {
		log.Fatal(err)
	}
	resumedJSON, err := tables2.MarshalStable()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resume from checkpoint: %d profiles refetched, %d extra requests, tables identical: %v\n",
		refetched, cl.Requests()-before, bytes.Equal(resumedJSON, crawlJSON))
}
