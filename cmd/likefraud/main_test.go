package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTable1Smoke(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-seed", "3", "-scale", "0.05", "-quiet", "-artifact", "table1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"FB-USA", "SF-ALL", "MS-USA"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("table1 output missing %s:\n%s", want, out.String())
		}
	}
}

func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := run([]string{"-seed", "3", "-scale", "0.05", "-quiet", "-artifact", "table1", "-outdir", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, name := range []string{"table1_campaigns.csv", "results.json", "figure3a_direct.dot"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("artifact %s missing: %v", name, err)
		}
	}
}

func TestRunRejectsUnknownArtifact(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-scale", "0.05", "-quiet", "-artifact", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestRunCrawlSmoke runs the self-serving crawl subcommand end to end:
// build a scaled study world, serve it on loopback, crawl every
// campaign page through the pipeline, write profiles and a checkpoint.
// A second run from the checkpoint must find nothing left to crawl.
func TestRunCrawlSmoke(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "crawl.ckpt")
	outFile := filepath.Join(dir, "profiles.jsonl")
	args := []string{"crawl", "-seed", "3", "-scale", "0.05", "-workers", "4",
		"-checkpoint", ckpt, "-out", outFile, "-quiet"}
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "crawled ") {
		t.Fatalf("missing summary:\n%s", out.String())
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1
	if lines < 10 {
		t.Fatalf("only %d profile lines written", lines)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint missing: %v", err)
	}

	var resumed, errOut2 bytes.Buffer
	if code := run(args, &resumed, &errOut2); code != 0 {
		t.Fatalf("resume exit %d, stderr: %s", code, errOut2.String())
	}
	if !strings.Contains(resumed.String(), "crawled 0 profiles") {
		t.Fatalf("resume should crawl nothing:\n%s", resumed.String())
	}
}

// TestRunCrawlTuningFlags drives the crawl with every limiter tuning
// flag set — the AIMD bounds, the -min-interval alias, -backoff-cap,
// and the sequential-engine fallback — and checks they parse, plumb
// through crawler.Config validation, and still produce a full crawl.
func TestRunCrawlTuningFlags(t *testing.T) {
	dir := t.TempDir()
	outFile := filepath.Join(dir, "profiles.jsonl")
	args := []string{"crawl", "-seed", "3", "-scale", "0.05", "-workers", "4",
		"-min-interval", "200us", "-backoff-cap", "500ms",
		"-adaptive", "-adaptive-floor", "50us", "-adaptive-ceil", "1s",
		"-adaptive-step", "100us", "-adaptive-window", "4", "-adaptive-backoff", "1.5",
		"-out", outFile, "-quiet"}
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "throttled") || !strings.Contains(out.String(), "final interval") {
		t.Fatalf("summary missing limiter counters:\n%s", out.String())
	}

	// The static fallback engine and fixed spacing still work.
	args = []string{"crawl", "-seed", "3", "-scale", "0.05", "-workers", "4",
		"-adaptive=false", "-sequential", "-interval", "100us", "-quiet"}
	out.Reset()
	errOut.Reset()
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("sequential exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "crawled ") {
		t.Fatalf("missing summary:\n%s", out.String())
	}

	// A nonsense adaptive-backoff must be rejected by config validation.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"crawl", "-seed", "3", "-scale", "0.05",
		"-adaptive-backoff", "0.5", "-quiet"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1 for adaptive-backoff < 1; stderr: %s", code, errOut.String())
	}
}

func TestRunCrawlRequiresPagesWithURL(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"crawl", "-url", "http://127.0.0.1:1"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunRejectsBadScale(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-scale", "7"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

// TestRunCrawlDataDir: with -data-dir the self-served world is durable —
// the first run builds and persists it, the second reopens it (no
// rebuild) and, resuming from the checkpoint stored in the same
// directory, finds nothing left to crawl.
func TestRunCrawlDataDir(t *testing.T) {
	dir := t.TempDir()
	args := []string{"crawl", "-seed", "3", "-scale", "0.05", "-workers", "4",
		"-data-dir", dir}
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "world persisted to") {
		t.Fatalf("first run did not persist the world:\n%s", errOut.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "crawl-checkpoint.json")); err != nil {
		t.Fatalf("default checkpoint in data dir: %v", err)
	}

	var out2, errOut2 bytes.Buffer
	if code := run(args, &out2, &errOut2); code != 0 {
		t.Fatalf("resume exit %d, stderr: %s", code, errOut2.String())
	}
	if !strings.Contains(errOut2.String(), "reopened world from") {
		t.Fatalf("second run rebuilt instead of reopening:\n%s", errOut2.String())
	}
	if !strings.Contains(out2.String(), "crawled 0 profiles") {
		t.Fatalf("resume against reopened world should crawl nothing:\n%s", out2.String())
	}
}

// TestCrawlAnalyzeMatchesJournalTables is the command-level half of
// the equivalence guarantee: `likefraud crawl -analyze` (self-served
// world, roster discovered from page names, baseline re-derived from
// the seed) writes byte-identical §4 table JSON to `likefraud -tables`
// (the in-process study) for the same seed and scale.
func TestCrawlAnalyzeMatchesJournalTables(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal-tables.json")
	crawl := filepath.Join(dir, "crawl-tables.json")

	var out, errOut bytes.Buffer
	if code := run([]string{"-seed", "3", "-scale", "0.05", "-quiet",
		"-artifact", "table1", "-tables", journal}, &out, &errOut); code != 0 {
		t.Fatalf("journal run exit %d, stderr: %s", code, errOut.String())
	}
	var cOut, cErr bytes.Buffer
	if code := run([]string{"crawl", "-seed", "3", "-scale", "0.05", "-workers", "4",
		"-analyze", "-tables", crawl, "-quiet"}, &cOut, &cErr); code != 0 {
		t.Fatalf("crawl -analyze exit %d, stderr: %s", code, cErr.String())
	}
	want, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(crawl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("crawl-derived tables differ from study tables\ncrawl: %.400s\nstudy: %.400s", got, want)
	}
	if !strings.Contains(cOut.String(), "wrote §4 tables") {
		t.Fatalf("missing tables summary:\n%s", cOut.String())
	}
}

// TestCrawlAnalyzeResumeKeepsTables: a crawl with -analyze resumed
// from a checkpoint (here: a completed one — nothing left to crawl)
// still writes the full tables, because the aggregator state rides the
// checkpoint instead of living only in the crawling process.
func TestCrawlAnalyzeResumeKeepsTables(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "crawl.ckpt")
	tables := filepath.Join(dir, "crawl-tables.json")
	args := []string{"crawl", "-seed", "3", "-scale", "0.05", "-workers", "4",
		"-analyze", "-tables", tables, "-checkpoint", ckpt, "-quiet"}
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	want, err := os.ReadFile(tables)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(tables); err != nil {
		t.Fatal(err)
	}
	var rOut, rErr bytes.Buffer
	if code := run(args, &rOut, &rErr); code != 0 {
		t.Fatalf("resume exit %d, stderr: %s", code, rErr.String())
	}
	if !strings.Contains(rOut.String(), "crawled 0 profiles") {
		t.Fatalf("resume should crawl nothing:\n%s", rOut.String())
	}
	got, err := os.ReadFile(tables)
	if err != nil {
		t.Fatalf("resumed run did not rewrite tables: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed tables differ from original run")
	}
}

// TestCrawlResumeWithoutAnalyzeRefuses: a checkpoint carrying
// aggregator state must not be resumed sink-less — rewriting it would
// silently drop the §4 analysis progress.
func TestCrawlResumeWithoutAnalyzeRefuses(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "crawl.ckpt")
	var out, errOut bytes.Buffer
	if code := run([]string{"crawl", "-seed", "3", "-scale", "0.05", "-workers", "4",
		"-analyze", "-tables", filepath.Join(dir, "t.json"), "-checkpoint", ckpt, "-quiet"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	before, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var rOut, rErr bytes.Buffer
	if code := run([]string{"crawl", "-seed", "3", "-scale", "0.05", "-workers", "4",
		"-checkpoint", ckpt, "-quiet"}, &rOut, &rErr); code != 1 {
		t.Fatalf("sink-less resume exit %d, want 1 (refusal); stderr: %s", code, rErr.String())
	}
	if !strings.Contains(rErr.String(), "resume with -analyze") {
		t.Fatalf("missing refusal message:\n%s", rErr.String())
	}
	after, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("refused resume still rewrote the checkpoint")
	}
}

// TestRunWritesFraudReport pins the -fraud file format: the batch fraud
// report as compact JSON with a trailing newline — the exact bytes the
// live service answers on GET /api/fraud (see the api package's
// TestBatchFraudReportMatchesLive for the in-process equivalence pin).
func TestRunWritesFraudReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fraud.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-seed", "3", "-scale", "0.05", "-quiet", "-artifact", "table1", "-fraud", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatal("fraud report must end with a single trailing newline")
	}
	if bytes.ContainsAny(bytes.TrimSuffix(data, []byte("\n")), "\n") {
		t.Fatal("fraud report body must be compact single-line JSON")
	}
	var doc struct {
		Pages []struct {
			Page     int64 `json:"page"`
			Likers   int   `json:"likers"`
			HighRisk int   `json:"high_risk"`
		} `json:"pages"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("fraud report is not valid JSON: %v", err)
	}
	if len(doc.Pages) == 0 {
		t.Fatal("fraud report covers no pages")
	}
	likers, highRisk := 0, 0
	for _, p := range doc.Pages {
		likers += p.Likers
		highRisk += p.HighRisk
	}
	if likers == 0 || highRisk == 0 {
		t.Fatalf("fraud report scored %d likers, %d high-risk — campaigns buy fake likes, both must be positive", likers, highRisk)
	}
}
