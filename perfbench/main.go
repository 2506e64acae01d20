// Command perfbench is the repository's end-to-end benchmark. It
// assembles the system in-process from the same constructors honeypotd
// and `likefraud crawl` use — a durable leader with its live fraud
// scorer and HTTP API, a follower tailing it over loopback HTTP, the
// crawl pipeline and the study engine — drives one workload for a fixed
// time, checks the outputs, and prints every metric by name and unit.
//
// Usage:
//
//	perfbench --workload farm-burst|replica-crawl|study --seed N --seconds S --trace 0|1 [--workdir DIR]
//	perfbench --prepare [--workdir DIR]      build the served template world once
//	perfbench --pin-study                    print the study Results digests to pin
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end set; with --trace 1 the run records spans around
// every call it makes into a layer, writes them to
// DIR/traces/<workload>.jsonl, and reports the per-layer set
// (which includes the traced run's own end-to-end figures, so the
// tracing overhead shows). Lines before it are a human-readable report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// bench is one run's settings and shared state.
type bench struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  int
	nproc    int
	tr       *Tracer
	workdir  string
	template string
	dir      string
	out      io.Writer
	// peakHeapMB is the largest live heap markHeap has seen.
	peakHeapMB float64
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// runDir is a fresh directory for one part of the run.
func (b *bench) runDir(name string) string { return filepath.Join(b.dir, name) }

var workloads = map[string]func(*bench) (*result, error){
	"farm-burst":    runFarmBurst,
	"replica-crawl": runReplicaCrawl,
	"study":         runStudy,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "farm-burst, replica-crawl or study")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "cache and scratch directory")
	pin := fs.Bool("pin-study", false, "print the study Results digests for the pinned seeds and exit")
	prepare := fs.Bool("prepare", false, "build the template world if it is missing and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pin {
		return pinStudy(stdout, stderr)
	}
	if *prepare {
		if _, err := ensureTemplate(filepath.Join(*workdir, "templates")); err != nil {
			fmt.Fprintf(stderr, "perfbench: template world: %v\n", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (farm-burst, replica-crawl, study), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	b := &bench{ctx: ctx, workload: *workload, seed: *seed, seconds: *seconds, nproc: runtime.NumCPU(), workdir: *workdir, out: stdout}
	if *trace == 1 {
		b.tr = NewTracer()
	}
	if err := b.prepare(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.dir)
	b.logf("workload %s, seed %d, %ds, trace %d, nproc %d, GOMAXPROCS %d, %s", b.workload, b.seed, b.seconds, *trace, b.nproc, runtime.GOMAXPROCS(0), runtime.Version())

	r, err := fn(b)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	r.setE2E("peak_heap_mb", b.peakHeapMB, "MiB")
	if b.tr != nil {
		r.spanLayers(b.tr)
		path := filepath.Join(b.workdir, "traces", b.workload+".jsonl")
		err := os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			err = b.tr.WriteFile(path)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
		} else {
			b.logf("trace written to %s", path)
		}
	}
	r.print(b)
	return 0
}

// prepare makes the run's scratch dir and, for workloads that serve
// the world, the template data dir.
func (b *bench) prepare() error {
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.workdir, "run-")
	if err != nil {
		return err
	}
	b.dir = dir
	if b.workload != "study" {
		if b.template, err = ensureTemplate(filepath.Join(b.workdir, "templates")); err != nil {
			os.RemoveAll(dir)
			return fmt.Errorf("template world: %w", err)
		}
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects one run's outcome.
type result struct {
	attempted, failed int
	// problems are failed checks that make the run incorrect.
	problems []string
	e2e      map[string]metric
	layers   map[string]metric
	report   []string
	// window is the part of the traced run the span-based layer
	// figures cover; zero covers the whole run.
	window Window
}

// check counts one correctness check as an operation, failing the run
// when it does not hold.
func (r *result) check(ok bool, what string) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, what)
	}
}

func (r *result) setE2E(name string, v float64, unit string) {
	if r.e2e == nil {
		r.e2e = map[string]metric{}
	}
	r.e2e[name] = metric{v, unit}
}

func (r *result) layer(name string, v float64) {
	if r.layers == nil {
		r.layers = map[string]metric{}
	}
	r.layers[name] = metric{v, layerUnit(name)}
}

// gated records the end-to-end metrics every workload reports: set-up
// time, the headline path's median, and the workload's completed work
// per second. The headline's 75th percentile goes to the report and
// the traced run, not the gate: on a shared machine it moves too much
// from run to run to hold a bound.
func (r *result) gated(setupS float64, headline []float64, perSecond float64) {
	r.setE2E("setup_s", setupS, "s")
	r.setE2E("p50_ms", median(headline), "ms")
	r.setE2E("throughput_per_s", perSecond, "1/s")
	p75, ok := Percentile(headline, 75)
	if ok {
		r.report = append(r.report, fmt.Sprintf("headline p75 %.4f ms (n=%d)", p75, len(headline)))
	} else {
		p75 = -1
		r.report = append(r.report, fmt.Sprintf("headline p75 under-sampled (n=%d)", len(headline)))
	}
	r.layer("traced.p75_ms", p75)
}

// named reports one of the workload's named end-to-end percentiles:
// a number when well sampled, a flag otherwise.
func (r *result) named(name string, xs []float64, p float64, unit string) {
	v, ok := Percentile(xs, p)
	if ok {
		r.report = append(r.report, fmt.Sprintf("%s %.4f %s (n=%d)", name, v, unit, len(xs)))
	} else {
		v = -1
		r.report = append(r.report, fmt.Sprintf("%s under-sampled (n=%d, need %d beyond p%g)", name, len(xs), minBeyond, p))
	}
	r.layer("e2e."+name, v)
}

// value reports one of the workload's named end-to-end values.
func (r *result) value(name string, v float64, unit string) {
	r.report = append(r.report, fmt.Sprintf("%s %.4f %s", name, v, unit))
	r.layer("e2e."+name, v)
}

// tailOrFlag is the p-th percentile, or -1 when under-sampled.
func tailOrFlag(xs []float64, p float64) float64 {
	if v, ok := Percentile(xs, p); ok {
		return v
	}
	return -1
}

// spanLayers derives the span-based per-layer metrics from the spans
// and counter bumps in the result's window.
func (r *result) spanLayers(tr *Tracer) {
	spans := tr.Spans(r.window)
	counter := func(name string) float64 { return float64(tr.Counter(name, r.window)) }
	byName := map[string][]float64{}
	sum := map[string]int64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.Dur()))
		sum[s.Name] += s.Value
	}
	us := func(name string) []float64 {
		out := make([]float64, len(byName[name]))
		for i, v := range byName[name] {
			out[i] = v / 1e3
		}
		return out
	}
	msOf := func(name string) []float64 {
		out := us(name)
		for i := range out {
			out[i] /= 1e3
		}
		return out
	}
	for _, rt := range apiRoutes {
		xs := us("api." + rt.name)
		r.layer("api."+rt.name+".p50_us", median(xs))
		r.layer(fmt.Sprintf("api.%s.p%g_us", rt.name, rt.tail), tailOrFlag(xs, rt.tail))
	}
	r.layer("api.repl_segments.p50_us", median(us("api.repl_segments")))
	r.layer("api.repl_segments.bytes", float64(sum["api.repl_segments"]))
	r.layer("api.bytes_out", counter("api.bytes_out"))
	r.layer("api.errors", counter("api.errors"))

	ticks := msOf("detect.tick")
	r.layer("detect.tick.p50_ms", median(ticks))
	total := 0.0
	for _, t := range ticks {
		total += t
	}
	r.layer("detect.tick.total_ms", total)
	r.layer("detect.tick.events", float64(sum["detect.tick"]))
	r.layer("detect.tick.enrolled", counter("detect.tick.enrolled"))
	r.layer("detect.save.p50_ms", median(msOf("detect.save")))
	if n := len(byName["detect.save"]); n > 0 {
		r.layer("detect.state_bytes", float64(sum["detect.save"])/float64(n))
	}

	r.layer("socialnet.poll.p50_ms", median(msOf("socialnet.poll")))
	r.layer("socialnet.poll.p90_ms", tailOrFlag(msOf("socialnet.poll"), 90))
	r.layer("socialnet.poll.records", float64(sum["socialnet.poll"]))
	r.layer("socialnet.held", counter("socialnet.held"))

	r.layer("crawler.rtt.p50_us", median(us("crawler.rtt")))
	r.layer("crawler.rtt.p99_us", tailOrFlag(us("crawler.rtt"), 99))

	// Self time per layer, and the crawler's waiting: round trip minus
	// the server span, i.e. transport and queueing.
	self := SelfTimes(spans)
	layerSelf := map[string]int64{}
	var wait []float64
	for _, s := range spans {
		layerSelf[layerOf(s.Name)] += self[s.ID]
		if s.Name == "crawler.rtt" {
			wait = append(wait, float64(self[s.ID])/1e3)
		}
	}
	r.layer("crawler.wait_us", median(wait))
	for _, l := range []string{"api", "detect", "socialnet", "crawler", "analysis", "core", "loadgen"} {
		r.layer(l+".self_ms", float64(layerSelf[l])/1e6)
	}
	r.layer("traced.error_ratio", float64(r.failed)/float64(max(r.attempted, 1)))
	for name, m := range r.e2e {
		r.layer("traced."+name, m.Value)
	}
}

// apiRoutes are the routes with per-layer latency figures and the tail
// percentile each reports: the farm-burst routes carry a few hundred
// requests in its nominal step, enough for p95; the crawl routes carry
// thousands.
var apiRoutes = []struct {
	name string
	tail float64
}{
	{"post_like", farmTail}, {"user_fraud", farmTail},
	{"users_batch", 99}, {"page_likes", 99}, {"user_friends", 99}, {"user_likes", 99},
}

// print writes the report and the result line.
func (r *result) print(b *bench) {
	for _, line := range r.report {
		b.logf("%s", line)
	}
	for _, p := range r.problems {
		b.logf("problem: %s", p)
	}
	var set map[string]metric
	if b.tr == nil {
		set = map[string]metric{}
		for _, m := range endToEnd {
			set[m.name] = r.e2e[m.name]
		}
	} else {
		set = map[string]metric{}
		for _, m := range perLayer {
			v, ok := r.layers[m.name]
			if !ok {
				v = metric{0, m.unit}
			}
			set[m.name] = v
		}
	}
	names := make([]string, 0, len(set))
	for n, m := range set {
		names = append(names, n)
		// A figure a failed run could not form reads -1, never NaN,
		// which JSON cannot carry.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			set[n] = metric{-1, m.Unit}
		}
	}
	sort.Strings(names)
	for _, n := range names {
		b.logf("%-34s %14.4f %s", n, set[n].Value, set[n].Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, max(r.attempted, 1), r.failed, set})
	fmt.Fprintln(b.out, string(line))
}

type metricDef struct{ name, unit string }

// endToEnd is the gated set every workload reports with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"throughput_per_s", "1/s"}, {"peak_heap_mb", "MiB"},
}

// perLayer is the set every workload reports with --trace 1; a layer a
// workload does not exercise reports 0, and -1 flags a percentile with
// fewer than ten samples beyond it.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, layerUnit(n)})
		}
	}
	for _, rt := range apiRoutes {
		add("api."+rt.name+".p50_us", fmt.Sprintf("api.%s.p%g_us", rt.name, rt.tail))
	}
	add("api.repl_segments.p50_us", "api.repl_segments.bytes", "api.bytes_out", "api.gzip_ratio", "api.errors", "api.self_ms")
	add("detect.tick.p50_ms", "detect.tick.total_ms", "detect.tick.events", "detect.tick.enrolled",
		"detect.save.p50_ms", "detect.state_bytes", "detect.groups_ms", "detect.self_ms")
	add("socialnet.open_ms", "socialnet.bootstrap_ms", "socialnet.poll.p50_ms", "socialnet.poll.p90_ms",
		"socialnet.poll.records", "socialnet.held", "socialnet.wal_bytes_per_like", "socialnet.self_ms")
	add("crawler.requests", "crawler.retries", "crawler.throttled", "crawler.profiles_per_request",
		"crawler.rtt.p50_us", "crawler.rtt.p99_us", "crawler.wait_us", "crawler.self_ms")
	add("analysis.observe_ms", "analysis.tables_ms", "analysis.merge_ms", "analysis.self_ms")
	add("core.run_world_ms", "core.finalize_ms", "core.self_ms")
	add("loadgen.late.p95_ms", "loadgen.in_flight_max", "loadgen.sent", "loadgen.self_ms")
	for _, m := range endToEnd {
		add("traced." + m.name)
	}
	add("traced.p75_ms", "traced.error_ratio")
	add("e2e.like_ack_p50_ms", "e2e.like_ack_p95_ms", "e2e.verdict_p50_ms", "e2e.verdict_p95_ms",
		"e2e.replica_lag_p50_ms", "e2e.replica_lag_p95_ms", "e2e.sustained_rps", "e2e.crawl_s",
		"e2e.read_p50_ms", "e2e.read_p99_ms", "e2e.study_s", "e2e.error_ratio", "e2e.verdict_read_p50_ms")
	return out
}()

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_rps"), strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.HasSuffix(name, "bytes"), strings.HasSuffix(name, "bytes_out"), strings.HasSuffix(name, "_per_like"):
		return "bytes"
	case strings.HasSuffix(name, "ratio"), strings.HasSuffix(name, "_per_request"):
		return "ratio"
	}
	return "count"
}
