// Package repro reproduces "Paying for Likes? Understanding Facebook
// Like Fraud Using Honeypots" (De Cristofaro, Friedman, Jourjon, Kaafar,
// Shafiq — IMC 2014) as a simulation-backed Go library.
//
// The paper's measurement infrastructure — thirteen honeypot Facebook
// pages promoted via page-like ads and four commercial like farms — is
// rebuilt in internal packages: a social-network world (socialnet), the
// platform's ad engine / reports tool / fraud sweep (platform), the farm
// operator models (farm, accounts), the honeypot monitor (honeypot), the
// HTTP crawl surface (api, crawler), the §4 analyses (analysis, graph,
// stats, detect), and the end-to-end study driver (core).
//
// The study engine is parallel and deterministic: the world store is
// lock-striped (socialnet.NewShardedStore), campaigns run concurrently
// on private event clocks with RNG streams split per campaign and per
// account, and core.Sweep executes whole scenario grids of study
// variants at once. Results are bit-identical for any worker count
// (StudyConfig.Workers); see DESIGN.md §3–§6.
//
// Every like flows through socialnet.Journal, an append-only sharded
// event log the indexes are derived views of. Honeypot monitors advance
// per-page journal cursors (O(new likes) per §3 poll), the §4 tables
// come from the crawl aggregator family fed from the store by one
// serial in-process crawl (analysis.CrawlAnalyzer.ObserveStore), and
// the fraud sweep groups its burst features from one journal scan; see
// DESIGN.md §8 for the cursor semantics and the determinism rules new
// aggregators must follow.
//
// The §5 fraud detector also runs live: detect.StreamScorer consumes
// the journal from a persisted cursor, folding per-account burst
// features in O(1) amortized per like and resynchronizing out-of-order
// arrivals exactly, so its verdicts match the batch sweep byte for
// byte. honeypotd serves them on admin-gated /fraud endpoints with the
// cursor and fold state riding the checkpoint, and core.Sweep can score
// the detector against ground truth across a scenario grid
// (EvalDetector); see DESIGN.md §14.
//
// The root-level benchmarks (bench_test.go) regenerate every table and
// figure of the paper's evaluation; see DESIGN.md for the experiment
// index and the sharding + worker-pool architecture.
package repro
