package detect

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/socialnet"
)

// Bench world shape: a fixed population of enrolled accounts sitting on
// top of a history backlog of varying depth. The scorer consumes the
// backlog once at setup; the measured unit is one steady-state tick
// over a fixed number of fresh likes — which must cost the same no
// matter how deep the already-consumed backlog is.
const (
	benchUsers       = 500
	benchTickLikes   = 500 // one fresh like per enrolled user per tick
	benchAmbientPool = 1024
)

// benchBacklogWorld builds the backlog store and a scorer that has
// consumed all of it.
func benchBacklogWorld(tb testing.TB, backlog int) (*socialnet.Store, *StreamScorer, []socialnet.UserID, time.Time) {
	tb.Helper()
	st := socialnet.NewStore()
	hp, err := st.AddPage(socialnet.Page{Name: "hp", Honeypot: true})
	if err != nil {
		tb.Fatal(err)
	}
	amb := make([]socialnet.PageID, benchAmbientPool)
	for i := range amb {
		p, err := st.AddPage(socialnet.Page{Name: fmt.Sprintf("amb%d", i)})
		if err != nil {
			tb.Fatal(err)
		}
		amb[i] = p
	}
	perUser := backlog / benchUsers
	if perUser > benchAmbientPool {
		tb.Fatalf("backlog %d needs %d history pages per user, pool has %d", backlog, perUser, benchAmbientPool)
	}
	users := make([]socialnet.UserID, benchUsers)
	for i := range users {
		u := st.AddUser(socialnet.User{Country: "TR"})
		users[i] = u
		likes := make([]socialnet.Like, perUser)
		for j := range likes {
			likes[j] = socialnet.Like{Page: amb[j], At: t0.Add(time.Duration(i*perUser+j) * time.Second)}
		}
		if err := st.AddHistory(u, likes); err != nil {
			tb.Fatal(err)
		}
		if err := st.AddLike(u, hp, t0.AddDate(0, 1, 0).Add(time.Duration(i)*time.Second)); err != nil {
			tb.Fatal(err)
		}
	}
	s := NewStreamScorer(st, StreamScorerConfig{})
	s.Tick()
	return st, s, users, t0.AddDate(0, 2, 0)
}

// benchTick appends one fresh like per enrolled user (all on one new
// page, 3h past the previous tick so the window deques stay shallow)
// and consumes them in one tick.
func benchTick(tb testing.TB, st *socialnet.Store, s *StreamScorer, users []socialnet.UserID, at time.Time, i int) {
	tb.Helper()
	p, err := st.AddPage(socialnet.Page{Name: fmt.Sprintf("tick%d", i)})
	if err != nil {
		tb.Fatal(err)
	}
	for j, u := range users {
		if err := st.AddLike(u, p, at.Add(time.Duration(j)*time.Millisecond)); err != nil {
			tb.Fatal(err)
		}
	}
	if got := s.Tick(); got != len(users) {
		tb.Fatalf("tick consumed %d of %d fresh likes", got, len(users))
	}
}

// BenchmarkStreamScorerTick pins the streaming scorer's per-tick cost
// to O(new likes): the incremental sub-benches must stay flat from a
// 10k to a 500k event backlog, while the coldstart sub-benches (a fresh
// scorer consuming the whole journal, the pre-cursor behaviour) scale
// linearly with it.
func BenchmarkStreamScorerTick(b *testing.B) {
	for _, backlog := range []int{10_000, 100_000, 500_000} {
		backlog := backlog
		b.Run(fmt.Sprintf("backlog=%d/incremental", backlog), func(b *testing.B) {
			st, s, users, start := benchBacklogWorld(b, backlog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTick(b, st, s, users, start.Add(time.Duration(i)*3*time.Hour), i)
			}
		})
		b.Run(fmt.Sprintf("backlog=%d/coldstart", backlog), func(b *testing.B) {
			st, _, _, _ := benchBacklogWorld(b, backlog)
			total := st.Journal().Len()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh := NewStreamScorer(st, StreamScorerConfig{})
				if got := fresh.Tick(); got != total {
					b.Fatalf("coldstart consumed %d of %d", got, total)
				}
			}
		})
	}
}

// detectBenchResult is one row of the BENCH_detect.json artifact.
type detectBenchResult struct {
	Name    string `json:"name"`
	Backlog int    `json:"backlog"`
	NsPerOp int64  `json:"ns_per_op"`
}

// TestEmitDetectBenchJSON, gated behind DETECT_BENCH_JSON=<path>, runs
// the incremental tick benchmark across backlog depths through
// testing.Benchmark and writes ns/op per depth as JSON. CI uploads the
// file as an artifact and gates on the 500k/10k flatness ratio.
func TestEmitDetectBenchJSON(t *testing.T) {
	path := os.Getenv("DETECT_BENCH_JSON")
	if path == "" {
		t.Skip("set DETECT_BENCH_JSON=<path> to emit the detect benchmark artifact")
	}
	var results []detectBenchResult
	for _, backlog := range []int{10_000, 100_000, 500_000} {
		backlog := backlog
		br := testing.Benchmark(func(b *testing.B) {
			st, s, users, start := benchBacklogWorld(b, backlog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTick(b, st, s, users, start.Add(time.Duration(i)*3*time.Hour), i)
			}
		})
		results = append(results, detectBenchResult{
			Name:    "BenchmarkStreamScorerTickIncremental",
			Backlog: backlog,
			NsPerOp: br.NsPerOp(),
		})
	}
	raw, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s:\n%s", path, raw)
}

// Lockstep bench world shape: backlog honeypot likes spread thin across
// a few tracked pages (every like lands in a per-page co-action
// sketch), then steady-state ticks of fresh likes from ALREADY-enrolled
// users onto pre-registered tracked pages — no enrollments, matching
// the scorer bench's steady-state notion. Fresh likes within one tick
// share a timestamp: the journal's shard-ordered drain then never
// presents a tracked page an out-of-order instant, so the measured tick
// exercises the pure incremental observe path — no poison, no resync —
// which must stay flat in backlog depth.
const (
	lockstepBenchPages   = 4     // backlog honeypot pages
	lockstepTickPages    = 8     // tracked pages receiving one tick's likes
	lockstepTickPagePool = 16384 // pre-registered tick pages (tracking is fixed at scorer creation)
)

// lockstepBench is a consumed lockstep backlog: the store, the scorer
// that has consumed it, the backlog pages, a cohort of enrolled users,
// the pre-registered tick pages and the first instant past the backlog.
type lockstepBench struct {
	st     *socialnet.Store
	s      *StreamScorer
	hps    []socialnet.PageID
	cohort []socialnet.UserID
	pool   []socialnet.PageID
	start  time.Time
}

// benchLockstepWorld builds a store whose WHOLE backlog is
// sketch-relevant (honeypot likes) and a scorer that has consumed it,
// plus a cohort of enrolled users for the steady-state ticks.
func benchLockstepWorld(tb testing.TB, backlog int) lockstepBench {
	tb.Helper()
	st := socialnet.NewStore()
	hps := make([]socialnet.PageID, lockstepBenchPages)
	for i := range hps {
		p, err := st.AddPage(socialnet.Page{Name: fmt.Sprintf("hp%d", i), Honeypot: true})
		if err != nil {
			tb.Fatal(err)
		}
		hps[i] = p
	}
	pool := make([]socialnet.PageID, lockstepTickPagePool)
	for i := range pool {
		p, err := st.AddPage(socialnet.Page{Name: fmt.Sprintf("tickhp%d", i), Honeypot: true})
		if err != nil {
			tb.Fatal(err)
		}
		pool[i] = p
	}
	nUsers := backlog / lockstepBenchPages
	if nUsers < benchTickLikes {
		tb.Fatalf("backlog %d enrolls %d users, tick cohort needs %d", backlog, nUsers, benchTickLikes)
	}
	users := make([]socialnet.UserID, 0, nUsers)
	for i := 0; i < nUsers; i++ {
		u := st.AddUser(socialnet.User{Country: "TR"})
		users = append(users, u)
		for j, p := range hps {
			// 15-minute stride: ~2 co-bin likes per page per 2h window,
			// so the backlog's pair mass scales linearly, not
			// quadratically, with depth.
			at := t0.Add(time.Duration(i*lockstepBenchPages+j) * 15 * time.Minute)
			if err := st.AddLike(u, p, at); err != nil {
				tb.Fatal(err)
			}
		}
	}
	s := NewStreamScorer(st, StreamScorerConfig{})
	s.Tick()
	// Settle the setup's garbage before timing starts: the world build
	// leaves a large freshly-allocated heap, and at low iteration counts
	// the collection it forces would otherwise land inside the first few
	// measured ticks — read as backlog-dependent cost when it is not.
	runtime.GC()
	start := t0.Add(time.Duration(nUsers*lockstepBenchPages+1) * 15 * time.Minute).Add(24 * time.Hour)
	return lockstepBench{st: st, s: s, hps: hps, cohort: users[:benchTickLikes], pool: pool, start: start}
}

// benchLockstepTick has every cohort user like one of tick i's tracked
// pages, all stamped with the identical instant, and consumes the batch
// in one tick.
func benchLockstepTick(tb testing.TB, w lockstepBench, i int) {
	tb.Helper()
	lo := i * lockstepTickPages
	if lo+lockstepTickPages > len(w.pool) {
		tb.Fatalf("tick %d exhausts the %d-page pool; raise lockstepTickPagePool", i, len(w.pool))
	}
	pages := w.pool[lo : lo+lockstepTickPages]
	at := w.start.Add(time.Duration(i) * 3 * time.Hour)
	for j, u := range w.cohort {
		if err := w.st.AddLike(u, pages[j%lockstepTickPages], at); err != nil {
			tb.Fatal(err)
		}
	}
	if got := w.s.Tick(); got != len(w.cohort) {
		tb.Fatalf("tick consumed %d of %d fresh likes", got, len(w.cohort))
	}
}

// benchVerdictRead is one farm like's path to its verdict: a fresh
// account likes one backlog page — round-robin over the pages at the
// backlog's own 15-minute stride, so each like shares its window bin
// with co-likers — one tick consumes it, and the account's Verdict is
// read at once. The read must not pay for the backlog's pairs.
func benchVerdictRead(tb testing.TB, w lockstepBench, i int) {
	tb.Helper()
	u := w.st.AddUser(socialnet.User{Country: "TR"})
	p := w.hps[i%len(w.hps)]
	if err := w.st.AddLike(u, p, w.start.Add(time.Duration(i)*15*time.Minute)); err != nil {
		tb.Fatal(err)
	}
	if got := w.s.Tick(); got != 1 {
		tb.Fatalf("tick consumed %d of 1 fresh like", got)
	}
	if _, ok := w.s.Verdict(u); !ok {
		tb.Fatalf("fresh liker %d not enrolled", u)
	}
}

// BenchmarkStreamLockstepTick pins the sketch-maintaining tick to
// O(new likes): per-tick cost must stay flat from a 10k to a 500k
// backlog of consumed honeypot likes, even though the deeper backlogs
// carry proportionally larger sketches.
func BenchmarkStreamLockstepTick(b *testing.B) {
	for _, backlog := range []int{10_000, 100_000, 500_000} {
		backlog := backlog
		b.Run(fmt.Sprintf("backlog=%d/incremental", backlog), func(b *testing.B) {
			w := benchLockstepWorld(b, backlog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchLockstepTick(b, w, i)
			}
		})
	}
}

// BenchmarkStreamLockstepVerdictRead pins a fresh account's like →
// tick → Verdict read to cost that does not grow with the consumed
// backlog: the lockstep group report must not be re-derived from every
// co-acting pair on the read.
func BenchmarkStreamLockstepVerdictRead(b *testing.B) {
	for _, backlog := range []int{10_000, 100_000, 500_000} {
		backlog := backlog
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			w := benchLockstepWorld(b, backlog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchVerdictRead(b, w, i)
			}
		})
	}
}

// TestEmitLockstepBenchJSON, gated behind LOCKSTEP_BENCH_JSON=<path>,
// runs the lockstep tick and verdict-read benchmarks across backlog
// depths through testing.Benchmark and writes ns/op per case and depth
// as JSON. CI uploads the file as an artifact and gates each case on
// its 500k/10k flatness ratio.
func TestEmitLockstepBenchJSON(t *testing.T) {
	path := os.Getenv("LOCKSTEP_BENCH_JSON")
	if path == "" {
		t.Skip("set LOCKSTEP_BENCH_JSON=<path> to emit the lockstep benchmark artifact")
	}
	cases := []struct {
		name string
		op   func(testing.TB, lockstepBench, int)
	}{
		{"BenchmarkStreamLockstepTickIncremental", benchLockstepTick},
		{"BenchmarkStreamLockstepVerdictRead", benchVerdictRead},
	}
	var results []detectBenchResult
	for _, c := range cases {
		for _, backlog := range []int{10_000, 100_000, 500_000} {
			backlog := backlog
			br := testing.Benchmark(func(b *testing.B) {
				w := benchLockstepWorld(b, backlog)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.op(b, w, i)
				}
			})
			results = append(results, detectBenchResult{
				Name:    c.name,
				Backlog: backlog,
				NsPerOp: br.NsPerOp(),
			})
		}
	}
	raw, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s:\n%s", path, raw)
}
