// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the design choices DESIGN.md
// calls out. Each artifact bench runs the corresponding §4 analysis over
// a shared study run (built once) and reports both wall time and, under
// -v via b.Log, the regenerated rows/series. Run with:
//
//	go test -bench=. -benchmem -benchtime=1x
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/accounts"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/graph"
	"repro/internal/honeypot"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/socialnet"
	"repro/internal/stats"
)

var (
	benchOnce    sync.Once
	benchStudy   *core.Study
	benchResults *core.Results
	benchErr     error
)

// benchSetup runs the 13-campaign study once at 1/4 scale and caches it
// for all artifact benches.
func benchSetup(b *testing.B) (*core.Study, *core.Results) {
	b.Helper()
	benchOnce.Do(func() {
		cfg, err := core.ScaledConfig(2014, 0.25)
		if err != nil {
			benchErr = err
			return
		}
		s, err := core.NewStudy(cfg)
		if err != nil {
			benchErr = err
			return
		}
		res, err := s.Run()
		if err != nil {
			benchErr = err
			return
		}
		benchStudy, benchResults = s, res
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy, benchResults
}

func analysisCampaigns(res *core.Results) []analysis.Campaign {
	out := make([]analysis.Campaign, 0, len(res.Campaigns))
	for _, c := range res.Campaigns {
		out = append(out, analysis.Campaign{
			ID: c.Spec.ID, Provider: c.Spec.Provider, Page: c.Page,
			Likers: c.Likers, Active: c.Active,
		})
	}
	return out
}

// BenchmarkTable1Campaigns regenerates Table 1: the campaign roster with
// garnered likes, monitoring spans, and terminated accounts (including
// the §5 month-later sweep, E9).
func BenchmarkTable1Campaigns(b *testing.B) {
	_, res := benchSetup(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = res.RenderTable1()
	}
	b.StopTimer()
	b.Log("\n" + out)
}

// BenchmarkFigure2Temporal regenerates Figure 2: the cumulative like
// time series and the burst-vs-trickle statistics.
func BenchmarkFigure2Temporal(b *testing.B) {
	_, res := benchSetup(b)
	b.ResetTimer()
	var bursts []analysis.BurstStats
	for i := 0; i < b.N; i++ {
		bursts = bursts[:0]
		for _, ts := range res.Temporal {
			bursts = append(bursts, analysis.Burstiness(ts))
		}
	}
	b.StopTimer()
	if len(bursts) != len(res.Temporal) {
		b.Fatal("burst stats incomplete")
	}
	b.Log("\n" + res.RenderFigure2())
}

// BenchmarkTable3SocialGraph regenerates Table 3: likers, public friend
// lists, friend-count statistics, and direct + 2-hop liker friendships
// per provider (including the ALMS shared-operator group).
func BenchmarkTable3SocialGraph(b *testing.B) {
	s, res := benchSetup(b)
	camps := analysisCampaigns(res)
	base := s.Store().FriendGraph()
	b.ResetTimer()
	var rows []analysis.ProviderGroupRow
	for i := 0; i < b.N; i++ {
		ga := analysis.AssignGroups(camps, core.FarmAuthenticLikes, core.FarmMammothSocials)
		var err error
		rows, err = analysis.SocialGraphTable(s.Store(), ga, base)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(rows) == 0 {
		b.Fatal("no Table 3 rows")
	}
	b.Log("\n" + res.RenderTable3())
}

// BenchmarkFigure3LikerGraph regenerates Figure 3: the direct and 2-hop
// liker friendship graphs and their component census.
func BenchmarkFigure3LikerGraph(b *testing.B) {
	s, res := benchSetup(b)
	base := s.Store().FriendGraph()
	b.ResetTimer()
	var direct, twoHop *graph.Undirected
	for i := 0; i < b.N; i++ {
		direct, twoHop = analysis.LikerGraphs(res.Groups, base)
	}
	b.StopTimer()
	if direct.NumNodes() == 0 || twoHop.NumEdges() < direct.NumEdges() {
		b.Fatal("liker graphs malformed")
	}
	b.Log("\n" + res.RenderFigure3())
}

// benchFullStudy runs the complete end-to-end pipeline — world build,
// 13 campaigns, monitoring, sweep, all analyses — at 1/10 scale with
// the given worker-pool size.
func benchFullStudy(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg, err := core.ScaledConfig(int64(i)+1, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Workers = workers
		s, err := core.NewStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullStudy measures the parallel engine at its default width
// (Workers = GOMAXPROCS). Compare against BenchmarkFullStudySerial for
// the pool speedup; the determinism tests prove both produce identical
// output for a fixed seed.
func BenchmarkFullStudy(b *testing.B) { benchFullStudy(b, 0) }

// BenchmarkFullStudySerial is the same pipeline pinned to one worker —
// the serial baseline for the parallel engine.
func BenchmarkFullStudySerial(b *testing.B) { benchFullStudy(b, 1) }

// BenchmarkSweepGrid measures the scenario-grid runner: a 4-variant
// budget×population grid of small studies executed concurrently.
func BenchmarkSweepGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := core.ScaledConfig(int64(i)+1, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		sw := &core.Sweep{
			Variants: core.GridVariants(base,
				core.SweepAxis{Name: "budget", Values: []core.SweepValue{
					{Label: "budget=1x"},
					{Label: "budget=2x", Apply: func(c *core.StudyConfig) {
						for j := range c.Campaigns {
							c.Campaigns[j].BudgetPerDay *= 2
						}
					}},
				}},
				core.SweepAxis{Name: "pop", Values: []core.SweepValue{
					{Label: "pop=1x"},
					{Label: "pop=2x", Apply: func(c *core.StudyConfig) { c.Population.NumUsers *= 2 }},
				}},
			),
			InnerWorkers: 1,
		}
		if _, err := sw.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedStoreParallelLikes measures concurrent AddLike
// throughput on the lock-striped store across shard counts: the
// contention profile the parallel delivery path depends on. Each
// iteration inserts a fixed batch of distinct (user, page) pairs from
// GOMAXPROCS goroutines into a fresh store, so no run ever exhausts
// the pair space and degrades into measuring duplicate rejection.
func BenchmarkShardedStoreParallelLikes(b *testing.B) {
	const nUsers, nPages = 4096, 16
	const batch = nUsers * nPages
	for _, shards := range []int{1, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			t0 := core.StudyStart
			workers := runtime.GOMAXPROCS(0)
			for iter := 0; iter < b.N; iter++ {
				b.StopTimer()
				st := socialnet.NewShardedStore(shards)
				users := make([]socialnet.UserID, nUsers)
				for i := range users {
					users[i] = st.AddUser(socialnet.User{Country: socialnet.CountryUSA})
				}
				pages := make([]socialnet.PageID, nPages)
				for i := range pages {
					pages[i], _ = st.AddPage(socialnet.Page{Name: fmt.Sprintf("p%d", i)})
				}
				b.StartTimer()
				var seq atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							i := int(seq.Add(1)) - 1
							if i >= batch {
								return
							}
							u := users[i%nUsers]
							p := pages[i/nUsers]
							if err := st.AddLike(u, p, t0.Add(time.Duration(i)*time.Second)); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			b.ReportMetric(float64(batch), "likes/op")
		})
	}
}

// ---- Ablation benches (design choices called out in DESIGN.md §4) ----

type ablationWorld struct {
	r     *rand.Rand
	st    *socialnet.Store
	pop   *socialnet.Population
	clock *simclock.Clock
}

func newAblationWorld(b *testing.B, seed int64) *ablationWorld {
	b.Helper()
	r := rand.New(rand.NewSource(seed))
	st := socialnet.NewStore()
	spec := socialnet.DefaultPopulationSpec()
	spec.NumUsers = 400
	spec.NumAmbientPages = 500
	pop, err := socialnet.GeneratePopulation(r, st, spec)
	if err != nil {
		b.Fatal(err)
	}
	return &ablationWorld{r: r, st: st, pop: pop, clock: simclock.New(core.StudyStart)}
}

func ablationPool(b *testing.B, w *ablationWorld, kind accounts.TopologyKind) *accounts.Cohort {
	b.Helper()
	spec := accounts.CohortSpec{
		Name: "ablation-pool", Size: 600,
		Kind:              socialnet.KindFarmBot,
		Operator:          "ablation",
		CountryMix:        stats.MustCategorical([]string{socialnet.CountryUSA}, []float64{1}),
		Profile:           socialnet.GlobalFacebookProfile(),
		FriendsPublicFrac: 0.5,
		Topology: accounts.TopologySpec{
			Kind: kind, InternalPairFrac: 0.1, TripletFrac: 0.3,
			CoreK: 4, CoreBeta: 0.1,
			DeclaredMedian: 200, DeclaredSigma: 0.8,
		},
		// Bursty histories give the bots their detectable signature.
		Cover:     accounts.CoverSpec{LikeMedian: 150, LikeSigma: 0.8, MaxLikes: 500, Bursty: true},
		CreatedAt: core.StudyStart.AddDate(-1, 0, 0),
	}
	c, err := accounts.Build(w.r, w.st, w.pop, spec)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkAblationDeliveryModes contrasts the two §5 modi operandi:
// burst vs trickle delivery of the same order (drives Figure 2's
// separation).
func BenchmarkAblationDeliveryModes(b *testing.B) {
	for _, mode := range []farm.Mode{farm.ModeBurst, farm.ModeTrickle} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := newAblationWorld(b, int64(i)+1)
				pool := ablationPool(b, w, accounts.TopologyIslands)
				f, err := farm.New(w.r, w.st, farm.Config{Name: "A", Mode: mode}, pool, nil)
				if err != nil {
					b.Fatal(err)
				}
				page, _ := w.st.AddPage(socialnet.Page{Name: "p", Honeypot: true})
				b.StartTimer()
				if err := f.PlaceOrder(w.clock, farm.Order{
					Campaign: "c", Page: page, Quantity: 400, DurationDays: 15,
				}); err != nil {
					b.Fatal(err)
				}
				w.clock.Drain(0)
				if w.st.LikeCountOfPage(page) != 400 {
					b.Fatal("order under-delivered")
				}
			}
		})
	}
}

// BenchmarkAblationFarmTopology contrasts the farm graph structures:
// pair/triplet islands vs a connected Watts–Strogatz core (drives
// Table 3 / Figure 3).
func BenchmarkAblationFarmTopology(b *testing.B) {
	for _, tc := range []struct {
		name string
		kind accounts.TopologyKind
	}{{"islands", accounts.TopologyIslands}, {"core", accounts.TopologyCore}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := newAblationWorld(b, int64(i)+1)
				b.StartTimer()
				pool := ablationPool(b, w, tc.kind)
				ids := make([]int64, len(pool.Members))
				for j, m := range pool.Members {
					ids[j] = int64(m)
				}
				sub := w.st.FriendGraph().InducedSubgraph(ids)
				frac := sub.LargestComponentFraction()
				switch tc.kind {
				case accounts.TopologyCore:
					if frac < 0.9 {
						b.Fatalf("core fragmented: %v", frac)
					}
				case accounts.TopologyIslands:
					if frac > 0.1 {
						b.Fatalf("islands merged: %v", frac)
					}
				}
			}
		})
	}
}

// BenchmarkAblationAccountReuse contrasts account rotation against
// biased reuse between two orders of one operator (drives Figure 5(b)'s
// AL/MS liker overlap and the ALMS group).
func BenchmarkAblationAccountReuse(b *testing.B) {
	for _, tc := range []struct {
		name      string
		reuseBias float64
	}{{"rotate", 0}, {"reuse", 0.65}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := newAblationWorld(b, int64(i)+1)
				pool := ablationPool(b, w, accounts.TopologyIslands)
				f, err := farm.New(w.r, w.st, farm.Config{Name: "A", Mode: farm.ModeBurst, RotateAccounts: true}, pool, nil)
				if err != nil {
					b.Fatal(err)
				}
				p1, _ := w.st.AddPage(socialnet.Page{Name: "p1", Honeypot: true})
				p2, _ := w.st.AddPage(socialnet.Page{Name: "p2", Honeypot: true})
				b.StartTimer()
				if err := f.PlaceOrder(w.clock, farm.Order{Campaign: "o1", Page: p1, Quantity: 250, DurationDays: 3}); err != nil {
					b.Fatal(err)
				}
				if err := f.PlaceOrder(w.clock, farm.Order{
					Campaign: "o2", Page: p2, Quantity: 250, DurationDays: 3, ReuseBias: tc.reuseBias,
				}); err != nil {
					b.Fatal(err)
				}
				w.clock.Drain(0)
				l1 := map[socialnet.UserID]bool{}
				for _, lk := range w.st.LikesOfPage(p1) {
					l1[lk.User] = true
				}
				overlap := 0
				for _, lk := range w.st.LikesOfPage(p2) {
					if l1[lk.User] {
						overlap++
					}
				}
				if tc.reuseBias == 0 && overlap > 10 {
					b.Fatalf("rotation produced overlap %d", overlap)
				}
				if tc.reuseBias > 0 && overlap < 100 {
					b.Fatalf("reuse bias produced overlap %d", overlap)
				}
			}
		})
	}
}

// BenchmarkAblationFraudSweep contrasts sweep aggressiveness against the
// bot cohort (drives Table 1's termination counts).
func BenchmarkAblationFraudSweep(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  platform.FraudSweepConfig
	}{
		{"paper-rate", platform.DefaultFraudSweepConfig()},
		{"aggressive", platform.FraudSweepConfig{BaseRate: 0.5, MinScore: 0.2}},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := newAblationWorld(b, int64(i)+1)
				pool := ablationPool(b, w, accounts.TopologyIslands)
				ledger := accounts.NewLedger(w.pop, core.StudyStart)
				ledger.Register(pool)
				if _, err := ledger.Materialize(w.r, w.st, pool.Members); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := platform.FraudSweep(w.r, w.st, pool.Members, tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if tc.cfg.BaseRate >= 0.5 && len(res.Terminated) == 0 {
					b.Fatal("aggressive sweep terminated nothing")
				}
			}
		})
	}
}

// BenchmarkAblationMonitorCadence contrasts the paper's 2-hour poll
// cadence against daily polling: the coarse monitor cannot resolve
// burst deliveries (first-seen timestamps collapse onto day boundaries),
// which is why §3 crawled every two hours.
func BenchmarkAblationMonitorCadence(b *testing.B) {
	for _, tc := range []struct {
		name     string
		interval time.Duration
	}{{"2h-paper", 2 * time.Hour}, {"daily", 24 * time.Hour}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := newAblationWorld(b, int64(i)+1)
				pool := ablationPool(b, w, accounts.TopologyIslands)
				f, err := farm.New(w.r, w.st, farm.Config{Name: "A", Mode: farm.ModeBurst}, pool, nil)
				if err != nil {
					b.Fatal(err)
				}
				page, _ := w.st.AddPage(socialnet.Page{Name: "p", Honeypot: true})
				if err := f.PlaceOrder(w.clock, farm.Order{
					Campaign: "c", Page: page, Quantity: 300, DurationDays: 3, Bursts: 1,
				}); err != nil {
					b.Fatal(err)
				}
				cfg := honeypot.DefaultMonitorConfig(3)
				cfg.ActiveInterval = tc.interval
				b.StartTimer()
				mon, err := honeypot.StartMonitor(w.clock, w.st, page, cfg)
				if err != nil {
					b.Fatal(err)
				}
				w.clock.Drain(0)
				if mon.TotalLikes() != 300 {
					b.Fatalf("observed %d likes", mon.TotalLikes())
				}
				// Resolution check: distinct first-seen instants.
				instants := map[int64]struct{}{}
				for _, u := range mon.Likers() {
					ts, _ := mon.FirstSeen(u)
					instants[ts.UnixNano()] = struct{}{}
				}
				if tc.interval == 2*time.Hour && len(instants) < 1 {
					b.Fatal("fine cadence lost all resolution")
				}
				if tc.interval == 24*time.Hour && len(instants) > 3 {
					b.Fatalf("daily cadence resolved %d instants for a one-burst delivery", len(instants))
				}
			}
		})
	}
}

// BenchmarkMonitorPolling measures the §3 monitoring loop in isolation:
// one page, 15 virtual days of 2-hour polls over a 1000-like stream.
func BenchmarkMonitorPolling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := socialnet.NewStore()
		page, _ := st.AddPage(socialnet.Page{Name: "p", Honeypot: true})
		clock := simclock.New(core.StudyStart)
		r := rand.New(rand.NewSource(int64(i) + 1))
		for j := 0; j < 1000; j++ {
			u := st.AddUser(socialnet.User{Country: "USA"})
			at := time.Duration(r.Int63n(int64(15 * 24 * time.Hour)))
			_, _ = clock.ScheduleAfter(at, "like", func(cl *simclock.Clock) {
				_ = st.AddLike(u, page, cl.Now())
			})
		}
		b.StartTimer()
		mon, err := honeypot.StartMonitor(clock, st, page, honeypot.DefaultMonitorConfig(15))
		if err != nil {
			b.Fatal(err)
		}
		clock.Drain(0)
		if mon.TotalLikes() != 1000 {
			b.Fatalf("monitor observed %d likes", mon.TotalLikes())
		}
	}
}

// ---- Journal and §4 table-driver benches (DESIGN.md §8) ----

// BenchmarkJournalMillionLikes is the million-like ingest bench: a
// quarter-million users bulk-import four-page histories (the journal's
// batched append path) and the canonical merged view is materialized
// once — the exact shape of the study's materialize-then-analyze phase
// at production scale.
func BenchmarkJournalMillionLikes(b *testing.B) {
	const nUsers = 1 << 18 // 262,144 users
	const perUser = 4      // -> ~1M like events
	const nPages = 512
	t0 := core.StudyStart.AddDate(-1, 0, 0)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := socialnet.NewStore()
		users := make([]socialnet.UserID, nUsers)
		for j := range users {
			users[j] = st.AddUser(socialnet.User{Country: socialnet.CountryUSA})
		}
		pages := make([]socialnet.PageID, nPages)
		for j := range pages {
			pages[j], _ = st.AddPage(socialnet.Page{Name: fmt.Sprintf("p%d", j)})
		}
		b.StartTimer()
		likes := make([]socialnet.Like, perUser)
		for j, u := range users {
			for k := 0; k < perUser; k++ {
				// 131 is coprime to 512: distinct pages per user.
				likes[k] = socialnet.Like{
					Page: pages[(j+131*k)%nPages],
					At:   t0.Add(time.Duration((j*perUser+k)%100000) * time.Second),
				}
			}
			if err := st.AddHistory(u, likes); err != nil {
				b.Fatal(err)
			}
		}
		evs := st.Journal().EventsCanonical(0)
		if len(evs) != nUsers*perUser {
			b.Fatalf("journal holds %d events, want %d", len(evs), nUsers*perUser)
		}
	}
	b.ReportMetric(float64(nUsers*perUser), "likes/op")
}

// BenchmarkMonitorTickIncremental proves the §3 monitor's ticks are
// O(new likes), not O(all likes): after a backlog of any size, a quiet
// poll costs the same — while the pre-journal full-rescan approach
// (simulated by the "rescan" sub-benches) scales linearly with the
// backlog.
func BenchmarkMonitorTickIncremental(b *testing.B) {
	setup := func(b *testing.B, backlog int) (*socialnet.Store, socialnet.PageID, *simclock.Clock) {
		b.Helper()
		st := socialnet.NewStore()
		page, err := st.AddPage(socialnet.Page{Name: "p", Honeypot: true})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < backlog; j++ {
			u := st.AddUser(socialnet.User{Country: socialnet.CountryUSA})
			if err := st.AddLike(u, page, core.StudyStart.Add(time.Duration(j)*time.Second)); err != nil {
				b.Fatal(err)
			}
		}
		return st, page, simclock.New(core.StudyStart.AddDate(0, 1, 0))
	}
	for _, backlog := range []int{10_000, 100_000, 500_000} {
		backlog := backlog
		b.Run(fmt.Sprintf("backlog=%d/incremental", backlog), func(b *testing.B) {
			st, page, clock := setup(b, backlog)
			cfg := honeypot.DefaultMonitorConfig(100000) // stay in the active phase
			cfg.MaxDays = 0
			mon, err := honeypot.StartMonitor(clock, st, page, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clock.RunFor(2 * time.Hour) // exactly one quiet poll
			}
			b.StopTimer()
			if mon.TotalLikes() != backlog {
				b.Fatalf("monitor observed %d of %d likes", mon.TotalLikes(), backlog)
			}
		})
		b.Run(fmt.Sprintf("backlog=%d/rescan", backlog), func(b *testing.B) {
			st, page, _ := setup(b, backlog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The pre-journal monitor re-read the cumulative stream
				// on every poll.
				if got := len(st.LikesOfPage(page)); got != backlog {
					b.Fatalf("rescan saw %d likes", got)
				}
			}
		})
	}
}

// BenchmarkAnalysisTables regenerates Figure 1, Table 2, Figure 2's
// 2-hour windows, Figure 4 and Figure 5: the §4 table driver
// (CrawlAnalyzer.ObserveStore) feeding the crawl aggregator family
// from the study's store, then finalizing the tables.
func BenchmarkAnalysisTables(b *testing.B) {
	s, res := benchSetup(b)
	roster := make([]analysis.CrawlCampaign, len(res.Campaigns))
	for i, c := range res.Campaigns {
		roster[i] = analysis.CrawlCampaign{ID: c.Spec.ID, Page: c.Page, Active: c.Active}
	}
	b.ResetTimer()
	var tables analysis.CrawlTables
	for i := 0; i < b.N; i++ {
		a := analysis.NewCrawlAnalyzer(roster, res.Baseline)
		if err := a.ObserveStore(s.Store()); err != nil {
			b.Fatal(err)
		}
		var err error
		if tables, err = a.Tables(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(tables.Geo) == 0 || len(tables.CDFs) == 0 || len(tables.PageSim) != len(roster) {
		b.Fatal("tables incomplete")
	}
	b.Log("\n" + res.RenderFigure1() + "\n" + res.RenderTable2() + "\n" + res.RenderFigure4() + "\n" + res.RenderFigure5())
}
