package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/accounts"
	"repro/internal/analysis"
	"repro/internal/detect"
	"repro/internal/farm"
	"repro/internal/honeypot"
	"repro/internal/parallel"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/socialnet"
	"repro/internal/stats"
)

// Study is a configured experiment over a freshly built world.
type Study struct {
	cfg    StudyConfig
	rng    *rand.Rand
	store  *socialnet.Store
	pop    *socialnet.Population
	ledger *accounts.Ledger
	engine *platform.AdEngine
	farms  map[string]*farm.Farm
	clock  *simclock.Clock

	// world is the completed outcome of RunWorld (campaign states,
	// baseline sample, materialized-history count) — everything
	// Finalize needs beyond the store itself. A Study reopened from a
	// persisted run (ReopenStudy) carries world and store only.
	world *worldState
}

// worldState is the run outcome Finalize consumes: it is exactly the
// state Persist writes to disk (alongside the store checkpoint), so a
// reopened study finalizes bit-identically to an uninterrupted one.
type worldState struct {
	states    []*running
	baseline  []socialnet.UserID
	histLikes int
}

// CampaignResult is the outcome of one campaign (a Table 1 row plus the
// raw liker set and the Figure 2 series).
type CampaignResult struct {
	Spec           CampaignSpec
	Page           socialnet.PageID
	Active         bool
	Likes          int
	Terminated     int
	MonitoringDays int
	Likers         []socialnet.UserID
	// Series is the cumulative like count by day offset, spanning at
	// least the common 15-day Figure 2 axis.
	Series []int
}

// CampaignJournalStats is one campaign's ingest accounting: how many
// like events its honeypot page's journal stream holds and the
// monitor's cursor high-water mark (events consumed by polls). Sweeps
// compare these across variants to see ingest volume shift.
type CampaignJournalStats struct {
	Events int
	Cursor int
}

// JournalStats summarizes the append-only like-event journal behind a
// run: the total event count (campaign likes plus materialized cover
// histories) and the per-campaign stream stats.
type JournalStats struct {
	TotalEvents int
	Campaigns   map[string]CampaignJournalStats
}

// Results bundles every artifact of the study.
type Results struct {
	Config    StudyConfig
	Campaigns []CampaignResult

	Geo      []analysis.GeoRow         // Figure 1
	Demo     []analysis.DemoRow        // Table 2
	Temporal []analysis.TemporalSeries // Figure 2
	Bursts   []analysis.BurstStats
	Windows  []analysis.WindowStats // Figure 2 at 2-hour granularity

	Groups       *analysis.GroupAssignment
	Table3       []analysis.ProviderGroupRow
	DirectCensus []analysis.ComponentCensus // Figure 3(a)
	TwoHopCensus []analysis.ComponentCensus // Figure 3(b)
	CrossEdges   map[[2]string]int

	Baseline []socialnet.UserID
	CDFs     []analysis.PageLikeCDF // Figure 4

	PageSim [][]float64 // Figure 5(a)
	UserSim [][]float64 // Figure 5(b)

	// RemovedLikes maps campaign ID to the number of likes the page
	// lost to the termination sweep — the §5 future-work extension
	// ("longer observation of removed likes").
	RemovedLikes map[string]int

	// HistoryLikes is how many cover likes were materialized for the
	// observed likers and baseline users.
	HistoryLikes int

	// Journal is the run's event-journal accounting.
	Journal JournalStats
}

// NewStudy builds the world: organic population, ad markets, farm pools.
func NewStudy(cfg StudyConfig) (*Study, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Study{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		store: socialnet.NewStore(),
		farms: make(map[string]*farm.Farm),
		clock: simclock.New(cfg.Start),
	}
	// Population like-histories generate on the study's worker pool;
	// the world is identical for every pool size.
	popSpec := cfg.Population
	popSpec.Workers = cfg.Workers
	pop, err := socialnet.GeneratePopulation(s.rng, s.store, popSpec)
	if err != nil {
		return nil, fmt.Errorf("core: population: %w", err)
	}
	s.pop = pop
	s.ledger = accounts.NewLedger(pop, cfg.Start)

	// Shared page-universe blocks. Which blocks cohorts share fixes the
	// Figure 5(a) overlap structure.
	blockDate := cfg.Start.AddDate(-2, 0, 0)
	var globalHead, adWorld []socialnet.PageID
	if cfg.Blocks.GlobalHead > 0 {
		if globalHead, err = accounts.MakePageBlock(s.store, "global-head", "global", cfg.Blocks.GlobalHead, blockDate); err != nil {
			return nil, fmt.Errorf("core: global head: %w", err)
		}
	}
	if cfg.Blocks.AdWorld > 0 {
		if adWorld, err = accounts.MakePageBlock(s.store, "adworld", "ads", cfg.Blocks.AdWorld, blockDate); err != nil {
			return nil, fmt.Errorf("core: adworld: %w", err)
		}
	}
	// Per-market regional blocks, attached as clicker cover slices:
	// clickers like the shared ad-world pages, their region's pages, and
	// a pinch of the global head.
	markets := make([]platform.ClickMarket, len(cfg.Markets))
	copy(markets, cfg.Markets)
	for i := range markets {
		if len(markets[i].Cohort.Cover.Slices) > 0 || cfg.Blocks.RegionalPerMarket <= 0 {
			continue
		}
		regional, err := accounts.MakePageBlock(s.store, "regional-"+markets[i].Country, "regional", cfg.Blocks.RegionalPerMarket, blockDate)
		if err != nil {
			return nil, fmt.Errorf("core: regional block %s: %w", markets[i].Country, err)
		}
		var slices []accounts.CoverSlice
		if len(adWorld) > 0 {
			slices = append(slices, accounts.CoverSlice{Name: "adworld", Pages: adWorld, Frac: 0.45})
		}
		slices = append(slices, accounts.CoverSlice{Name: "regional", Pages: regional, Frac: 0.45})
		if len(globalHead) > 0 {
			slices = append(slices, accounts.CoverSlice{Name: "global", Pages: globalHead, Frac: 0.10})
		}
		markets[i].Cohort.Cover.Slices = slices
	}

	engine, err := platform.NewAdEngine(s.rng, s.store, pop, s.ledger, markets)
	if err != nil {
		return nil, fmt.Errorf("core: ad engine: %w", err)
	}
	s.engine = engine

	// Farm pools: farms sharing a PoolName share the cohort and usage.
	pools := make(map[string]*accounts.Cohort)
	usages := make(map[string]*farm.Usage)
	for _, fs := range cfg.Farms {
		cohort, ok := pools[fs.PoolName]
		if !ok {
			spec := fs.Pool
			if len(spec.Cover.Slices) == 0 {
				var slices []accounts.CoverSlice
				if fs.JobPortfolioSize > 0 && fs.Mix.Jobs > 0 {
					jobs, err := accounts.MakeJobPortfolio(s.store, fs.Config.Name, fs.JobPortfolioSize, blockDate)
					if err != nil {
						return nil, fmt.Errorf("core: farm %s: %w", fs.Config.Name, err)
					}
					slices = append(slices, accounts.CoverSlice{Name: "jobs", Pages: jobs, Frac: fs.Mix.Jobs})
				}
				if fs.NoiseBlockSize > 0 && fs.Mix.Noise > 0 {
					noise, err := accounts.MakePageBlock(s.store, fs.PoolName+"-noise", "noise", fs.NoiseBlockSize, blockDate)
					if err != nil {
						return nil, fmt.Errorf("core: farm %s noise: %w", fs.Config.Name, err)
					}
					slices = append(slices, accounts.CoverSlice{Name: "noise", Pages: noise, Frac: fs.Mix.Noise})
				}
				if len(globalHead) > 0 && fs.Mix.Global > 0 {
					slices = append(slices, accounts.CoverSlice{Name: "global", Pages: globalHead, Frac: fs.Mix.Global})
				}
				spec.Cover.Slices = slices
			}
			cohort, err = accounts.Build(s.rng, s.store, pop, spec)
			if err != nil {
				return nil, fmt.Errorf("core: farm pool %s: %w", fs.PoolName, err)
			}
			s.ledger.Register(cohort)
			pools[fs.PoolName] = cohort
			usages[fs.PoolName] = farm.NewUsage()
		}
		f, err := farm.New(s.rng, s.store, fs.Config, cohort, usages[fs.PoolName])
		if err != nil {
			return nil, fmt.Errorf("core: farm %s: %w", fs.Config.Name, err)
		}
		s.farms[fs.Config.Name] = f
	}
	return s, nil
}

// Store exposes the world (examples, tools, tests).
func (s *Study) Store() *socialnet.Store { return s.store }

// Population exposes the organic world.
func (s *Study) Population() *socialnet.Population { return s.pop }

// Clock exposes the virtual clock.
func (s *Study) Clock() *simclock.Clock { return s.clock }

// Farm returns a configured farm by brand name.
func (s *Study) Farm(name string) (*farm.Farm, bool) {
	f, ok := s.farms[name]
	return f, ok
}

// running is the in-flight state of one campaign. Each campaign owns a
// private event clock and an RNG stream split from the root seed, so
// its delivery and monitoring schedule is a pure function of its own
// state — the property that lets campaigns run concurrently while
// staying bit-identical to the serial path.
type running struct {
	spec    CampaignSpec
	page    socialnet.PageID
	clock   *simclock.Clock
	rng     *rand.Rand
	active  bool
	summary honeypot.Summary
}

// Run executes the full experiment: deploy, promote, monitor, sweep,
// analyze. It is deterministic given the config's seed: every phase
// runs on a bounded worker pool (StudyConfig.Workers; default one per
// CPU), and the output is bit-identical for every worker count because
// all randomness is drawn from streams split per campaign and per
// account rather than from one shared sequence.
//
// Run is RunWorld followed by Finalize; callers that persist the run
// between the two (Persist / ReopenStudy) can kill the process after
// RunWorld and finalize later — on another machine, in another process
// — with byte-identical Results.
func (s *Study) Run() (*Results, error) {
	if err := s.RunWorld(); err != nil {
		return nil, err
	}
	return s.Finalize()
}

// RunWorld executes the world-building phases: deploy the honeypot
// pages, promote and monitor every campaign, materialize cover
// histories, and run the fraud sweep. Afterwards the store holds the
// final world and the study holds the per-campaign monitor summaries;
// Finalize turns them into Results.
func (s *Study) RunWorld() error {
	workers := parallel.Workers(s.cfg.Workers)

	// Phase 1 — deploy all 13 pages at t0, as in §3 ("all campaigns
	// were launched on March 12, 2014"). Serial: page and owner IDs
	// come from shared counters and must not depend on scheduling.
	states := make([]*running, len(s.cfg.Campaigns))
	for i, cs := range s.cfg.Campaigns {
		page, _, err := honeypot.Deploy(s.store, cs.ID, s.cfg.Start)
		if err != nil {
			return fmt.Errorf("core: deploy %s: %w", cs.ID, err)
		}
		states[i] = &running{
			spec:   cs,
			page:   page,
			clock:  simclock.New(s.cfg.Start),
			rng:    stats.SplitRand(s.cfg.Seed, "campaign/"+cs.ID),
			active: true,
		}
	}

	// Phase 2 — group campaigns into promotion domains. Campaigns
	// ordering from the same farm pool share account usage state
	// (rotation, the AL/MS reuse bias), so their orders must be placed
	// in roster order; everything else is mutually independent. Each
	// domain drives its campaigns' private clocks to exhaustion;
	// deliveries from different domains interleave freely on the
	// sharded store.
	poolOf := make(map[string]string, len(s.cfg.Farms))
	for _, fs := range s.cfg.Farms {
		poolOf[fs.Config.Name] = fs.PoolName
	}
	var domains [][]int
	domainOf := make(map[string]int)
	for i, cs := range s.cfg.Campaigns {
		if cs.Kind == KindFarmOrder {
			pool := poolOf[cs.FarmName]
			if d, ok := domainOf[pool]; ok {
				domains[d] = append(domains[d], i)
				continue
			}
			domainOf[pool] = len(domains)
		}
		domains = append(domains, []int{i})
	}

	// Phase 3 — promote, monitor, and drain every campaign.
	err := parallel.ForEach(workers, len(domains), func(d int) error {
		for _, idx := range domains[d] {
			if err := s.runCampaign(states[idx]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Keep the study clock (Elapsed, examples) at the virtual end of
	// the slowest campaign, as in the single-clock engine.
	for _, st := range states {
		if st.clock.Now().After(s.clock.Now()) {
			s.clock.RunUntil(st.clock.Now())
		}
	}

	// Phase 4 — collect likers; materialize their cover histories plus
	// the baseline sample's (the crawl of §3 / Figure 4), one split
	// RNG stream per account.
	var allLikers []socialnet.UserID
	for _, st := range states {
		allLikers = append(allLikers, st.summary.Likers...)
	}
	baseline, err := analysis.BaselineSample(stats.SplitRand(s.cfg.Seed, "baseline"), s.store, s.cfg.BaselineSize)
	if err != nil {
		return fmt.Errorf("core: baseline: %w", err)
	}
	toMaterialize := append(append([]socialnet.UserID(nil), allLikers...), baseline...)
	histLikes, err := s.ledger.MaterializeSeeded(s.cfg.Seed, s.store, toMaterialize, workers)
	if err != nil {
		return fmt.Errorf("core: materialize histories: %w", err)
	}

	// Phase 5 — the month-later fraud sweep (§5): Facebook examines the
	// accounts and terminates a score-proportional few, scoring on the
	// pool with one split stream per account. TerminationStream runs
	// the same policy off live StreamScorer verdicts — one tick drains
	// the journal the campaigns just wrote, and the detect package pins
	// streaming verdicts byte-identical to the batch pass, so Results
	// are bit-equal across engines and worker counts.
	if s.cfg.Terminations == TerminationStream {
		if err := s.streamingSweep(allLikers); err != nil {
			return fmt.Errorf("core: fraud sweep: %w", err)
		}
	} else if _, err := platform.FraudSweepSeeded(s.cfg.Seed, s.store, allLikers, s.cfg.Sweep, workers); err != nil {
		return fmt.Errorf("core: fraud sweep: %w", err)
	}

	s.world = &worldState{states: states, baseline: baseline, histLikes: histLikes}
	return nil
}

// streamingSweep is phase 5 on the live detection path: a StreamScorer
// drains the journal in one tick, and its verdicts — burst features,
// score, lockstep membership — feed the same termination policy the
// batch sweep applies. The examined population is the sorted, deduped
// honeypot liker pool, exactly the set FraudSweepSeeded's batch pass
// examines; every liker must be enrolled (their honeypot like is in
// the journal the tick consumed), so a missing verdict is a bug, not a
// skip.
func (s *Study) streamingSweep(allLikers []socialnet.UserID) error {
	sc := detect.NewStreamScorer(s.store, detect.StreamScorerConfig{})
	for sc.Tick() > 0 {
	}
	uniq := append([]socialnet.UserID(nil), allLikers...)
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	n := 0
	for i, uid := range uniq {
		if i == 0 || uid != uniq[i-1] {
			uniq[n] = uid
			n++
		}
	}
	uniq = uniq[:n]
	verdicts := make([]detect.Verdict, 0, len(uniq))
	for _, uid := range uniq {
		v, ok := sc.Verdict(uid)
		if !ok {
			return fmt.Errorf("core: liker %d not enrolled in streaming scorer", uid)
		}
		verdicts = append(verdicts, v)
	}
	_, err := platform.FraudSweepVerdicts(s.cfg.Seed, s.store, verdicts, s.cfg.Sweep)
	return err
}

// Finalize computes Results from a completed world — phases 6 and 7:
// per-campaign outcomes from the monitor summaries, then the §4
// analyses. It reads only the store and the worldState, both of which
// Persist/ReopenStudy round-trip through disk, so a reopened study
// finalizes to the same bytes as the process that ran the campaigns.
func (s *Study) Finalize() (*Results, error) {
	if s.world == nil {
		return nil, errors.New("core: Finalize called before RunWorld (or reopen)")
	}
	workers := parallel.Workers(s.cfg.Workers)
	states, baseline, histLikes := s.world.states, s.world.baseline, s.world.histLikes

	// Phase 6 — per-campaign results straight from the monitor
	// summaries, fanned out on the pool. Every task writes its own
	// index, so assembly needs no locks and no ordering.
	res := &Results{
		Config: s.cfg, Baseline: baseline, HistoryLikes: histLikes,
		Campaigns: make([]CampaignResult, len(states)),
		Temporal:  make([]analysis.TemporalSeries, len(states)),
		Bursts:    make([]analysis.BurstStats, len(states)),
	}
	err := parallel.ForEach(workers, len(states), func(i int) error {
		st := states[i]
		terminated, err := platform.TerminatedAmong(s.store, st.summary.Likers)
		if err != nil {
			return err
		}
		res.Campaigns[i] = CampaignResult{
			Spec:           st.spec,
			Page:           st.page,
			Active:         st.active,
			Likes:          st.summary.TotalLikes,
			Terminated:     terminated,
			MonitoringDays: st.summary.MonitoringDays,
			Likers:         st.summary.Likers,
			Series:         st.summary.Series,
		}
		res.Temporal[i] = analysis.TemporalSeries{
			CampaignID: st.spec.ID,
			Values:     st.summary.Series,
		}
		res.Bursts[i] = analysis.Burstiness(res.Temporal[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	aCampaigns := make([]analysis.Campaign, len(states))
	roster := make([]analysis.CrawlCampaign, len(states))
	for i, st := range states {
		aCampaigns[i] = analysis.Campaign{
			ID:       st.spec.ID,
			Provider: st.spec.Provider,
			Page:     st.page,
			Likers:   st.summary.Likers,
			Active:   st.active,
		}
		roster[i] = analysis.CrawlCampaign{ID: st.spec.ID, Page: st.page, Active: st.active}
	}

	// Phase 7 — the §4 analyses. The tables come from the crawl
	// aggregator family, fed from the store by one serial in-process
	// crawl (the family an HTTP crawl, its checkpoints and shard merges
	// use too); the graph analyses, which read the friendship graph,
	// run alongside on the pool. Tasks write disjoint Results fields,
	// and the aggregators are order-insensitive folds, so output is
	// bit-identical for every worker and shard count.
	res.Groups = analysis.AssignGroups(aCampaigns, FarmAuthenticLikes, FarmMammothSocials)
	analyzer := analysis.NewCrawlAnalyzer(roster, baseline)
	base := s.store.FriendGraph()
	err = parallel.Tasks(workers,
		func() error {
			var err error
			res.Table3, err = analysis.SocialGraphTable(s.store, res.Groups, base)
			return err
		},
		func() error {
			direct, twoHop := analysis.LikerGraphs(res.Groups, base)
			res.DirectCensus = analysis.CensusByProvider(res.Groups, direct)
			res.TwoHopCensus = analysis.CensusByProvider(res.Groups, twoHop)
			res.CrossEdges = analysis.CrossProviderEdges(res.Groups, direct)
			return nil
		},
		func() error { return analyzer.ObserveStore(s.store) },
	)
	if err != nil {
		return nil, err
	}
	tables, err := analyzer.Tables()
	if err != nil {
		return nil, err
	}
	res.Geo, res.Demo, res.Windows, res.CDFs = tables.Geo, tables.Demo, tables.Windows, tables.CDFs
	res.PageSim, res.UserSim = tables.PageSim, tables.UserSim
	// Likes each honeypot page lost to the termination sweep.
	res.RemovedLikes = make(map[string]int, len(states))
	for _, st := range states {
		res.RemovedLikes[st.spec.ID] = s.store.LikeCountOfPage(st.page) - s.store.ActiveLikeCountOfPage(st.page)
	}

	// Journal accounting: total ingest plus per-campaign stream stats.
	res.Journal = JournalStats{
		TotalEvents: s.store.Journal().Len(),
		Campaigns:   make(map[string]CampaignJournalStats, len(states)),
	}
	for _, st := range states {
		res.Journal.Campaigns[st.spec.ID] = CampaignJournalStats{
			Events: st.summary.Events,
			Cursor: st.summary.Cursor,
		}
	}
	return res, nil
}

// runCampaign promotes one campaign on its private clock, monitors the
// page on the §3 cadence, and drains the clock to the end of
// monitoring. It runs on the study's worker pool; everything it touches
// is either campaign-private (clock, RNG stream, monitor), striped
// (store), or — for same-pool farm orders — serialized by the domain
// grouping in Run.
func (s *Study) runCampaign(st *running) error {
	cs := st.spec
	switch cs.Kind {
	case KindFacebookAds:
		err := s.engine.LaunchSeeded(st.clock, st.rng, platform.AdCampaign{
			Page:          st.page,
			TargetCountry: cs.TargetCountry,
			BudgetPerDay:  cs.BudgetPerDay,
			DurationDays:  cs.DurationDays,
		})
		if err != nil {
			return fmt.Errorf("core: launch %s: %w", cs.ID, err)
		}
	case KindFarmOrder:
		f := s.farms[cs.FarmName]
		order := cs.Order
		order.Campaign = cs.ID
		order.Page = st.page
		err := f.PlaceOrderSeeded(st.clock, st.rng, order)
		if errors.Is(err, farm.ErrInactive) {
			st.active = false
		} else if err != nil {
			return fmt.Errorf("core: order %s: %w", cs.ID, err)
		}
	}
	mcfg := honeypot.DefaultMonitorConfig(cs.DurationDays)
	if s.cfg.MonitorActiveInterval > 0 {
		mcfg.ActiveInterval = s.cfg.MonitorActiveInterval
	}
	mon, err := honeypot.StartMonitor(st.clock, s.store, st.page, mcfg)
	if err != nil {
		return fmt.Errorf("core: monitor %s: %w", cs.ID, err)
	}
	st.clock.Drain(0)
	// Figure 2 plots all campaigns on a common 15-day axis.
	days := 15
	if cs.DurationDays > days {
		days = cs.DurationDays
	}
	st.summary = mon.Summarize(st.clock.Now(), days)
	return nil
}

// RunDefault builds and runs the default 13-campaign study.
func RunDefault(seed int64) (*Results, error) {
	s, err := NewStudy(DefaultConfig(seed))
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Elapsed returns the virtual time since study start.
func (s *Study) Elapsed() time.Duration { return s.clock.Now().Sub(s.cfg.Start) }
