// Package core is the end-to-end driver of the reproduction: it builds
// the simulated world, deploys the paper's thirteen honeypot pages,
// promotes five via page-like ads and eight via four like farms, monitors
// them on the §3 cadence, runs the month-later fraud sweep, and produces
// every table and figure of the evaluation (§4–5).
package core

import (
	"fmt"
	"time"

	"repro/internal/accounts"
	"repro/internal/farm"
	"repro/internal/platform"
	"repro/internal/socialnet"
	"repro/internal/stats"
)

// CampaignKind distinguishes the two promotion methods.
type CampaignKind int

// Promotion methods.
const (
	KindFacebookAds CampaignKind = iota
	KindFarmOrder
)

// CampaignSpec is one row of Table 1's roster.
type CampaignSpec struct {
	// ID is the paper's label, e.g. "FB-USA", "SF-ALL".
	ID string
	// Provider is the promotion channel for display and grouping.
	Provider string
	// Description and Location and BudgetText mirror Table 1's columns.
	Description string
	Location    string
	BudgetText  string
	// DurationDays is the advertised campaign duration.
	DurationDays int

	Kind CampaignKind

	// Facebook ads parameters.
	TargetCountry string // "" = worldwide
	BudgetPerDay  float64

	// Farm order parameters.
	FarmName string
	Order    farm.Order
}

// CoverMix sets how a farm pool's cover likes split across page blocks:
// the farm's own job portfolio, a farm-private noise block, and the
// shared global head (the only page overlap with other channels).
type CoverMix struct {
	Jobs   float64
	Noise  float64
	Global float64
}

// FarmSetup couples a farm brand with its account pool. Farms listing
// the same PoolName share one cohort and one usage tracker (the AL/MS
// same-operator scenario).
type FarmSetup struct {
	Config   farm.Config
	PoolName string
	Pool     accounts.CohortSpec // used by the first farm naming the pool
	// JobPortfolioSize is the farm's customer-page catalog feeding its
	// accounts' cover likes; NoiseBlockSize is the farm-private block.
	JobPortfolioSize int
	NoiseBlockSize   int
	Mix              CoverMix
}

// PageBlocksSpec sizes the shared page-universe blocks.
type PageBlocksSpec struct {
	// GlobalHead is the slice of hugely popular pages everyone likes a
	// little of — the cross-channel overlap floor in Figure 5(a).
	GlobalHead int
	// AdWorld is the block of ad-buying pages shared by all click
	// markets — why the FB campaigns resemble each other in 5(a).
	AdWorld int
	// RegionalPerMarket is the per-country page block size.
	RegionalPerMarket int
}

// StudyConfig is the full experiment configuration.
type StudyConfig struct {
	Seed  int64
	Start time.Time

	Population socialnet.PopulationSpec
	Markets    []platform.ClickMarket
	Farms      []FarmSetup
	Campaigns  []CampaignSpec

	// Blocks sizes the shared page-universe blocks.
	Blocks PageBlocksSpec

	// BaselineSize is the Figure 4 organic sample size (paper: 2000).
	BaselineSize int

	// Sweep configures the month-later termination pass; SweepDelayDays
	// is measured from Start.
	Sweep          platform.FraudSweepConfig
	SweepDelayDays int

	// MonitorActiveInterval/sweep cadence follow the paper unless
	// overridden here (zero values = paper defaults).
	MonitorActiveInterval time.Duration

	// Workers bounds the study engine's worker pool: campaign
	// simulation, history materialization, the fraud sweep, and the §4
	// analyses all run on it. 0 (the default) means one worker per
	// logical CPU; 1 runs the whole study serially. Results are
	// bit-identical for every worker count — each campaign and each
	// account draws from its own RNG stream split from Seed.
	Workers int

	// Terminations selects the fraud-sweep verdict engine for phase 5.
	// The default (TerminationBatch) scores the likers with the batch
	// verdict pass; TerminationStream drives the same termination
	// policy off a live StreamScorer tick over the journal — the
	// production deployment's path — and produces byte-identical
	// Results (the detect package pins the two engines' verdicts equal,
	// and each account's termination coin comes from its own split
	// stream).
	Terminations string
}

// Termination engine modes for StudyConfig.Terminations.
const (
	TerminationBatch  = ""
	TerminationStream = "stream"
)

// StudyStart is the paper's campaign launch date (§3).
var StudyStart = time.Date(2014, 3, 12, 0, 0, 0, 0, time.UTC)

// Validate checks cross-references in the configuration.
func (c *StudyConfig) Validate() error {
	if len(c.Campaigns) == 0 {
		return fmt.Errorf("core: no campaigns configured")
	}
	farms := make(map[string]bool)
	for _, f := range c.Farms {
		if farms[f.Config.Name] {
			return fmt.Errorf("core: duplicate farm %s", f.Config.Name)
		}
		farms[f.Config.Name] = true
	}
	seen := make(map[string]bool)
	for _, cs := range c.Campaigns {
		if cs.ID == "" {
			return fmt.Errorf("core: campaign without ID")
		}
		if seen[cs.ID] {
			return fmt.Errorf("core: duplicate campaign %s", cs.ID)
		}
		seen[cs.ID] = true
		switch cs.Kind {
		case KindFacebookAds:
			if cs.BudgetPerDay <= 0 {
				return fmt.Errorf("core: campaign %s has no budget", cs.ID)
			}
		case KindFarmOrder:
			if !farms[cs.FarmName] {
				return fmt.Errorf("core: campaign %s references unknown farm %q", cs.ID, cs.FarmName)
			}
		default:
			return fmt.Errorf("core: campaign %s has unknown kind %d", cs.ID, cs.Kind)
		}
		if cs.DurationDays < 1 {
			return fmt.Errorf("core: campaign %s duration %d must be >=1", cs.ID, cs.DurationDays)
		}
	}
	if c.BaselineSize < 1 {
		return fmt.Errorf("core: baseline size %d must be >=1", c.BaselineSize)
	}
	if c.SweepDelayDays < 1 {
		return fmt.Errorf("core: sweep delay %d days must be >=1", c.SweepDelayDays)
	}
	if c.Terminations != TerminationBatch && c.Terminations != TerminationStream {
		return fmt.Errorf("core: unknown termination mode %q", c.Terminations)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: workers %d must be >=0", c.Workers)
	}
	return nil
}

// Farm brand names used throughout.
const (
	FarmBoostLikes     = "BoostLikes.com"
	FarmSocialFormula  = "SocialFormula.com"
	FarmAuthenticLikes = "AuthenticLikes.com"
	FarmMammothSocials = "MammothSocials.com"
)

// DefaultConfig returns the full 13-campaign reproduction of Table 1,
// calibrated so the shape of every published table and figure holds.
func DefaultConfig(seed int64) StudyConfig {
	start := StudyStart
	pop := socialnet.DefaultPopulationSpec()
	pop.NumAmbientPages = 12000
	pop.PageZipfS = 1.05

	fixed := func(country string) *stats.Categorical {
		return stats.MustCategorical([]string{country}, []float64{1})
	}

	cfg := StudyConfig{
		Seed:       seed,
		Start:      start,
		Population: pop,
		Markets:    platform.DefaultMarkets(start.AddDate(-2, 0, 0)),
		Blocks: PageBlocksSpec{
			GlobalHead:        3000,
			AdWorld:           8000,
			RegionalPerMarket: 8000,
		},
		BaselineSize:   2000,
		Sweep:          platform.DefaultFraudSweepConfig(),
		SweepDelayDays: 45, // campaigns ran 15 days; checked a month later
	}

	created := start.AddDate(-1, -6, 0)

	// BoostLikes: the stealth farm. One well-connected Watts–Strogatz
	// core, high-friend profiles (median 850), tiny like footprints
	// (median 63), steady trickle delivery.
	cfg.Farms = append(cfg.Farms, FarmSetup{
		Config: farm.Config{
			Name:           FarmBoostLikes,
			Mode:           farm.ModeTrickle,
			RotateAccounts: true,
		},
		PoolName: "bl",
		Pool: accounts.CohortSpec{
			Name: "bl-pool", Size: 1400,
			Kind:       socialnet.KindFarmStealth,
			Operator:   FarmBoostLikes,
			CountryMix: fixed(socialnet.CountryUSA),
			Profile: &socialnet.Profile{
				FemaleFrac: 0.53,
				AgeWeights: [6]float64{34.2, 54.5, 8.8, 1.5, 0.7, 0.5},
			},
			FriendsPublicFrac: 0.259,
			SearchableFrac:    0.05,
			Topology: accounts.TopologySpec{
				Kind:             accounts.TopologyCore,
				CoreK:            4,
				CoreBeta:         0.15,
				HubCount:         350,
				HubLinksMean:     2.0,
				OrganicLinksMean: 0.2,
				DeclaredMedian:   850,
				DeclaredSigma:    0.8,
			},
			Cover: accounts.CoverSpec{
				LikeMedian: 63, LikeSigma: 1.0, MaxLikes: 2000,
				Bursty: false,
			},
			CreatedAt: created,
		},
		JobPortfolioSize: 120,
		NoiseBlockSize:   3000,
		Mix:              CoverMix{Jobs: 0.10, Noise: 0.75, Global: 0.15},
	})

	// SocialFormula: Turkish bot pool, ignores targeting, delivers in
	// bursts, rotates accounts between orders.
	cfg.Farms = append(cfg.Farms, FarmSetup{
		Config: farm.Config{
			Name:            FarmSocialFormula,
			Mode:            farm.ModeBurst,
			IgnoreTargeting: true,
			RotateAccounts:  true,
		},
		PoolName: "sf",
		Pool: accounts.CohortSpec{
			Name: "sf-pool", Size: 1800,
			Kind:     socialnet.KindFarmBot,
			Operator: FarmSocialFormula,
			CountryMix: stats.MustCategorical(
				[]string{socialnet.CountryTurkey, socialnet.CountryOther},
				[]float64{0.93, 0.07},
			),
			// Near-global demographics: SF's KL in Table 2 is 0.04.
			Profile: &socialnet.Profile{
				FemaleFrac: 0.37,
				AgeWeights: [6]float64{19.8, 33.3, 21.0, 15.2, 7.2, 2.8},
			},
			FriendsPublicFrac: 0.58,
			SearchableFrac:    0.05,
			Topology: accounts.TopologySpec{
				Kind:             accounts.TopologyIslands,
				InternalPairFrac: 0.062,
				TripletFrac:      0.25,
				HubCount:         500,
				HubLinksMean:     0.6,
				OrganicLinksMean: 0.05,
				DeclaredMedian:   155,
				DeclaredSigma:    0.9,
			},
			Cover: accounts.CoverSpec{
				LikeMedian: 1500, LikeSigma: 0.8, MaxLikes: 6000,
				Bursty: true,
			},
			CreatedAt: created,
		},
		JobPortfolioSize: 2500,
		NoiseBlockSize:   5000,
		Mix:              CoverMix{Jobs: 0.70, Noise: 0.25, Global: 0.05},
	})

	// AuthenticLikes + MammothSocials: one operator, one pool. The pool
	// mixes padded accounts with bare ones; MS orders are served from
	// the cheap stratum (ALMS median 46 friends in Table 3).
	almsPool := accounts.CohortSpec{
		Name: "alms-pool", Size: 3300,
		Kind:     socialnet.KindFarmBot,
		Operator: "ALMS-operator",
		CountryMix: stats.MustCategorical(
			[]string{socialnet.CountryUSA, socialnet.CountryOther, socialnet.CountryIndia, socialnet.CountryEgypt},
			[]float64{0.62, 0.20, 0.10, 0.08},
		),
		Profile: &socialnet.Profile{
			FemaleFrac: 0.34,
			AgeWeights: [6]float64{11, 47, 26, 9, 4, 3},
		},
		FriendsPublicFrac: 0.45,
		SearchableFrac:    0.05,
		Topology: accounts.TopologySpec{
			Kind:             accounts.TopologyIslands,
			InternalPairFrac: 0.055,
			TripletFrac:      0.3,
			HubCount:         600,
			HubLinksMean:     0.55,
			OrganicLinksMean: 0.05,
			DeclaredMedian:   550,
			DeclaredSigma:    1.0,
			DeclaredMedian2:  45,
			DeclaredFrac2:    0.4,
		},
		Cover: accounts.CoverSpec{
			LikeMedian: 1300, LikeSigma: 0.8, MaxLikes: 6000,
			Bursty: true,
		},
		CreatedAt: created,
	}
	cfg.Farms = append(cfg.Farms, FarmSetup{
		Config: farm.Config{
			Name:           FarmAuthenticLikes,
			Mode:           farm.ModeBurst,
			RotateAccounts: true,
		},
		PoolName:         "alms",
		Pool:             almsPool,
		JobPortfolioSize: 2200,
		NoiseBlockSize:   5000,
		Mix:              CoverMix{Jobs: 0.70, Noise: 0.25, Global: 0.05},
	})
	cfg.Farms = append(cfg.Farms, FarmSetup{
		Config: farm.Config{
			Name:           FarmMammothSocials,
			Mode:           farm.ModeBurst,
			RotateAccounts: true,
		},
		PoolName: "alms", // same operator, same pool
	})

	day := 24 * time.Hour
	cfg.Campaigns = []CampaignSpec{
		// --- Facebook page-like ad campaigns ($6/day, 15 days). ---
		{
			ID: "FB-USA", Provider: "Facebook.com", Description: "Page like ads",
			Location: "USA", BudgetText: "$6/day", DurationDays: 15,
			Kind: KindFacebookAds, TargetCountry: socialnet.CountryUSA, BudgetPerDay: 6,
		},
		{
			ID: "FB-FRA", Provider: "Facebook.com", Description: "Page like ads",
			Location: "France", BudgetText: "$6/day", DurationDays: 15,
			Kind: KindFacebookAds, TargetCountry: socialnet.CountryFrance, BudgetPerDay: 6,
		},
		{
			ID: "FB-IND", Provider: "Facebook.com", Description: "Page like ads",
			Location: "India", BudgetText: "$6/day", DurationDays: 15,
			Kind: KindFacebookAds, TargetCountry: socialnet.CountryIndia, BudgetPerDay: 6,
		},
		{
			ID: "FB-EGY", Provider: "Facebook.com", Description: "Page like ads",
			Location: "Egypt", BudgetText: "$6/day", DurationDays: 15,
			Kind: KindFacebookAds, TargetCountry: socialnet.CountryEgypt, BudgetPerDay: 6,
		},
		{
			ID: "FB-ALL", Provider: "Facebook.com", Description: "Page like ads",
			Location: "Worldwide", BudgetText: "$6/day", DurationDays: 15,
			Kind: KindFacebookAds, TargetCountry: "", BudgetPerDay: 6,
		},
		// --- Like farm orders. ---
		{
			ID: "BL-ALL", Provider: FarmBoostLikes, Description: "1000 likes",
			Location: "Worldwide", BudgetText: "$70.00", DurationDays: 15,
			Kind: KindFarmOrder, FarmName: FarmBoostLikes,
			Order: farm.Order{Quantity: 1000, DurationDays: 15, Inactive: true},
		},
		{
			ID: "BL-USA", Provider: FarmBoostLikes, Description: "1000 likes",
			Location: "USA only", BudgetText: "$190.00", DurationDays: 15,
			Kind: KindFarmOrder, FarmName: FarmBoostLikes,
			Order: farm.Order{
				Quantity: 1000, DeliverCount: 621, DurationDays: 15,
				TargetCountry: socialnet.CountryUSA,
			},
		},
		{
			ID: "SF-ALL", Provider: FarmSocialFormula, Description: "1000 likes",
			Location: "Worldwide", BudgetText: "$14.99", DurationDays: 3,
			Kind: KindFarmOrder, FarmName: FarmSocialFormula,
			Order: farm.Order{
				Quantity: 1000, DeliverCount: 984, DurationDays: 3, Bursts: 2,
			},
		},
		{
			ID: "SF-USA", Provider: FarmSocialFormula, Description: "1000 likes",
			Location: "USA", BudgetText: "$69.99", DurationDays: 3,
			Kind: KindFarmOrder, FarmName: FarmSocialFormula,
			Order: farm.Order{
				Quantity: 1000, DeliverCount: 738, DurationDays: 3, Bursts: 2,
				TargetCountry: socialnet.CountryUSA, // ignored by SF
				ReuseBias:     0.1,
			},
		},
		{
			ID: "AL-ALL", Provider: FarmAuthenticLikes, Description: "1000 likes",
			Location: "Worldwide", BudgetText: "$49.95", DurationDays: 4,
			Kind: KindFarmOrder, FarmName: FarmAuthenticLikes,
			Order: farm.Order{
				Quantity: 1000, DeliverCount: 755, DurationDays: 4, Bursts: 1,
				StartDelay: day, // the day-2 burst of 700+ profiles in 4 hours
			},
		},
		{
			ID: "AL-USA", Provider: FarmAuthenticLikes, Description: "1000 likes",
			Location: "USA", BudgetText: "$59.95", DurationDays: 5,
			Kind: KindFarmOrder, FarmName: FarmAuthenticLikes,
			Order: farm.Order{
				Quantity: 1000, DeliverCount: 1038, DurationDays: 5, Bursts: 3,
				TargetCountry:   socialnet.CountryUSA,
				BurstSpreadDays: 13, // monitored 22 days: likes kept landing
			},
		},
		{
			ID: "MS-ALL", Provider: FarmMammothSocials, Description: "1000 likes",
			Location: "Worldwide", BudgetText: "$20.00", DurationDays: 12,
			Kind: KindFarmOrder, FarmName: FarmMammothSocials,
			Order: farm.Order{Quantity: 1000, DurationDays: 12, Inactive: true},
		},
		{
			ID: "MS-USA", Provider: FarmMammothSocials, Description: "1000 likes",
			Location: "USA only", BudgetText: "$95.00", DurationDays: 12,
			Kind: KindFarmOrder, FarmName: FarmMammothSocials,
			Order: farm.Order{
				Quantity: 1000, DeliverCount: 317, DurationDays: 12, Bursts: 2,
				TargetCountry:   socialnet.CountryUSA,
				BurstSpreadDays: 4,
				ReuseBias:       0.65, // reuse AL's accounts -> ALMS group
				BiasLowFriends:  true,
			},
		},
	}
	return cfg
}

// ScaledConfig returns the default configuration with every population,
// pool, block, and order size multiplied by scale (0 < scale <= 1). It
// keeps the study's structure — all 13 campaigns, both promotion
// channels, both farm strategies — while letting tests and examples run
// in a fraction of the time.
func ScaledConfig(seed int64, scale float64) (StudyConfig, error) {
	if scale <= 0 || scale > 1 {
		return StudyConfig{}, fmt.Errorf("core: scale %v out of (0,1]", scale)
	}
	cfg := DefaultConfig(seed)
	scaleInt := func(n int, min int) int {
		v := int(float64(n) * scale)
		if v < min {
			v = min
		}
		return v
	}
	cfg.Population.NumUsers = scaleInt(cfg.Population.NumUsers, 200)
	cfg.Population.NumAmbientPages = scaleInt(cfg.Population.NumAmbientPages, 300)
	cfg.Blocks.GlobalHead = scaleInt(cfg.Blocks.GlobalHead, 100)
	cfg.Blocks.AdWorld = scaleInt(cfg.Blocks.AdWorld, 200)
	cfg.Blocks.RegionalPerMarket = scaleInt(cfg.Blocks.RegionalPerMarket, 200)
	cfg.BaselineSize = scaleInt(cfg.BaselineSize, 50)
	for i := range cfg.Markets {
		m := &cfg.Markets[i]
		m.Cohort.Size = scaleInt(m.Cohort.Size, 60)
		m.Cohort.Topology.HubCount = scaleInt(m.Cohort.Topology.HubCount, 8)
		// Cheaper likes shrink proportionally so like counts scale too.
		m.CostPerLike /= scale
		m.Cohort.Cover.LikeMedian *= scale
		if m.Cohort.Cover.LikeMedian < 20 {
			m.Cohort.Cover.LikeMedian = 20
		}
	}
	for i := range cfg.Farms {
		f := &cfg.Farms[i]
		if f.Pool.Size > 0 {
			f.Pool.Size = scaleInt(f.Pool.Size, 80)
			f.Pool.Topology.HubCount = scaleInt(f.Pool.Topology.HubCount, 8)
			f.Pool.Cover.LikeMedian *= scale
			if f.Pool.Cover.LikeMedian < 15 {
				f.Pool.Cover.LikeMedian = 15
			}
		}
		if f.JobPortfolioSize > 0 {
			f.JobPortfolioSize = scaleInt(f.JobPortfolioSize, 40)
		}
		if f.NoiseBlockSize > 0 {
			f.NoiseBlockSize = scaleInt(f.NoiseBlockSize, 60)
		}
	}
	for i := range cfg.Campaigns {
		cs := &cfg.Campaigns[i]
		if cs.Kind == KindFarmOrder {
			cs.Order.Quantity = scaleInt(cs.Order.Quantity, 10)
			if cs.Order.DeliverCount > 0 {
				cs.Order.DeliverCount = scaleInt(cs.Order.DeliverCount, 10)
			}
		}
	}
	return cfg, nil
}

// RosterOrder returns the campaign IDs in Table 1 order.
func (c *StudyConfig) RosterOrder() []string {
	out := make([]string, len(c.Campaigns))
	for i, cs := range c.Campaigns {
		out[i] = cs.ID
	}
	return out
}
