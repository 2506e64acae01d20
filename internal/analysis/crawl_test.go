package analysis

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/socialnet"
)

// crawlFixture builds a two-campaign roster (plus one inactive) and a
// set of profiles with the AL/MS-style shared likers.
func crawlFixture() (campaigns []CrawlCampaign, profiles []CrawlProfile, likes []struct {
	Page socialnet.PageID
	User socialnet.UserID
	At   time.Time
}) {
	campaigns = []CrawlCampaign{
		{ID: "A", Page: 100, Active: true},
		{ID: "B", Page: 101, Active: true},
		{ID: "DEAD", Page: 102, Active: false},
	}
	base := time.Date(2014, 3, 12, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 12; i++ {
		p := CrawlProfile{
			User:    socialnet.UserID(i),
			Gender:  socialnet.GenderFemale,
			Age:     socialnet.Age18to24,
			Country: "USA",
			// Everyone likes A and two cover pages; every third liker
			// also likes B (the shared-liker overlap).
			PageLikes: []socialnet.PageID{100, socialnet.PageID(200 + i), socialnet.PageID(300 + i%4)},
		}
		if i%2 == 0 {
			p.Gender = socialnet.GenderMale
			p.Age = socialnet.Age25to34
			p.Country = "India"
		}
		likes = append(likes, struct {
			Page socialnet.PageID
			User socialnet.UserID
			At   time.Time
		}{100, p.User, base.Add(time.Duration(i) * time.Minute)})
		if i%3 == 0 {
			p.PageLikes = append(p.PageLikes, 101)
			likes = append(likes, struct {
				Page socialnet.PageID
				User socialnet.UserID
				At   time.Time
			}{101, p.User, base.Add(time.Duration(i)*time.Minute + 30*time.Second)})
		}
		profiles = append(profiles, p)
	}
	return campaigns, profiles, likes
}

// runAnalyzer folds the fixture into a fresh analyzer, optionally
// snapshotting at snapAt observations and resuming into a second
// analyzer (snapAt < 0 runs uninterrupted).
func runAnalyzer(t *testing.T, snapAt int) CrawlTables {
	t.Helper()
	campaigns, profiles, likes := crawlFixture()
	a := NewCrawlAnalyzer(campaigns, []socialnet.UserID{3, 7})
	feedProfile := func(an *CrawlAnalyzer, p CrawlProfile) {
		for _, agg := range an.Aggregators() {
			agg.ObserveProfile(p)
		}
	}
	feedLike := func(an *CrawlAnalyzer, pg socialnet.PageID, u socialnet.UserID, at time.Time) {
		for _, agg := range an.Aggregators() {
			agg.ObserveLike(pg, u, at)
		}
	}
	seen := 0
	for _, lk := range likes {
		feedLike(a, lk.Page, lk.User, lk.At)
	}
	for i, p := range profiles {
		if snapAt >= 0 && seen == snapAt {
			// Snapshot every aggregator, restore into a fresh family,
			// and continue there — the checkpoint/resume boundary.
			b := NewCrawlAnalyzer(campaigns, []socialnet.UserID{3, 7})
			for j, agg := range a.Aggregators() {
				st, err := agg.State()
				if err != nil {
					t.Fatal(err)
				}
				if err := b.Aggregators()[j].Restore(st); err != nil {
					t.Fatal(err)
				}
			}
			a = b
		}
		seen++
		_ = i
		feedProfile(a, p)
	}
	tables, err := a.Tables()
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

// TestCrawlAggregatorsAttributeSharedLikers: a profile liking two
// campaign pages counts toward both campaigns, even though the
// pipeline emits each profile exactly once.
func TestCrawlAggregatorsAttributeSharedLikers(t *testing.T) {
	tables := runAnalyzer(t, -1)
	if len(tables.Geo) != 2 {
		t.Fatalf("geo rows = %d, want 2 (inactive campaign skipped)", len(tables.Geo))
	}
	if tables.Geo[0].Total != 12 {
		t.Fatalf("campaign A total = %d, want 12", tables.Geo[0].Total)
	}
	if tables.Geo[1].Total != 4 {
		t.Fatalf("campaign B total = %d, want 4 (users 0,3,6,9)", tables.Geo[1].Total)
	}
	if tables.Demo[1].N != 4 {
		t.Fatalf("campaign B demo N = %d, want 4", tables.Demo[1].N)
	}
	// Windows cover all three campaigns, the inactive one empty.
	if len(tables.Windows) != 3 || tables.Windows[2].Total != 0 {
		t.Fatalf("windows = %+v, want 3 rows with empty DEAD", tables.Windows)
	}
	if tables.Windows[0].Total != 12 || tables.Windows[1].Total != 4 {
		t.Fatalf("window totals = %d/%d, want 12/4", tables.Windows[0].Total, tables.Windows[1].Total)
	}
	// CDF rows: A, B, Facebook (baseline users 3 and 7 were observed
	// as campaign likers, so their counts exist).
	if len(tables.CDFs) != 3 || tables.CDFs[2].CampaignID != "Facebook" {
		t.Fatalf("CDF rows = %+v, want A, B, Facebook", tables.CDFs)
	}
	if n := tables.CDFs[2].N; n != 2 {
		t.Fatalf("baseline N = %d, want 2", n)
	}
	// Jaccard: inactive row is zero, diagonal 100 for active.
	if tables.PageSim[2][2] != 0 || tables.PageSim[0][0] != 100 {
		t.Fatalf("pageSim diagonal = %v", tables.PageSim)
	}
	if tables.UserSim[0][1] == 0 {
		t.Fatal("shared likers produced zero user similarity")
	}
}

// TestCrawlAggregatorStateRoundTrip: snapshotting mid-stream and
// resuming into a fresh aggregator family yields byte-identical tables
// for every split point — the property that lets aggregator state ride
// the crawl checkpoint.
func TestCrawlAggregatorStateRoundTrip(t *testing.T) {
	want, err := mustTables(runAnalyzer(t, -1))
	if err != nil {
		t.Fatal(err)
	}
	for snapAt := 0; snapAt <= 12; snapAt++ {
		got, err := mustTables(runAnalyzer(t, snapAt))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("split at %d diverges:\n%s\nvs\n%s", snapAt, got, want)
		}
	}
}

func mustTables(t CrawlTables) ([]byte, error) { return t.MarshalStable() }

// TestCrawlAggregatorRestoreRejectsMismatch: state from a different
// roster size is refused rather than silently misapplied.
func TestCrawlAggregatorRestoreRejectsMismatch(t *testing.T) {
	campaigns, _, _ := crawlFixture()
	a := NewCrawlAnalyzer(campaigns, nil)
	small := NewCrawlAnalyzer(campaigns[:1], nil)
	for i, agg := range a.Aggregators() {
		st, err := agg.State()
		if err != nil {
			t.Fatal(err)
		}
		if err := small.Aggregators()[i].Restore(st); err == nil {
			t.Fatalf("aggregator %d accepted state for a different roster", i)
		}
	}
}

// TestCrawlStateSurvivesFinalize: Finalize must not destroy
// observe-state — the crawl writes its FINAL checkpoint after tables
// may already have been produced, and a resume from that checkpoint
// re-finalizes. (Regression: geoRowFrom used to normalize the counts
// map in place, so a post-finalize snapshot held percentages that a
// resumed finalize re-normalized.)
func TestCrawlStateSurvivesFinalize(t *testing.T) {
	campaigns, profiles, likes := crawlFixture()
	a := NewCrawlAnalyzer(campaigns, nil)
	for _, lk := range likes {
		for _, agg := range a.Aggregators() {
			agg.ObserveLike(lk.Page, lk.User, lk.At)
		}
	}
	for _, p := range profiles {
		for _, agg := range a.Aggregators() {
			agg.ObserveProfile(p)
		}
	}
	first, err := a.Tables()
	if err != nil {
		t.Fatal(err)
	}
	want, err := first.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot AFTER finalize, restore, finalize again.
	b := NewCrawlAnalyzer(campaigns, nil)
	for i, agg := range a.Aggregators() {
		st, err := agg.State()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Aggregators()[i].Restore(st); err != nil {
			t.Fatal(err)
		}
	}
	second, err := b.Tables()
	if err != nil {
		t.Fatal(err)
	}
	got, err := second.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-finalize snapshot diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestCrawlAggregatorRestoreRejectsCorruptState: Restore decodes
// checkpoint files and shard exports, so hostile bytes must surface as
// errors — never as a panic — both directly and through MergeState.
func TestCrawlAggregatorRestoreRejectsCorruptState(t *testing.T) {
	roster := []CrawlCampaign{{ID: "A", Page: 100, Active: true}}
	for _, tc := range []struct {
		name  string
		state string
	}{
		{"negative page", `{"pages":[[-5]],"users":[[]]}`},
		{"negative page after valid", `{"pages":[[3,-1]],"users":[[1]]}`},
		{"not json", `{"pages":`},
		{"page above the ceiling", `{"pages":[[1,1099511627776]],"users":[[1]]}`},
	} {
		if err := NewCrawlJaccardAggregator(roster).Restore([]byte(tc.state)); err == nil {
			t.Errorf("%s: Restore accepted %s", tc.name, tc.state)
		}
		if err := NewCrawlJaccardAggregator(roster).MergeState([]byte(tc.state)); err == nil {
			t.Errorf("%s: MergeState accepted %s", tc.name, tc.state)
		}
	}
}

// TestCrawlJaccardRestoreHugePageFailsFast: the dense page bitmap is
// sized by the largest listed page ID, so a state naming page 2^40
// must be refused before anything is sized by it.
func TestCrawlJaccardRestoreHugePageFailsFast(t *testing.T) {
	roster := []CrawlCampaign{{ID: "A", Page: 100, Active: true}}
	state := []byte(`{"pages":[[3,1099511627776]],"users":[[1]]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := NewCrawlJaccardAggregator(roster).Restore(state)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Restore accepted page 2^40")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing page 2^40 allocated %d bytes, want under 1 MiB", grew)
	}
}
