package analysis

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/socialnet"
)

var st0 = time.Date(2014, 3, 12, 0, 0, 0, 0, time.UTC)

// buildStreamWorld fills a store with a deterministic multi-campaign
// world: demographically varied likers, two honeypot campaigns plus an
// inactive one, ambient history likes, and a few terminated accounts.
// The like writes run on `writers` concurrent goroutines, the
// multi-writer ones in reverse user order with histories first, so
// user and page append orders differ between runs while the world's
// contents do not. Returns the campaigns and the baseline sample.
func buildStreamWorld(t *testing.T, st *socialnet.Store, writers int) ([]Campaign, []socialnet.UserID) {
	t.Helper()
	r := rand.New(rand.NewSource(77))
	countries := []string{socialnet.CountryUSA, socialnet.CountryIndia, "Nowhere", socialnet.CountryTurkey}

	var users []socialnet.UserID
	for i := 0; i < 120; i++ {
		users = append(users, st.AddUser(socialnet.User{
			Gender:     socialnet.Gender(i % 3),
			Age:        socialnet.AgeBracket(i % 6),
			Country:    countries[i%len(countries)],
			Searchable: true,
		}))
	}
	var ambient []socialnet.PageID
	for i := 0; i < 30; i++ {
		p, err := st.AddPage(socialnet.Page{Name: "ambient", Category: "ambient"})
		if err != nil {
			t.Fatal(err)
		}
		ambient = append(ambient, p)
	}
	pageA, _ := st.AddPage(socialnet.Page{Name: "hp-A", Honeypot: true})
	pageB, _ := st.AddPage(socialnet.Page{Name: "hp-B", Honeypot: true})
	pageC, _ := st.AddPage(socialnet.Page{Name: "hp-C", Honeypot: true})

	// Each user's writes, planned serially so the world's contents are
	// independent of the writer count: campaign A likes for the first
	// 60 users, campaign B for users 40..100 (the overlap with A drives
	// the Jaccard liker similarity), and an ambient cover history of
	// distinct pages for everyone.
	type plan struct {
		campaign []socialnet.Like
		history  []socialnet.Like
	}
	plans := make([]plan, len(users))
	for i := range users[:60] {
		plans[i].campaign = append(plans[i].campaign, socialnet.Like{Page: pageA, At: st0.Add(time.Duration(i%13) * time.Hour)})
	}
	for i := 40; i < 100; i++ {
		plans[i].campaign = append(plans[i].campaign, socialnet.Like{Page: pageB, At: st0.Add(time.Duration(24+(i-40)%7) * time.Hour)})
	}
	for i := range users {
		perm := r.Perm(len(ambient))[:1+r.Intn(5)]
		for k, pi := range perm {
			plans[i].history = append(plans[i].history, socialnet.Like{
				Page: ambient[pi],
				At:   st0.AddDate(0, 0, -30).Add(time.Duration(k) * time.Hour),
			})
		}
	}
	write := func(i int) error {
		p, u := plans[i], users[i]
		if writers > 1 {
			if err := st.AddHistory(u, p.history); err != nil {
				return err
			}
		}
		for _, lk := range p.campaign {
			if err := st.AddLike(u, lk.Page, lk.At); err != nil {
				return err
			}
		}
		if writers > 1 {
			return nil
		}
		return st.AddHistory(u, p.history)
	}
	order := make([]int, len(users))
	for k := range order {
		order[k] = k
		if writers > 1 {
			order[k] = len(users) - 1 - k
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(order) && errs[w] == nil; k += writers {
				errs[w] = write(order[k])
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Terminated likers stay in the tables: the sweep removes likes
	// from the page counts a page admin sees, not from the crawl.
	for _, u := range users[:10] {
		if err := st.Terminate(u); err != nil {
			t.Fatal(err)
		}
	}

	var likersA, likersB []socialnet.UserID
	likersA = append(likersA, users[:60]...)
	likersB = append(likersB, users[40:100]...)
	campaigns := []Campaign{
		{ID: "A", Provider: "ProvA", Page: pageA, Likers: likersA, Active: true},
		{ID: "B", Provider: "ProvB", Page: pageB, Likers: likersB, Active: true},
		{ID: "C", Provider: "ProvC", Page: pageC, Active: false},
	}
	// users[110:] are bystanders: ambient histories only, tracked by no
	// campaign and absent from the baseline.
	baseline := users[100:110]
	return campaigns, baseline
}

// TestAggregatorsDeterministicAcrossShardCounts pins the table
// driver's determinism contract: identical worlds stored under
// different shard counts and written by different numbers of
// concurrent writers — so with different user and page append orders
// — must produce identical tables. ObserveStore reads append order
// unsorted, so this is what holds the aggregators to order-insensitive
// folds.
func TestAggregatorsDeterministicAcrossShardCounts(t *testing.T) {
	type run struct {
		out     CrawlTables
		shards  int
		writers int
	}
	var runs []run
	for _, shards := range []int{1, 4, 128} {
		for _, writers := range []int{1, 8} {
			st := socialnet.NewShardedStore(shards)
			campaigns, baseline := buildStreamWorld(t, st, writers)
			runs = append(runs, run{
				out:     storeTables(t, st, campaigns, baseline),
				shards:  shards,
				writers: writers,
			})
		}
	}
	for _, r := range runs[1:] {
		if !reflect.DeepEqual(r.out, runs[0].out) {
			t.Fatalf("tables diverge at shards=%d writers=%d", r.shards, r.writers)
		}
	}
	// The world is non-trivial: both active campaigns have rows, the
	// inactive one an empty window, and the baseline a Figure 4 row.
	out := runs[0].out
	if len(out.Geo) != 2 || out.Geo[0].Total != 60 || out.Geo[1].Total != 60 {
		t.Fatalf("geo = %+v", out.Geo)
	}
	if len(out.Windows) != 3 || out.Windows[2].Total != 0 {
		t.Fatalf("windows = %+v", out.Windows)
	}
	if len(out.CDFs) != 3 || out.CDFs[2].CampaignID != "Facebook" || out.CDFs[2].N != 10 {
		t.Fatalf("cdfs = %+v", out.CDFs)
	}
	if out.UserSim[0][1] == 0 || out.PageSim[0][1] == 0 {
		t.Fatalf("overlapping campaigns have zero similarity: %v %v", out.UserSim, out.PageSim)
	}
}
