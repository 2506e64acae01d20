package analysis

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/socialnet"
)

var t0 = time.Date(2014, 3, 12, 0, 0, 0, 0, time.UTC)

// buildWorld creates a store with two campaigns: "A" (provider P1) whose
// likers are Indian young males, and "B" (provider P2) whose likers
// mirror the global distribution.
func buildWorld(t *testing.T) (*socialnet.Store, []Campaign) {
	t.Helper()
	st := socialnet.NewStore()
	pa, _ := st.AddPage(socialnet.Page{Name: "A", Honeypot: true})
	pb, _ := st.AddPage(socialnet.Page{Name: "B", Honeypot: true})
	r := rand.New(rand.NewSource(1))

	var aLikers, bLikers []socialnet.UserID
	young := socialnet.YoungMaleProfile(0.07)
	global := socialnet.GlobalFacebookProfile()
	for i := 0; i < 200; i++ {
		u := st.AddUser(socialnet.User{
			Gender: young.SampleGender(r), Age: young.SampleAge(r),
			Country: socialnet.CountryIndia, FriendsPublic: i%5 == 0,
			DeclaredFriends: 100 + i,
		})
		_ = st.AddLike(u, pa, t0.Add(time.Duration(i)*time.Hour))
		aLikers = append(aLikers, u)
	}
	for i := 0; i < 150; i++ {
		u := st.AddUser(socialnet.User{
			Gender: global.SampleGender(r), Age: global.SampleAge(r),
			Country: socialnet.CountryTurkey, FriendsPublic: i%2 == 0,
			DeclaredFriends: 50,
		})
		_ = st.AddLike(u, pb, t0.Add(time.Duration(i)*time.Hour))
		bLikers = append(bLikers, u)
	}
	return st, []Campaign{
		{ID: "A", Provider: "P1", Page: pa, Likers: aLikers, Active: true},
		{ID: "B", Provider: "P2", Page: pb, Likers: bLikers, Active: true},
		{ID: "C", Provider: "P3", Page: pb, Likers: nil, Active: false},
	}
}

// storeTables runs the §4 table driver — the in-process crawl the study
// uses — over a hand-made store and returns the finalized tables.
func storeTables(t *testing.T, st *socialnet.Store, campaigns []Campaign, baseline []socialnet.UserID) CrawlTables {
	t.Helper()
	roster := make([]CrawlCampaign, len(campaigns))
	for i, c := range campaigns {
		roster[i] = CrawlCampaign{ID: c.ID, Page: c.Page, Active: c.Active}
	}
	a := NewCrawlAnalyzer(roster, baseline)
	if err := a.ObserveStore(st); err != nil {
		t.Fatal(err)
	}
	tables, err := a.Tables()
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

func TestLocationBreakdown(t *testing.T) {
	st, camps := buildWorld(t)
	// An active campaign whose page drew no likes keeps its row, empty.
	empty, _ := st.AddPage(socialnet.Page{Name: "E", Honeypot: true})
	camps = append(camps, Campaign{ID: "E", Provider: "P4", Page: empty, Active: true})
	rows := storeTables(t, st, camps, nil).Geo
	if len(rows) != 3 {
		t.Fatalf("rows = %d (inactive should be skipped, empty kept)", len(rows))
	}
	if rows[0].Percent[socialnet.CountryIndia] != 100 {
		t.Fatalf("A india pct = %v", rows[0].Percent)
	}
	if rows[1].Percent[socialnet.CountryTurkey] != 100 {
		t.Fatalf("B turkey pct = %v", rows[1].Percent)
	}
	if rows[0].Total != 200 || rows[1].Total != 150 {
		t.Fatalf("totals = %d/%d", rows[0].Total, rows[1].Total)
	}
	if rows[2].CampaignID != "E" || rows[2].Total != 0 || len(rows[2].Percent) != 0 {
		t.Fatalf("empty campaign row = %+v", rows[2])
	}
}

func TestLocationFoldsUnknownIntoOther(t *testing.T) {
	st := socialnet.NewStore()
	p, _ := st.AddPage(socialnet.Page{Name: "X", Honeypot: true})
	u := st.AddUser(socialnet.User{Country: "Narnia"})
	_ = st.AddLike(u, p, t0)
	rows := storeTables(t, st, []Campaign{{ID: "X", Provider: "P", Page: p, Likers: []socialnet.UserID{u}, Active: true}}, nil).Geo
	if rows[0].Percent[socialnet.CountryOther] != 100 {
		t.Fatalf("other pct = %v", rows[0].Percent)
	}
}

func TestDemographics(t *testing.T) {
	st, camps := buildWorld(t)
	// Campaign U: one liker with no gender and no age bracket, one
	// female 18-24. Both count toward N; only the second toward the
	// gender split and the age distribution.
	pu, _ := st.AddPage(socialnet.Page{Name: "U", Honeypot: true})
	for _, u := range []socialnet.User{
		{Gender: socialnet.GenderUnknown, Age: socialnet.AgeBracket(200)},
		{Gender: socialnet.GenderFemale, Age: socialnet.Age18to24},
	} {
		if err := st.AddLike(st.AddUser(u), pu, t0); err != nil {
			t.Fatal(err)
		}
	}
	camps = append(camps, Campaign{ID: "U", Provider: "P4", Page: pu, Active: true})
	rows := storeTables(t, st, camps, nil).Demo
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	a, b := rows[0], rows[1]
	if a.MalePct < 85 {
		t.Fatalf("A male pct = %v, want >85 (young male profile)", a.MalePct)
	}
	// A's age distribution is heavily young => large KL; B mirrors the
	// global distribution => small KL.
	if a.KL < 0.5 {
		t.Fatalf("A KL = %v, want large", a.KL)
	}
	if b.KL > 0.25 {
		t.Fatalf("B KL = %v, want small", b.KL)
	}
	// Percentages sum to 100.
	sum := 0.0
	for _, v := range a.AgePct {
		sum += v
	}
	if math.Abs(sum-100) > 0.01 {
		t.Fatalf("A ages sum to %v", sum)
	}
	u := rows[2]
	if u.N != 2 || u.FemalePct != 100 || u.MalePct != 0 || u.AgePct[socialnet.Age18to24] != 100 {
		t.Fatalf("U row = %+v, want N=2, 100%% female, 100%% 18-24", u)
	}
}

func TestGlobalDemoRow(t *testing.T) {
	row := GlobalDemoRow()
	if row.FemalePct != 46 || row.MalePct != 54 {
		t.Fatalf("global split = %v/%v", row.FemalePct, row.MalePct)
	}
	if math.Abs(row.AgePct[0]-14.9) > 0.2 {
		t.Fatalf("global 13-17 = %v", row.AgePct[0])
	}
}

func TestSortCampaigns(t *testing.T) {
	camps := []Campaign{{ID: "Z"}, {ID: "B"}, {ID: "A"}, {ID: "Q"}}
	out := SortCampaigns(camps, []string{"A", "B"})
	want := []string{"A", "B", "Q", "Z"}
	for i, w := range want {
		if out[i].ID != w {
			t.Fatalf("order = %v", out)
		}
	}
}

func TestAssignGroupsALMS(t *testing.T) {
	st := socialnet.NewStore()
	pAL, _ := st.AddPage(socialnet.Page{Name: "al", Honeypot: true})
	pMS, _ := st.AddPage(socialnet.Page{Name: "ms", Honeypot: true})
	alOnly := st.AddUser(socialnet.User{})
	msOnly := st.AddUser(socialnet.User{})
	both := st.AddUser(socialnet.User{})
	_ = st.AddLike(alOnly, pAL, t0)
	_ = st.AddLike(msOnly, pMS, t0)
	_ = st.AddLike(both, pAL, t0)
	_ = st.AddLike(both, pMS, t0)
	camps := []Campaign{
		{ID: "AL-USA", Provider: "AL", Page: pAL, Likers: []socialnet.UserID{alOnly, both}, Active: true},
		{ID: "MS-USA", Provider: "MS", Page: pMS, Likers: []socialnet.UserID{msOnly, both}, Active: true},
	}
	ga := AssignGroups(camps, "AL", "MS")
	if ga.ByUser[alOnly] != "AL" || ga.ByUser[msOnly] != "MS" {
		t.Fatalf("single-provider assignment wrong: %v", ga.ByUser)
	}
	if ga.ByUser[both] != ALMSGroup {
		t.Fatalf("both-user assigned to %q", ga.ByUser[both])
	}
	if len(ga.Groups["AL"]) != 1 || len(ga.Groups["MS"]) != 1 || len(ga.Groups[ALMSGroup]) != 1 {
		t.Fatalf("groups = %v", ga.Groups)
	}
	// ALMS comes last in presentation order.
	if ga.Order[len(ga.Order)-1] != ALMSGroup {
		t.Fatalf("order = %v", ga.Order)
	}
}

func TestSocialGraphTable(t *testing.T) {
	st := socialnet.NewStore()
	p1, _ := st.AddPage(socialnet.Page{Name: "p1", Honeypot: true})
	var likers []socialnet.UserID
	for i := 0; i < 6; i++ {
		u := st.AddUser(socialnet.User{FriendsPublic: true, DeclaredFriends: 10 * (i + 1)})
		_ = st.AddLike(u, p1, t0)
		likers = append(likers, u)
	}
	// One private liker.
	priv := st.AddUser(socialnet.User{FriendsPublic: false, DeclaredFriends: 1000})
	_ = st.AddLike(priv, p1, t0)
	likers = append(likers, priv)
	// Friendships: 0-1 direct; 2 and 3 share a mutual friend.
	mutual := st.AddUser(socialnet.User{})
	_ = st.Friend(likers[0], likers[1])
	_ = st.Friend(likers[2], mutual)
	_ = st.Friend(likers[3], mutual)

	camps := []Campaign{{ID: "X", Provider: "PX", Page: p1, Likers: likers, Active: true}}
	ga := AssignGroups(camps, "AL", "MS")
	rows, err := SocialGraphTable(st, ga, st.FriendGraph())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	row := rows[0]
	if row.Likers != 7 {
		t.Fatalf("likers = %d", row.Likers)
	}
	if row.PublicFriendLists != 6 {
		t.Fatalf("public lists = %d (private excluded)", row.PublicFriendLists)
	}
	// Private liker's 1000 friends must not contribute to stats.
	if row.AvgFriends > 100 {
		t.Fatalf("avg friends = %v includes private profile", row.AvgFriends)
	}
	if row.MedianFriends != 35 {
		t.Fatalf("median friends = %v, want 35", row.MedianFriends)
	}
	if row.DirectFriendships != 1 {
		t.Fatalf("direct = %d, want 1", row.DirectFriendships)
	}
	// 2-hop: the direct pair + the mutual-friend pair.
	if row.TwoHopRelations != 2 {
		t.Fatalf("2-hop = %d, want 2", row.TwoHopRelations)
	}
}

func TestLikerGraphsAndCensus(t *testing.T) {
	st := socialnet.NewStore()
	p1, _ := st.AddPage(socialnet.Page{Name: "p1", Honeypot: true})
	p2, _ := st.AddPage(socialnet.Page{Name: "p2", Honeypot: true})
	var g1, g2 []socialnet.UserID
	for i := 0; i < 4; i++ {
		u := st.AddUser(socialnet.User{})
		_ = st.AddLike(u, p1, t0)
		g1 = append(g1, u)
	}
	for i := 0; i < 3; i++ {
		u := st.AddUser(socialnet.User{})
		_ = st.AddLike(u, p2, t0)
		g2 = append(g2, u)
	}
	// P1 likers form a pair; P2 likers form a triplet.
	_ = st.Friend(g1[0], g1[1])
	_ = st.Friend(g2[0], g2[1])
	_ = st.Friend(g2[1], g2[2])
	// A cross-provider edge.
	_ = st.Friend(g1[2], g2[2])

	camps := []Campaign{
		{ID: "C1", Provider: "P1", Page: p1, Likers: g1, Active: true},
		{ID: "C2", Provider: "P2", Page: p2, Likers: g2, Active: true},
	}
	ga := AssignGroups(camps, "AL", "MS")
	direct, twoHop := LikerGraphs(ga, st.FriendGraph())
	if direct.NumNodes() != 7 {
		t.Fatalf("direct nodes = %d", direct.NumNodes())
	}
	if direct.NumEdges() != 4 {
		t.Fatalf("direct edges = %d", direct.NumEdges())
	}
	if twoHop.NumEdges() < direct.NumEdges() {
		t.Fatal("2-hop must be a superset of direct")
	}
	census := CensusByProvider(ga, direct)
	if len(census) != 2 {
		t.Fatalf("census rows = %d", len(census))
	}
	cross := CrossProviderEdges(ga, direct)
	if cross[[2]string{"P1", "P2"}] != 1 {
		t.Fatalf("cross edges = %v", cross)
	}
}

func TestPageLikeCDFs(t *testing.T) {
	st := socialnet.NewStore()
	hp, _ := st.AddPage(socialnet.Page{Name: "hp", Honeypot: true})
	// 10 likers with like-counts 1..10 (plus the honeypot like itself).
	var likers []socialnet.UserID
	for i := 1; i <= 10; i++ {
		u := st.AddUser(socialnet.User{})
		for j := 0; j < i; j++ {
			p, _ := st.AddPage(socialnet.Page{Name: "x"})
			_ = st.AddLike(u, p, t0)
		}
		_ = st.AddLike(u, hp, t0)
		likers = append(likers, u)
	}
	var baseline []socialnet.UserID
	for i := 0; i < 5; i++ {
		u := st.AddUser(socialnet.User{})
		p, _ := st.AddPage(socialnet.Page{Name: "y"})
		_ = st.AddLike(u, p, t0)
		baseline = append(baseline, u)
	}
	camps := []Campaign{{ID: "X", Provider: "P", Page: hp, Likers: likers, Active: true}}
	cdfs := storeTables(t, st, camps, baseline).CDFs
	if len(cdfs) != 2 {
		t.Fatalf("cdfs = %d", len(cdfs))
	}
	if cdfs[0].CampaignID != "X" || cdfs[0].N != 10 {
		t.Fatalf("campaign cdf = %+v", cdfs[0])
	}
	// Counts include the honeypot like: median of 2..11 = 6.5.
	if cdfs[0].Median != 6.5 {
		t.Fatalf("median = %v, want 6.5", cdfs[0].Median)
	}
	if cdfs[1].CampaignID != "Facebook" || cdfs[1].N != 5 || cdfs[1].Median != 1 {
		t.Fatalf("baseline cdf = %+v", cdfs[1])
	}
	// Without a baseline sample there is no "Facebook" row.
	if cdfs := storeTables(t, st, camps, nil).CDFs; len(cdfs) != 1 {
		t.Fatalf("cdfs without baseline = %+v", cdfs)
	}
}

func TestBaselineSample(t *testing.T) {
	st := socialnet.NewStore()
	for i := 0; i < 50; i++ {
		st.AddUser(socialnet.User{Searchable: i%2 == 0})
	}
	r := rand.New(rand.NewSource(2))
	got, err := BaselineSample(r, st, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("sample = %d", len(got))
	}
	seen := map[socialnet.UserID]bool{}
	for _, u := range got {
		if seen[u] {
			t.Fatal("duplicate in sample")
		}
		seen[u] = true
		usr, _ := st.User(u)
		if !usr.Searchable {
			t.Fatal("non-searchable user sampled")
		}
	}
	if _, err := BaselineSample(r, st, 100); err == nil {
		t.Fatal("oversized sample accepted")
	}
	if _, err := BaselineSample(r, st, 0); err == nil {
		t.Fatal("zero sample accepted")
	}
}

func TestJaccardMatrices(t *testing.T) {
	st := socialnet.NewStore()
	hp1, _ := st.AddPage(socialnet.Page{Name: "hp1", Honeypot: true})
	hp2, _ := st.AddPage(socialnet.Page{Name: "hp2", Honeypot: true})
	shared, _ := st.AddPage(socialnet.Page{Name: "shared"})
	only1, _ := st.AddPage(socialnet.Page{Name: "only1"})
	only2, _ := st.AddPage(socialnet.Page{Name: "only2"})

	u1 := st.AddUser(socialnet.User{})
	_ = st.AddLike(u1, hp1, t0)
	_ = st.AddLike(u1, shared, t0)
	_ = st.AddLike(u1, only1, t0)

	u2 := st.AddUser(socialnet.User{})
	_ = st.AddLike(u2, hp2, t0)
	_ = st.AddLike(u2, shared, t0)
	_ = st.AddLike(u2, only2, t0)

	camps := []Campaign{
		{ID: "C1", Provider: "P", Page: hp1, Likers: []socialnet.UserID{u1}, Active: true},
		{ID: "C2", Provider: "P", Page: hp2, Likers: []socialnet.UserID{u2}, Active: true},
		{ID: "C3", Provider: "P", Page: hp2, Active: false},
	}
	tables := storeTables(t, st, camps, nil)
	pageSim, userSim := tables.PageSim, tables.UserSim
	// Page sets: {shared, only1} vs {shared, only2} -> J = 1/3.
	if math.Abs(pageSim[0][1]-100.0/3) > 0.01 {
		t.Fatalf("pageSim = %v", pageSim[0][1])
	}
	if pageSim[0][1] != pageSim[1][0] {
		t.Fatal("page matrix not symmetric")
	}
	if pageSim[0][0] != 100 {
		t.Fatal("diagonal should be 100 for active campaigns")
	}
	// Inactive row all zero.
	for j := range pageSim[2] {
		if pageSim[2][j] != 0 {
			t.Fatalf("inactive row = %v", pageSim[2])
		}
	}
	// Liker sets disjoint.
	if userSim[0][1] != 0 {
		t.Fatalf("userSim = %v", userSim[0][1])
	}
}

func TestTemporalBurstiness(t *testing.T) {
	burst := Burstiness(TemporalSeries{CampaignID: "SF", Values: []int{0, 900, 950, 950, 950}})
	if burst.MaxDayJumpFrac < 0.9 {
		t.Fatalf("burst MaxDayJumpFrac = %v", burst.MaxDayJumpFrac)
	}
	if burst.DaysTo90Pct > 2 {
		t.Fatalf("burst DaysTo90Pct = %d", burst.DaysTo90Pct)
	}
	trickle := Burstiness(TemporalSeries{CampaignID: "BL", Values: []int{0, 60, 120, 180, 240, 300, 360, 420, 480, 540, 600, 660, 720, 780, 840, 900}})
	if trickle.MaxDayJumpFrac > 0.1 {
		t.Fatalf("trickle MaxDayJumpFrac = %v", trickle.MaxDayJumpFrac)
	}
	if trickle.DaysTo90Pct < 13 {
		t.Fatalf("trickle DaysTo90Pct = %d", trickle.DaysTo90Pct)
	}
	empty := Burstiness(TemporalSeries{CampaignID: "E"})
	if empty.Total != 0 || empty.MaxDayJumpFrac != 0 {
		t.Fatalf("empty stats = %+v", empty)
	}
	zero := Burstiness(TemporalSeries{CampaignID: "Z", Values: []int{0, 0, 0}})
	if zero.Total != 0 {
		t.Fatalf("zero stats = %+v", zero)
	}
}

func TestInterLikeGaps(t *testing.T) {
	ts := []time.Time{t0, t0.Add(time.Hour), t0.Add(3 * time.Hour)}
	gaps, err := InterLikeGaps(ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 2 || gaps[0] != time.Hour || gaps[1] != 2*time.Hour {
		t.Fatalf("gaps = %v", gaps)
	}
	if _, err := InterLikeGaps([]time.Time{t0.Add(time.Hour), t0}); err == nil {
		t.Fatal("unsorted input accepted")
	}
	if gaps, err := InterLikeGaps(ts[:1]); err != nil || gaps != nil {
		t.Fatalf("single element = %v, %v", gaps, err)
	}
}

func TestWindowAnalysis(t *testing.T) {
	// 10 likes within one hour + 2 stragglers days later.
	var ts []time.Time
	for i := 0; i < 10; i++ {
		ts = append(ts, t0.Add(time.Duration(i*6)*time.Minute))
	}
	ts = append(ts, t0.Add(100*time.Hour), t0.Add(200*time.Hour))
	ws, err := WindowAnalysis("X", ts)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Total != 12 || ws.MaxIn2h != 10 {
		t.Fatalf("stats = %+v", ws)
	}
	if ws.MaxFrac2h < 0.8 || ws.MaxFrac2h > 0.84 {
		t.Fatalf("frac = %v, want 10/12", ws.MaxFrac2h)
	}
	if ws.ActiveWindows != 3 {
		t.Fatalf("active windows = %d, want 3", ws.ActiveWindows)
	}
	empty, err := WindowAnalysis("E", nil)
	if err != nil || empty.Total != 0 || empty.MaxIn2h != 0 {
		t.Fatalf("empty = %+v, %v", empty, err)
	}
}

func TestMaxWithinWindow(t *testing.T) {
	ts := []time.Time{t0, t0.Add(time.Minute), t0.Add(90 * time.Minute), t0.Add(30 * time.Hour)}
	n, err := MaxWithinWindow(ts, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("max in window = %d", n)
	}
	if _, err := MaxWithinWindow(ts, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	if n, err := MaxWithinWindow(nil, time.Hour); err != nil || n != 0 {
		t.Fatalf("empty = %d, %v", n, err)
	}
}

func TestTwoHopViaBaseOnlyUsers(t *testing.T) {
	// A mutual friend who is NOT a liker must still create a 2-hop
	// relation (the paper counts mutual friends from all of Facebook).
	base := graph.NewUndirected()
	_ = base.AddEdge(1, 100)
	_ = base.AddEdge(2, 100)
	th := graph.TwoHopClosure([]int64{1, 2}, base)
	if !th.HasEdge(1, 2) {
		t.Fatal("mutual friend outside liker set ignored")
	}
}
