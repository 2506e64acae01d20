package analysis

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/socialnet"
	"repro/internal/stats"
)

// This file is the §4 table engine: the analyses computed from what a
// crawl observes (page like streams and liker profiles). The same
// aggregator family serves an HTTP crawl (crawler.AnalysisSink), its
// checkpoints and shard merges, and the in-process study, which feeds
// it from a local store through CrawlAnalyzer.ObserveStore.

// CrawlCampaign is one honeypot campaign as the crawl-side analyses
// see it: the roster entry a crawler can reconstruct from the API
// (page, label) plus the active flag. Likers are NOT part of the
// roster — the crawl discovers them, which is the point.
type CrawlCampaign struct {
	// ID is the campaign label, e.g. "FB-USA".
	ID string
	// Page is the campaign's honeypot page.
	Page socialnet.PageID
	// Active is false for paid-but-never-delivered campaigns; they
	// appear as dashes in tables and zero rows in the matrices.
	Active bool
}

// CrawlProfile is one crawled liker profile in analysis-domain types:
// the §3 data-collection unit after the wire strings are parsed back
// into enums. PageLikes is the user's full public page-like list —
// their entire journal presence, campaign likes and cover history
// alike — which is what the Figure 4 counts and Figure 5 page unions
// are built from.
type CrawlProfile struct {
	User          socialnet.UserID
	Gender        socialnet.Gender
	Age           socialnet.AgeBracket
	Country       string
	Friends       []socialnet.UserID
	FriendsHidden bool
	PageLikes     []socialnet.PageID
}

// LikesCampaign reports whether the profile's page-like list contains
// the page — campaign membership as the crawl observes it.
func (p *CrawlProfile) LikesCampaign(page socialnet.PageID) bool {
	return slices.Contains(p.PageLikes, page)
}

// CrawlAggregator is a streaming crawl-side §4 analysis. It observes
// two sub-streams the crawl produces:
//
//   - ObserveLike: every event of a crawled page's like stream,
//     delivered exactly once (the pipeline's cursor windows guarantee
//     exactly-once within a crawl, the checkpointed cursors across
//     resumes).
//   - ObserveProfile: every crawled liker profile, exactly once per
//     user across all campaigns (the pipeline's dedup set).
//
// Determinism rules (DESIGN.md §8): both observers must be
// ORDER-INSENSITIVE folds — the pipeline's emission order is
// scheduling-dependent, only the observed SET is a pure function of
// the world — and Finalize must emit rows in campaign (roster-slice)
// order. Observers must not retain the profile's slices beyond the
// call: the store driver reuses one PageLikes buffer across profiles.
// State/Restore round-trip the fold mid-stream so aggregator progress
// rides inside the crawl checkpoint: a restored aggregator that
// observes exactly the complement of what its snapshot covered
// finalizes byte-identically to an uninterrupted one.
type CrawlAggregator interface {
	// ObserveProfile folds one crawled profile.
	ObserveProfile(p CrawlProfile)
	// ObserveLike folds one page-stream like event.
	ObserveLike(page socialnet.PageID, user socialnet.UserID, at time.Time)
	// Finalize completes the fold.
	Finalize() error
	// State serializes the fold's progress (JSON).
	State() ([]byte, error)
	// Restore replaces the fold's progress with a prior State.
	Restore(data []byte) error
}

// crawlPageIdx maps page ID to campaign index as a dense array (-1 =
// not a campaign page), sized by the largest campaign page ID.
func crawlPageIdx(campaigns []CrawlCampaign, activeOnly bool) []int32 {
	var maxPage socialnet.PageID
	for _, c := range campaigns {
		if c.Page > maxPage {
			maxPage = c.Page
		}
	}
	idx := make([]int32, maxPage+1)
	for i := range idx {
		idx[i] = -1
	}
	for i, c := range campaigns {
		if activeOnly && !c.Active {
			continue
		}
		idx[c.Page] = int32(i)
	}
	return idx
}

// campaignOf resolves a page to its campaign index, or -1. Pages
// beyond the dense index are by definition not campaign pages.
func campaignOf(idx []int32, p socialnet.PageID) int32 {
	if int(p) >= len(idx) {
		return -1
	}
	return idx[p]
}

// ---- Figure 1: geolocation ----

// CrawlGeoAggregator streams Figure 1 from crawled profiles: a profile
// counts toward every active campaign whose page it likes (the crawl's
// observable for "liker of campaign i").
type CrawlGeoAggregator struct {
	campaigns []CrawlCampaign
	known     map[string]bool

	counts []map[string]float64
	totals []int
	rows   []GeoRow
}

// crawlGeoState is the serialized fold.
type crawlGeoState struct {
	Counts []map[string]float64 `json:"counts"`
	Totals []int                `json:"totals"`
}

// NewCrawlGeoAggregator builds the crawl-side Figure 1 aggregator.
func NewCrawlGeoAggregator(campaigns []CrawlCampaign) *CrawlGeoAggregator {
	g := &CrawlGeoAggregator{
		campaigns: campaigns,
		known:     knownCountries(),
		counts:    make([]map[string]float64, len(campaigns)),
		totals:    make([]int, len(campaigns)),
	}
	for i, c := range campaigns {
		if c.Active {
			g.counts[i] = make(map[string]float64)
		}
	}
	return g
}

// ObserveProfile implements CrawlAggregator.
func (g *CrawlGeoAggregator) ObserveProfile(p CrawlProfile) {
	label := p.Country
	if !g.known[label] {
		label = socialnet.CountryOther
	}
	for i, c := range g.campaigns {
		if c.Active && p.LikesCampaign(c.Page) {
			g.counts[i][label]++
			g.totals[i]++
		}
	}
}

// ObserveLike implements CrawlAggregator (geolocation reads profiles
// only).
func (g *CrawlGeoAggregator) ObserveLike(socialnet.PageID, socialnet.UserID, time.Time) {}

// Finalize implements CrawlAggregator.
func (g *CrawlGeoAggregator) Finalize() error {
	for i, c := range g.campaigns {
		if !c.Active {
			continue
		}
		g.rows = append(g.rows, geoRowFrom(c.ID, g.counts[i], g.totals[i]))
	}
	return nil
}

// Rows returns the Figure 1 rows (valid after Finalize).
func (g *CrawlGeoAggregator) Rows() []GeoRow { return g.rows }

// State implements CrawlAggregator.
func (g *CrawlGeoAggregator) State() ([]byte, error) {
	return json.Marshal(crawlGeoState{Counts: g.counts, Totals: g.totals})
}

// Restore implements CrawlAggregator.
func (g *CrawlGeoAggregator) Restore(data []byte) error {
	var st crawlGeoState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("analysis: crawl geo state: %w", err)
	}
	if len(st.Counts) != len(g.campaigns) || len(st.Totals) != len(g.campaigns) {
		return fmt.Errorf("analysis: crawl geo state covers %d campaigns, roster has %d", len(st.Counts), len(g.campaigns))
	}
	g.counts, g.totals = st.Counts, st.Totals
	for i, c := range g.campaigns {
		if c.Active && g.counts[i] == nil {
			g.counts[i] = make(map[string]float64)
		}
	}
	return nil
}

// ---- Table 2: demographics ----

// crawlDemoTally accumulates one campaign's gender/age counts
// (exported fields, so it serializes into the crawl checkpoint);
// demoRowFrom turns it into a Table 2 row.
type crawlDemoTally struct {
	Age [6]float64 `json:"age"`
	NF  int        `json:"nf"`
	NM  int        `json:"nm"`
	N   int        `json:"n"`
}

func (t *crawlDemoTally) observe(p CrawlProfile) {
	switch p.Gender {
	case socialnet.GenderFemale:
		t.NF++
	case socialnet.GenderMale:
		t.NM++
	}
	if int(p.Age) < len(t.Age) {
		t.Age[p.Age]++
	}
	t.N++
}

// CrawlDemoAggregator streams Table 2 from crawled profiles.
type CrawlDemoAggregator struct {
	campaigns []CrawlCampaign
	tallies   []crawlDemoTally
	rows      []DemoRow
}

// NewCrawlDemoAggregator builds the crawl-side Table 2 aggregator.
func NewCrawlDemoAggregator(campaigns []CrawlCampaign) *CrawlDemoAggregator {
	return &CrawlDemoAggregator{
		campaigns: campaigns,
		tallies:   make([]crawlDemoTally, len(campaigns)),
	}
}

// ObserveProfile implements CrawlAggregator.
func (d *CrawlDemoAggregator) ObserveProfile(p CrawlProfile) {
	for i, c := range d.campaigns {
		if c.Active && p.LikesCampaign(c.Page) {
			d.tallies[i].observe(p)
		}
	}
}

// ObserveLike implements CrawlAggregator.
func (d *CrawlDemoAggregator) ObserveLike(socialnet.PageID, socialnet.UserID, time.Time) {}

// Finalize implements CrawlAggregator.
func (d *CrawlDemoAggregator) Finalize() error {
	for i, c := range d.campaigns {
		if !c.Active {
			continue
		}
		row, err := demoRowFrom(c.ID, d.tallies[i])
		if err != nil {
			return err
		}
		d.rows = append(d.rows, row)
	}
	return nil
}

// Rows returns the Table 2 rows (valid after Finalize).
func (d *CrawlDemoAggregator) Rows() []DemoRow { return d.rows }

// State implements CrawlAggregator.
func (d *CrawlDemoAggregator) State() ([]byte, error) { return json.Marshal(d.tallies) }

// Restore implements CrawlAggregator.
func (d *CrawlDemoAggregator) Restore(data []byte) error {
	var tallies []crawlDemoTally
	if err := json.Unmarshal(data, &tallies); err != nil {
		return fmt.Errorf("analysis: crawl demo state: %w", err)
	}
	if len(tallies) != len(d.campaigns) {
		return fmt.Errorf("analysis: crawl demo state covers %d campaigns, roster has %d", len(tallies), len(d.campaigns))
	}
	d.tallies = tallies
	return nil
}

// ---- Figure 2 (2-hour windows) ----

// CrawlWindowAggregator streams the 2-hour window analysis from the
// crawled pages' like streams. It covers every campaign, active or not
// (inactive pages contribute empty streams), and buffers only the
// campaign pages' own (small) time series.
type CrawlWindowAggregator struct {
	campaigns []CrawlCampaign
	pageIdx   []int32
	times     [][]time.Time
	stats     []WindowStats
}

// NewCrawlWindowAggregator builds the crawl-side window aggregator.
func NewCrawlWindowAggregator(campaigns []CrawlCampaign) *CrawlWindowAggregator {
	return &CrawlWindowAggregator{
		campaigns: campaigns,
		pageIdx:   crawlPageIdx(campaigns, false),
		times:     make([][]time.Time, len(campaigns)),
	}
}

// ObserveProfile implements CrawlAggregator.
func (w *CrawlWindowAggregator) ObserveProfile(CrawlProfile) {}

// ObserveLike implements CrawlAggregator.
func (w *CrawlWindowAggregator) ObserveLike(page socialnet.PageID, _ socialnet.UserID, at time.Time) {
	if i := campaignOf(w.pageIdx, page); i >= 0 {
		w.times[i] = append(w.times[i], at)
	}
}

// Finalize implements CrawlAggregator. The buffered series are sorted
// here — the crawl delivers page streams in append order, not time
// order — the one place in the family that pays for order, at
// per-campaign rather than journal scale.
func (w *CrawlWindowAggregator) Finalize() error {
	w.stats = make([]WindowStats, len(w.campaigns))
	for i, c := range w.campaigns {
		ts := w.times[i]
		sort.Slice(ts, func(a, b int) bool { return ts[a].Before(ts[b]) })
		ws, err := WindowAnalysis(c.ID, ts)
		if err != nil {
			return err
		}
		w.stats[i] = ws
	}
	return nil
}

// Stats returns one WindowStats per campaign in roster order (valid
// after Finalize).
func (w *CrawlWindowAggregator) Stats() []WindowStats { return w.stats }

// State implements CrawlAggregator. time.Time serializes at
// nanosecond precision, so the restored series is bit-identical.
func (w *CrawlWindowAggregator) State() ([]byte, error) { return json.Marshal(w.times) }

// Restore implements CrawlAggregator.
func (w *CrawlWindowAggregator) Restore(data []byte) error {
	var times [][]time.Time
	if err := json.Unmarshal(data, &times); err != nil {
		return fmt.Errorf("analysis: crawl window state: %w", err)
	}
	if len(times) != len(w.campaigns) {
		return fmt.Errorf("analysis: crawl window state covers %d campaigns, roster has %d", len(times), len(w.campaigns))
	}
	w.times = times
	return nil
}

// ---- Figure 4: page-like count CDFs ----

// CrawlCDFAggregator streams Figure 4 from crawled profiles: a liker's
// count is the length of their crawled page-like list (their total
// journal presence), and the organic baseline sample — when its IDs
// are known and its profiles were crawled too — appears as the
// "Facebook" row, exactly as in §4.4.
type CrawlCDFAggregator struct {
	campaigns   []CrawlCampaign
	baseline    []socialnet.UserID
	baselineSet map[socialnet.UserID]struct{}

	members [][]socialnet.UserID
	counts  map[socialnet.UserID]int32
	rows    []PageLikeCDF
	// conflicts counts per-user count disagreements MergeState resolved
	// (crawl-timing drift across shards); see MergeConflicts.
	conflicts int
}

// crawlCDFState is the serialized fold.
type crawlCDFState struct {
	Members [][]socialnet.UserID       `json:"members"`
	Counts  map[socialnet.UserID]int32 `json:"counts"`
}

// NewCrawlCDFAggregator builds the crawl-side Figure 4 aggregator.
// baseline may be empty; then no "Facebook" row is produced.
func NewCrawlCDFAggregator(campaigns []CrawlCampaign, baseline []socialnet.UserID) *CrawlCDFAggregator {
	set := make(map[socialnet.UserID]struct{}, len(baseline))
	for _, u := range baseline {
		set[u] = struct{}{}
	}
	return &CrawlCDFAggregator{
		campaigns:   campaigns,
		baseline:    baseline,
		baselineSet: set,
		members:     make([][]socialnet.UserID, len(campaigns)),
		counts:      make(map[socialnet.UserID]int32),
	}
}

// ObserveProfile implements CrawlAggregator.
func (a *CrawlCDFAggregator) ObserveProfile(p CrawlProfile) {
	_, tracked := a.baselineSet[p.User]
	for i, c := range a.campaigns {
		if c.Active && p.LikesCampaign(c.Page) {
			a.members[i] = append(a.members[i], p.User)
			tracked = true
		}
	}
	if tracked {
		a.counts[p.User] = int32(len(p.PageLikes))
	}
}

// ObserveLike implements CrawlAggregator.
func (a *CrawlCDFAggregator) ObserveLike(socialnet.PageID, socialnet.UserID, time.Time) {}

// Finalize implements CrawlAggregator.
func (a *CrawlCDFAggregator) Finalize() error {
	build := func(id string, users []socialnet.UserID) error {
		if len(users) == 0 {
			return nil
		}
		counts := make([]float64, len(users))
		for i, u := range users {
			counts[i] = float64(a.counts[u])
		}
		row, err := newPageLikeCDF(id, counts)
		if err != nil {
			return err
		}
		a.rows = append(a.rows, row)
		return nil
	}
	for i, c := range a.campaigns {
		if !c.Active {
			continue
		}
		if err := build(c.ID, a.members[i]); err != nil {
			return err
		}
	}
	return build("Facebook", a.baseline)
}

// Rows returns the Figure 4 rows (valid after Finalize).
func (a *CrawlCDFAggregator) Rows() []PageLikeCDF { return a.rows }

// State implements CrawlAggregator. Member lists are sorted in the
// snapshot (row assembly sorts its own copies, so order never reaches
// the output) to keep the checkpoint bytes scheduling-independent.
func (a *CrawlCDFAggregator) State() ([]byte, error) {
	st := crawlCDFState{Members: make([][]socialnet.UserID, len(a.members)), Counts: a.counts}
	for i, m := range a.members {
		st.Members[i] = append([]socialnet.UserID(nil), m...)
		slices.Sort(st.Members[i])
	}
	return json.Marshal(st)
}

// Restore implements CrawlAggregator.
func (a *CrawlCDFAggregator) Restore(data []byte) error {
	var st crawlCDFState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("analysis: crawl CDF state: %w", err)
	}
	if len(st.Members) != len(a.campaigns) {
		return fmt.Errorf("analysis: crawl CDF state covers %d campaigns, roster has %d", len(st.Members), len(a.campaigns))
	}
	a.members, a.counts = st.Members, st.Counts
	if a.counts == nil {
		a.counts = make(map[socialnet.UserID]int32)
	}
	return nil
}

// ---- Figure 5: Jaccard similarity ----

// CrawlJaccardAggregator streams Figure 5 from crawled profiles: each
// campaign's page union is assembled from its likers' crawled
// page-like lists (excluding the campaign's own honeypot page), its
// liker set from crawl-observed membership.
type CrawlJaccardAggregator struct {
	campaigns []CrawlCampaign

	pageSeen [][]bool
	users    []map[socialnet.UserID]struct{}
	pageSim  [][]float64
	userSim  [][]float64
}

// crawlJaccardState is the serialized fold: bitmaps and sets flattened
// to sorted ID lists.
type crawlJaccardState struct {
	Pages [][]socialnet.PageID `json:"pages"`
	Users [][]socialnet.UserID `json:"users"`
}

// MaxJaccardPageID is the largest page ID a Jaccard state may list.
// The aggregator keeps a dense bitmap indexed by page ID, so Restore
// sizes it by the state's largest ID; the ceiling (a 16 MiB bitmap per
// campaign, far above the page count of any world the study builds)
// bounds what corrupt or hostile checkpoint bytes can make it allocate.
const MaxJaccardPageID = 1<<24 - 1

// NewCrawlJaccardAggregator builds the crawl-side Figure 5 aggregator.
func NewCrawlJaccardAggregator(campaigns []CrawlCampaign) *CrawlJaccardAggregator {
	j := &CrawlJaccardAggregator{
		campaigns: campaigns,
		pageSeen:  make([][]bool, len(campaigns)),
		users:     make([]map[socialnet.UserID]struct{}, len(campaigns)),
	}
	for i := range campaigns {
		j.users[i] = make(map[socialnet.UserID]struct{})
	}
	return j
}

// ObserveProfile implements CrawlAggregator.
func (j *CrawlJaccardAggregator) ObserveProfile(p CrawlProfile) {
	for i, c := range j.campaigns {
		if !c.Active || !p.LikesCampaign(c.Page) {
			continue
		}
		j.users[i][p.User] = struct{}{}
		for _, pg := range p.PageLikes {
			if pg == c.Page {
				continue // exclude the campaign's own honeypot page
			}
			j.pageSeen[i] = markPage(j.pageSeen[i], pg)
		}
	}
}

// ObserveLike implements CrawlAggregator.
func (j *CrawlJaccardAggregator) ObserveLike(socialnet.PageID, socialnet.UserID, time.Time) {}

// Finalize implements CrawlAggregator.
func (j *CrawlJaccardAggregator) Finalize() error {
	sizes := make([]int, len(j.campaigns))
	for i, seen := range j.pageSeen {
		for _, ok := range seen {
			if ok {
				sizes[i]++
			}
		}
	}
	j.pageSim, j.userSim = similarityMatrices(j.campaigns,
		func(a, b int) float64 { return 100 * bitmapJaccard(j.pageSeen[a], j.pageSeen[b], sizes[a], sizes[b]) },
		func(a, b int) float64 { return 100 * stats.Jaccard(j.users[a], j.users[b]) })
	return nil
}

// markPage sets page pg in a dense page bitmap and returns the bitmap,
// growing it geometrically so a stream of ever-larger page IDs costs
// amortized O(1) per mark. Bytes past len are never written, so a
// reslice into spare capacity exposes only zeroes.
func markPage(seen []bool, pg socialnet.PageID) []bool {
	if n := int(pg) + 1; n > len(seen) {
		seen = slices.Grow(seen, n-len(seen))[:n]
	}
	seen[pg] = true
	return seen
}

// bitmapJaccard is the Jaccard similarity of two dense membership
// bitmaps with precomputed set sizes — the Figure 5 page-union math.
func bitmapJaccard(a, b []bool, na, nb int) float64 {
	if na == 0 && nb == 0 {
		return 0
	}
	m := len(a)
	if len(b) < m {
		m = len(b)
	}
	inter := 0
	for p := 0; p < m; p++ {
		if a[p] && b[p] {
			inter++
		}
	}
	return float64(inter) / float64(na+nb-inter)
}

// Matrices returns the Figure 5 matrices (valid after Finalize).
func (j *CrawlJaccardAggregator) Matrices() (pageSim, userSim [][]float64) {
	return j.pageSim, j.userSim
}

// State implements CrawlAggregator.
func (j *CrawlJaccardAggregator) State() ([]byte, error) {
	st := crawlJaccardState{
		Pages: make([][]socialnet.PageID, len(j.campaigns)),
		Users: make([][]socialnet.UserID, len(j.campaigns)),
	}
	for i := range j.campaigns {
		st.Pages[i] = []socialnet.PageID{}
		for pg, ok := range j.pageSeen[i] {
			if ok {
				st.Pages[i] = append(st.Pages[i], socialnet.PageID(pg))
			}
		}
		st.Users[i] = make([]socialnet.UserID, 0, len(j.users[i]))
		for u := range j.users[i] {
			st.Users[i] = append(st.Users[i], u)
		}
		slices.Sort(st.Users[i])
	}
	return json.Marshal(st)
}

// Restore implements CrawlAggregator.
func (j *CrawlJaccardAggregator) Restore(data []byte) error {
	var st crawlJaccardState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("analysis: crawl jaccard state: %w", err)
	}
	if len(st.Pages) != len(j.campaigns) || len(st.Users) != len(j.campaigns) {
		return fmt.Errorf("analysis: crawl jaccard state covers %d campaigns, roster has %d", len(st.Pages), len(j.campaigns))
	}
	for i := range j.campaigns {
		for _, pg := range st.Pages[i] {
			if pg < 0 {
				return fmt.Errorf("analysis: crawl jaccard state: negative page ID %d", pg)
			}
			if pg > MaxJaccardPageID {
				return fmt.Errorf("analysis: crawl jaccard state: page ID %d above the ceiling %d", pg, MaxJaccardPageID)
			}
		}
	}
	for i := range j.campaigns {
		j.pageSeen[i] = nil
		for _, pg := range st.Pages[i] {
			j.pageSeen[i] = markPage(j.pageSeen[i], pg)
		}
		j.users[i] = make(map[socialnet.UserID]struct{}, len(st.Users[i]))
		for _, u := range st.Users[i] {
			j.users[i][u] = struct{}{}
		}
	}
	return nil
}

// ---- the bundle ----

// CrawlAnalyzer bundles the standard crawl-side §4 family — geo, demo,
// 2-hour windows, page-like CDFs, Jaccard — behind one observe /
// finalize / snapshot surface.
type CrawlAnalyzer struct {
	Campaigns []CrawlCampaign
	Geo       *CrawlGeoAggregator
	Demo      *CrawlDemoAggregator
	Window    *CrawlWindowAggregator
	CDF       *CrawlCDFAggregator
	Jaccard   *CrawlJaccardAggregator
}

// NewCrawlAnalyzer builds the standard family over a campaign roster
// and an optional baseline sample (for the Figure 4 "Facebook" row;
// the baseline users' profiles must then be crawled too).
func NewCrawlAnalyzer(campaigns []CrawlCampaign, baseline []socialnet.UserID) *CrawlAnalyzer {
	return &CrawlAnalyzer{
		Campaigns: campaigns,
		Geo:       NewCrawlGeoAggregator(campaigns),
		Demo:      NewCrawlDemoAggregator(campaigns),
		Window:    NewCrawlWindowAggregator(campaigns),
		CDF:       NewCrawlCDFAggregator(campaigns, baseline),
		Jaccard:   NewCrawlJaccardAggregator(campaigns),
	}
}

// Aggregators returns the family in its canonical order (the order
// snapshot state is keyed by).
func (a *CrawlAnalyzer) Aggregators() []CrawlAggregator {
	return []CrawlAggregator{a.Geo, a.Demo, a.Window, a.CDF, a.Jaccard}
}

// ObserveStore is the in-process crawl: it feeds the family from a
// local store exactly what an HTTP crawl of the same world observes.
// Every event of each distinct roster page's like stream goes to
// ObserveLike; every distinct page liker and every baseline user goes
// to ObserveProfile exactly once, with PageLikes the user's full
// page-like list. The aggregators are order-insensitive folds, so the
// list is read in append order — unsorted, uncached — into one reused
// buffer, and the whole fold runs serially.
func (a *CrawlAnalyzer) ObserveStore(st *socialnet.Store) error {
	aggs := a.Aggregators()
	crawled := make(map[socialnet.PageID]bool, len(a.Campaigns))
	seen := make(map[socialnet.UserID]bool)
	var users []socialnet.UserID
	visit := func(u socialnet.UserID) {
		if !seen[u] {
			seen[u] = true
			users = append(users, u)
		}
	}
	for _, c := range a.Campaigns {
		if crawled[c.Page] {
			continue
		}
		crawled[c.Page] = true
		events, _ := st.PageEventsSince(c.Page, 0)
		for _, ev := range events {
			for _, agg := range aggs {
				agg.ObserveLike(ev.Page, ev.User, ev.At)
			}
			visit(ev.User)
		}
	}
	for _, u := range a.CDF.baseline {
		visit(u)
	}
	var pages []socialnet.PageID
	for _, u := range users {
		usr, err := st.User(u)
		if err != nil {
			return fmt.Errorf("analysis: profile: %w", err)
		}
		pages = st.AppendPagesOfUser(pages[:0], u)
		p := CrawlProfile{User: u, Gender: usr.Gender, Age: usr.Age, Country: usr.Country, PageLikes: pages}
		for _, agg := range aggs {
			agg.ObserveProfile(p)
		}
	}
	return nil
}

// Tables finalizes every aggregator and assembles the §4 table set.
func (a *CrawlAnalyzer) Tables() (CrawlTables, error) {
	for _, agg := range a.Aggregators() {
		if err := agg.Finalize(); err != nil {
			return CrawlTables{}, err
		}
	}
	t := CrawlTables{
		Campaigns: make([]string, len(a.Campaigns)),
		Geo:       a.Geo.Rows(),
		Demo:      a.Demo.Rows(),
		Windows:   a.Window.Stats(),
		CDFs:      a.CDF.Rows(),
	}
	for i, c := range a.Campaigns {
		t.Campaigns[i] = c.ID
	}
	t.PageSim, t.UserSim = a.Jaccard.Matrices()
	return t, nil
}

// CrawlTables is the crawl-comparable subset of the §4 artifacts: the
// tables both an HTTP crawl and the in-process study compute with this
// family. A study's Results reduce to the same shape
// (core.Results.CrawlTables), which is what the crawl-vs-study
// equivalence tests and the CI smoke compare byte-for-byte.
type CrawlTables struct {
	// Campaigns lists the roster IDs in finalize order.
	Campaigns []string
	Geo       []GeoRow      // Figure 1
	Demo      []DemoRow     // Table 2
	Windows   []WindowStats // Figure 2 at 2-hour granularity
	CDFs      []PageLikeCDF // Figure 4
	PageSim   [][]float64   // Figure 5(a)
	UserSim   [][]float64   // Figure 5(b)
}

// MarshalStable renders the tables as deterministic JSON: every field
// is a slice, and the only map (GeoRow.Percent) is string-keyed, which
// encoding/json sorts — the same stability argument as
// core.Results.MarshalJSONStable.
func (t *CrawlTables) MarshalStable() ([]byte, error) {
	return json.MarshalIndent(t, "", " ")
}
