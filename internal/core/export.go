package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/socialnet"
)

// CrossEdgeCount is one provider-pair direct-friendship count in JSON
// form ([2]string map keys cannot be marshaled directly).
type CrossEdgeCount struct {
	A, B  string
	Count int
}

// resultsJSON is the stable JSON shape of Results: every field either
// marshals deterministically by construction (slices, string-keyed
// maps) or is converted to a sorted slice here. Config is reduced to
// the identifying knobs; the full config is process-local (it holds
// distributions and function-free but large specs).
type resultsJSON struct {
	Seed         int64
	Workers      int
	Campaigns    []CampaignResult
	Geo          []analysis.GeoRow
	Demo         []analysis.DemoRow
	Temporal     []analysis.TemporalSeries
	Bursts       []analysis.BurstStats
	Windows      []analysis.WindowStats
	Table3       []analysis.ProviderGroupRow
	DirectCensus []analysis.ComponentCensus
	TwoHopCensus []analysis.ComponentCensus
	CrossEdges   []CrossEdgeCount
	GroupOrder   []string
	Groups       map[string][]socialnet.UserID
	Baseline     []socialnet.UserID
	CDFs         []analysis.PageLikeCDF
	PageSim      [][]float64
	UserSim      [][]float64
	RemovedLikes map[string]int
	HistoryLikes int
	Journal      JournalStats
}

// MarshalJSONStable renders the complete results as deterministic JSON:
// the same study outcome always yields the same bytes, regardless of
// worker count or map iteration order. The determinism regression tests
// compare these bytes across serial and parallel runs.
func (r *Results) MarshalJSONStable() ([]byte, error) {
	out := resultsJSON{
		Seed:         r.Config.Seed,
		Workers:      r.Config.Workers,
		Campaigns:    r.Campaigns,
		Geo:          r.Geo,
		Demo:         r.Demo,
		Temporal:     r.Temporal,
		Bursts:       r.Bursts,
		Windows:      r.Windows,
		Table3:       r.Table3,
		DirectCensus: r.DirectCensus,
		TwoHopCensus: r.TwoHopCensus,
		Baseline:     r.Baseline,
		CDFs:         r.CDFs,
		PageSim:      r.PageSim,
		UserSim:      r.UserSim,
		RemovedLikes: r.RemovedLikes,
		HistoryLikes: r.HistoryLikes,
		// Journal.Campaigns is a string-keyed map: encoding/json sorts
		// the keys, so the rendering stays byte-deterministic.
		Journal: r.Journal,
	}
	out.CrossEdges = make([]CrossEdgeCount, 0, len(r.CrossEdges))
	for k, v := range r.CrossEdges {
		out.CrossEdges = append(out.CrossEdges, CrossEdgeCount{A: k[0], B: k[1], Count: v})
	}
	sort.Slice(out.CrossEdges, func(i, j int) bool {
		if out.CrossEdges[i].A != out.CrossEdges[j].A {
			return out.CrossEdges[i].A < out.CrossEdges[j].A
		}
		return out.CrossEdges[i].B < out.CrossEdges[j].B
	})
	if r.Groups != nil {
		out.GroupOrder = r.Groups.Order
		out.Groups = r.Groups.Groups
	}
	return json.MarshalIndent(&out, "", " ")
}

// CrawlTables reduces the study's Results to the §4 table subset an
// HTTP crawl can also compute (analysis.CrawlTables): geo,
// demographics, 2-hour windows, page-like CDFs, and the Jaccard
// matrices, with the campaign roster IDs in finalize order. The
// crawl-vs-study equivalence tests and the CI smoke compare this
// rendering byte-for-byte against the crawl pipeline's output.
func (r *Results) CrawlTables() analysis.CrawlTables {
	t := analysis.CrawlTables{
		Campaigns: make([]string, len(r.Campaigns)),
		Geo:       r.Geo,
		Demo:      r.Demo,
		Windows:   r.Windows,
		CDFs:      r.CDFs,
		PageSim:   r.PageSim,
		UserSim:   r.UserSim,
	}
	for i, c := range r.Campaigns {
		t.Campaigns[i] = c.Spec.ID
	}
	return t
}

// WriteJSON writes the stable JSON rendering to dir/results.json and
// returns the file name.
func (r *Results) WriteJSON(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("core: artifacts dir: %w", err)
	}
	data, err := r.MarshalJSONStable()
	if err != nil {
		return "", fmt.Errorf("core: marshal results: %w", err)
	}
	name := "results.json"
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		return "", fmt.Errorf("core: write %s: %w", name, err)
	}
	return name, nil
}

// WriteArtifacts writes every table and figure to dir: CSV files for the
// tables and matrices, text renderings for the plots, and Graphviz DOT
// files for the Figure 3 liker graphs. It returns the written file
// names (relative to dir).
func (r *Results) WriteArtifacts(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: artifacts dir: %w", err)
	}
	var written []string
	write := func(name, content string) error {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return fmt.Errorf("core: write %s: %w", name, err)
		}
		written = append(written, name)
		return nil
	}

	// Table 1 CSV.
	t1 := report.NewTable("", "campaign", "provider", "description", "location",
		"budget", "duration_days", "monitoring_days", "likes", "terminated")
	for _, c := range r.Campaigns {
		mon, likes, term := "", "", ""
		if c.Active {
			mon = fmt.Sprintf("%d", c.MonitoringDays)
			likes = fmt.Sprintf("%d", c.Likes)
			term = fmt.Sprintf("%d", c.Terminated)
		}
		t1.AddRow(c.Spec.ID, c.Spec.Provider, c.Spec.Description, c.Spec.Location,
			c.Spec.BudgetText, fmt.Sprintf("%d", c.Spec.DurationDays), mon, likes, term)
	}
	if err := write("table1_campaigns.csv", t1.CSV()); err != nil {
		return nil, err
	}

	// Figure 1 CSV.
	countries := socialnet.StudyCountries()
	f1 := report.NewTable("", append([]string{"campaign"}, countries...)...)
	for _, row := range r.Geo {
		cells := []string{row.CampaignID}
		for _, c := range countries {
			cells = append(cells, report.Pct(row.Percent[c]))
		}
		f1.AddRow(cells...)
	}
	if err := write("figure1_geolocation.csv", f1.CSV()); err != nil {
		return nil, err
	}

	// Table 2 CSV.
	t2 := report.NewTable("", "campaign", "female_pct", "male_pct",
		"age_13_17", "age_18_24", "age_25_34", "age_35_44", "age_45_54", "age_55_plus", "kl_bits")
	for _, row := range r.Demo {
		cells := []string{row.CampaignID, report.Pct(row.FemalePct), report.Pct(row.MalePct)}
		for _, v := range row.AgePct {
			cells = append(cells, report.Pct(v))
		}
		cells = append(cells, report.F(row.KL, 3))
		t2.AddRow(cells...)
	}
	if err := write("table2_demographics.csv", t2.CSV()); err != nil {
		return nil, err
	}

	// Figure 2 CSV: one row per campaign per day.
	f2 := report.NewTable("", "campaign", "day", "cumulative_likes")
	for _, ts := range r.Temporal {
		for d, v := range ts.Values {
			f2.AddRow(ts.CampaignID, fmt.Sprintf("%d", d), fmt.Sprintf("%d", v))
		}
	}
	if err := write("figure2_temporal.csv", f2.CSV()); err != nil {
		return nil, err
	}

	// Table 3 CSV.
	t3 := report.NewTable("", "provider", "likers", "public_friend_lists", "public_pct",
		"avg_friends", "std_friends", "median_friends", "direct_friendships", "two_hop_relations")
	for _, row := range r.Table3 {
		t3.AddRow(row.Provider,
			fmt.Sprintf("%d", row.Likers),
			fmt.Sprintf("%d", row.PublicFriendLists),
			report.Pct(row.PublicPct),
			report.F(row.AvgFriends, 1), report.F(row.StdFriends, 1),
			report.F(row.MedianFriends, 1),
			fmt.Sprintf("%d", row.DirectFriendships),
			fmt.Sprintf("%d", row.TwoHopRelations))
	}
	if err := write("table3_socialgraph.csv", t3.CSV()); err != nil {
		return nil, err
	}

	// Figure 4 CSV: summary quantiles per campaign.
	f4 := report.NewTable("", "campaign", "n", "median", "p90", "max")
	for _, c := range r.CDFs {
		f4.AddRow(c.CampaignID, fmt.Sprintf("%d", c.N),
			report.F(c.Median, 1), report.F(c.P90, 1), report.F(c.Max, 1))
	}
	if err := write("figure4_pagelikes.csv", f4.CSV()); err != nil {
		return nil, err
	}

	// Figure 5 CSVs.
	labels := make([]string, len(r.Campaigns))
	for i, c := range r.Campaigns {
		labels[i] = c.Spec.ID
	}
	matrixCSV := func(m [][]float64) string {
		t := report.NewTable("", append([]string{"campaign"}, labels...)...)
		for i, row := range m {
			cells := []string{labels[i]}
			for _, v := range row {
				cells = append(cells, report.F(v, 2))
			}
			t.AddRow(cells...)
		}
		return t.CSV()
	}
	if err := write("figure5a_jaccard_pages.csv", matrixCSV(r.PageSim)); err != nil {
		return nil, err
	}
	if err := write("figure5b_jaccard_likers.csv", matrixCSV(r.UserSim)); err != nil {
		return nil, err
	}

	// Extension CSV.
	ext := report.NewTable("", "campaign", "likes", "removed")
	for _, c := range r.Campaigns {
		if !c.Active {
			continue
		}
		ext.AddRow(c.Spec.ID, fmt.Sprintf("%d", c.Likes),
			fmt.Sprintf("%d", r.RemovedLikes[c.Spec.ID]))
	}
	if err := write("extension_removed_likes.csv", ext.CSV()); err != nil {
		return nil, err
	}

	// Full text report.
	if err := write("report.txt", r.RenderAll()); err != nil {
		return nil, err
	}
	return written, nil
}

// WriteFigure3DOT writes the direct and 2-hop liker graphs as Graphviz
// DOT files into dir (figure3a_direct.dot, figure3b_twohop.dot), using
// the study's base friendship graph.
func (s *Study) WriteFigure3DOT(res *Results, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: dot dir: %w", err)
	}
	base := s.store.FriendGraph()
	direct, twoHop := analysis.LikerGraphs(res.Groups, base)
	files := []struct {
		name string
		dot  string
	}{
		{"figure3a_direct.dot", analysis.LikerGraphDOT(direct, res.Groups, analysis.DOTOptions{Name: "direct"})},
		{"figure3b_twohop.dot", analysis.LikerGraphDOT(twoHop, res.Groups, analysis.DOTOptions{Name: "twohop"})},
	}
	var written []string
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), []byte(f.dot), 0o644); err != nil {
			return nil, fmt.Errorf("core: write %s: %w", f.name, err)
		}
		written = append(written, f.name)
	}
	return written, nil
}
