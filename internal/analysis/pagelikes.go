package analysis

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/socialnet"
	"repro/internal/stats"
)

// PageLikeCDF is one campaign's distribution of per-liker page-like
// counts (Figure 4), as an ECDF plus summary quantiles.
type PageLikeCDF struct {
	CampaignID string
	N          int
	Median     float64
	P90        float64
	Max        float64
	ECDF       *stats.ECDF
}

// newPageLikeCDF assembles one Figure 4 row from per-user page-like
// counts.
func newPageLikeCDF(id string, counts []float64) (PageLikeCDF, error) {
	e, err := stats.NewECDF(counts)
	if err != nil {
		return PageLikeCDF{}, fmt.Errorf("analysis: page-like CDF %s: %w", id, err)
	}
	med, err := stats.Median(counts)
	if err != nil {
		return PageLikeCDF{}, err
	}
	p90, err := stats.Quantile(counts, 0.9)
	if err != nil {
		return PageLikeCDF{}, err
	}
	_, max, err := stats.MinMax(counts)
	if err != nil {
		return PageLikeCDF{}, err
	}
	return PageLikeCDF{
		CampaignID: id, N: len(counts),
		Median: med, P90: p90, Max: max, ECDF: e,
	}, nil
}

// BaselineSample draws n users uniformly from the public directory — the
// unbiased Facebook-population sample of Figure 4 (the paper used 2000
// profiles from the searchable-ID directory crawl of [9]).
func BaselineSample(r *rand.Rand, st *socialnet.Store, n int) ([]socialnet.UserID, error) {
	dir := st.Directory()
	if n < 1 {
		return nil, fmt.Errorf("analysis: baseline size %d must be >=1", n)
	}
	if n > len(dir) {
		return nil, fmt.Errorf("analysis: baseline size %d exceeds directory %d", n, len(dir))
	}
	idx, err := stats.SampleWithoutReplacement(r, len(dir), n)
	if err != nil {
		return nil, err
	}
	sort.Ints(idx)
	out := make([]socialnet.UserID, n)
	for i, j := range idx {
		out[i] = dir[j]
	}
	return out, nil
}

// similarityMatrices assembles the Figure 5 matrix shape — diagonal
// 100 for active campaigns, 0 rows for inactive ones, symmetric
// off-diagonal entries from the pairwise callbacks.
func similarityMatrices(campaigns []CrawlCampaign, pageSim, userSim func(a, b int) float64) (ps, us [][]float64) {
	n := len(campaigns)
	ps = make([][]float64, n)
	us = make([][]float64, n)
	for i := 0; i < n; i++ {
		ps[i] = make([]float64, n)
		us[i] = make([]float64, n)
	}
	for a := 0; a < n; a++ {
		if campaigns[a].Active {
			ps[a][a] = 100
			us[a][a] = 100
		}
		for b := a + 1; b < n; b++ {
			p, u := pageSim(a, b), userSim(a, b)
			ps[a][b], ps[b][a] = p, p
			us[a][b], us[b][a] = u, u
		}
	}
	return ps, us
}
