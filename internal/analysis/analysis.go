// Package analysis implements the paper's §4 comparative analyses over
// monitored honeypot campaigns: liker geolocation (Figure 1), gender/age
// demographics with KL divergence against the global network (Table 2),
// temporal like-delivery series (Figure 2), the liker social graph with
// direct and 2-hop relations (Table 3, Figure 3), page-like count
// distributions against an organic baseline (Figure 4), and pairwise
// Jaccard similarity of campaigns' page sets and liker sets (Figure 5).
//
// The analyses consume only the observables the paper's authors had:
// page like streams, the page-admin aggregate reports, public friend
// lists, and public page-like lists.
package analysis

import (
	"fmt"
	"sort"

	"repro/internal/socialnet"
	"repro/internal/stats"
)

// Campaign is one promoted honeypot page as seen by the analysis layer.
type Campaign struct {
	// ID is the paper's campaign label, e.g. "FB-USA" or "SF-ALL".
	ID string
	// Provider is the promotion channel, e.g. "Facebook.com".
	Provider string
	// Page is the honeypot page.
	Page socialnet.PageID
	// Likers are the observed likers in first-seen order.
	Likers []socialnet.UserID
	// Active is false for paid-but-never-delivered campaigns (BL-ALL,
	// MS-ALL); they appear in tables as dashes and in matrices as zero
	// rows.
	Active bool
}

// ProviderFacebook is the provider label for ad campaigns.
const ProviderFacebook = "Facebook.com"

// ALMSGroup is the synthetic provider group for likers shared between
// AuthenticLikes and MammothSocials campaigns (§4.3).
const ALMSGroup = "ALMS"

// GeoRow is one campaign's liker-country breakdown (Figure 1).
type GeoRow struct {
	CampaignID string
	// Percent maps the study countries (plus "Other") to percentages.
	Percent map[string]float64
	Total   int
}

// knownCountries returns the study-country membership set used to fold
// everything else into "Other".
func knownCountries() map[string]bool {
	known := make(map[string]bool)
	for _, c := range socialnet.StudyCountries() {
		known[c] = true
	}
	return known
}

// geoRowFrom normalizes accumulated per-country liker counts into a
// Figure 1 row. It builds a fresh percentage map rather than scaling
// counts in place: aggregator Finalize must not destroy observe-state,
// because the crawl checkpoint may snapshot that state after a
// finalize (e.g. tables written, then the final checkpoint) and a
// resume would otherwise re-normalize percentages as if they were
// counts.
func geoRowFrom(id string, counts map[string]float64, total int) GeoRow {
	pct := make(map[string]float64, len(counts))
	for k, v := range counts {
		pct[k] = v
	}
	if total > 0 {
		for k := range pct {
			pct[k] = 100 * pct[k] / float64(total)
		}
	}
	return GeoRow{CampaignID: id, Percent: pct, Total: total}
}

// DemoRow is one campaign's Table 2 row.
type DemoRow struct {
	CampaignID string
	FemalePct  float64
	MalePct    float64
	// AgePct is the age distribution (percent) in Table 2 bracket order.
	AgePct [6]float64
	// KL is the divergence (bits) of the age distribution from the
	// global Facebook age distribution.
	KL float64
	N  int
}

// demoRowFrom turns one campaign's gender/age tally into a Table 2
// row.
func demoRowFrom(id string, t crawlDemoTally) (DemoRow, error) {
	row := DemoRow{CampaignID: id, N: t.N}
	if t.NF+t.NM > 0 {
		row.FemalePct = 100 * float64(t.NF) / float64(t.NF+t.NM)
		row.MalePct = 100 * float64(t.NM) / float64(t.NF+t.NM)
	}
	total := 0.0
	for _, v := range t.Age {
		total += v
	}
	if total > 0 {
		for i, v := range t.Age {
			row.AgePct[i] = 100 * v / total
		}
		kl, err := stats.KLDivergence(t.Age[:], socialnet.GlobalAgeDistribution())
		if err != nil {
			return DemoRow{}, fmt.Errorf("analysis: demographics KL: %w", err)
		}
		row.KL = kl
	}
	return row, nil
}

// GlobalDemoRow returns the reference row (last row of Table 2).
func GlobalDemoRow() DemoRow {
	p := socialnet.GlobalFacebookProfile()
	row := DemoRow{CampaignID: "Facebook", FemalePct: 46, MalePct: 54}
	fr := p.AgeFractions()
	for i, v := range fr {
		row.AgePct[i] = 100 * v
	}
	return row
}

// SortCampaigns orders campaigns in the paper's roster order given the
// roster IDs; campaigns not in the roster go last alphabetically.
func SortCampaigns(campaigns []Campaign, rosterOrder []string) []Campaign {
	rank := make(map[string]int, len(rosterOrder))
	for i, id := range rosterOrder {
		rank[id] = i
	}
	out := append([]Campaign(nil), campaigns...)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := rank[out[i].ID]
		rj, jok := rank[out[j].ID]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		default:
			return out[i].ID < out[j].ID
		}
	})
	return out
}
