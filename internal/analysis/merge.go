package analysis

import (
	"fmt"

	"repro/internal/socialnet"
)

// Sharded-crawl merge (DESIGN §15): a campaign roster split across N
// crawler processes by page hash produces N sink snapshots, and
// MergeState folds each one into a fresh aggregator built over the
// FULL roster. The merge is exact — byte-identical tables to a
// single-process crawl — because of the ownership discipline the
// sharded crawl enforces: each shard marks only its OWNED campaigns
// active, so every campaign's contributions come from exactly one
// shard, and a profile crawled by two shards (a user liking pages in
// both) is never double-counted per campaign. Under that discipline
// every fold below is a plain disjoint sum or a consistent union:
//
//   - Geo/Demo: per-campaign scalar sums — disjoint across shards.
//   - Window: per-campaign time series concatenation (Finalize sorts).
//   - CDF: member lists concatenate disjointly; the counts map unions
//     (a user's page-like count is the same full crawled list no
//     matter which shard observed the profile, unless the profile
//     drifted between the shards' crawls — resolved deterministically
//     to the larger count, counted via MergeConflicts).
//   - Jaccard: per-campaign page/user set unions — disjoint across
//     shards.
//
// A merged analyzer must be built with the TRUE active flags and the
// full baseline sample, which the shard exports carry alongside their
// sink state (crawler.ShardExport).

// CrawlMerger is the merge hook a CrawlAggregator implements: fold a
// peer aggregator's serialized State into this one. All standard §4
// crawl aggregators implement it.
type CrawlMerger interface {
	MergeState(data []byte) error
}

// MergeState implements CrawlMerger: per-campaign country tallies and
// totals add. The peer state is validated in full BEFORE any fold: a
// mid-merge error must not leave the target half-merged, because the
// caller's aggregator state is the accumulated result of an entire
// crawl.
func (g *CrawlGeoAggregator) MergeState(data []byte) error {
	peer := NewCrawlGeoAggregator(g.campaigns)
	if err := peer.Restore(data); err != nil {
		return err
	}
	for i := range g.campaigns {
		if g.counts[i] == nil && (len(peer.counts[i]) > 0 || peer.totals[i] > 0) {
			return fmt.Errorf("analysis: merge geo: shard state has data for inactive campaign %q", g.campaigns[i].ID)
		}
	}
	for i := range g.campaigns {
		for label, n := range peer.counts[i] {
			g.counts[i][label] += n
		}
		g.totals[i] += peer.totals[i]
	}
	return nil
}

// MergeState implements CrawlMerger: per-campaign demographic tallies
// add fieldwise.
func (d *CrawlDemoAggregator) MergeState(data []byte) error {
	peer := NewCrawlDemoAggregator(d.campaigns)
	if err := peer.Restore(data); err != nil {
		return err
	}
	for i := range d.tallies {
		t, p := &d.tallies[i], &peer.tallies[i]
		for j := range t.Age {
			t.Age[j] += p.Age[j]
		}
		t.NF += p.NF
		t.NM += p.NM
		t.N += p.N
	}
	return nil
}

// MergeState implements CrawlMerger: per-campaign like-time series
// concatenate; Finalize sorts, so concatenation order never reaches
// the output.
func (w *CrawlWindowAggregator) MergeState(data []byte) error {
	peer := NewCrawlWindowAggregator(w.campaigns)
	if err := peer.Restore(data); err != nil {
		return err
	}
	for i := range w.times {
		w.times[i] = append(w.times[i], peer.times[i]...)
	}
	return nil
}

// MergeState implements CrawlMerger: member lists concatenate (disjoint
// under campaign ownership), the per-user page-like counts union.
//
// Two shards CAN legitimately disagree on one user's page-like count:
// the shards crawl the same live world at different times, and a
// profile that gained likes between the two observations drifts. That
// is crawl-timing skew, not corruption, so the union resolves it
// deterministically — the larger count wins, independent of merge
// order — instead of aborting the merge of an entire multi-shard
// crawl. Resolved conflicts are counted and reported by
// MergeConflicts so callers can surface the drift; against a quiesced
// world the count is zero and merged tables stay byte-identical to a
// single-process crawl.
func (a *CrawlCDFAggregator) MergeState(data []byte) error {
	peer := NewCrawlCDFAggregator(a.campaigns, nil)
	if err := peer.Restore(data); err != nil {
		return err
	}
	for i := range a.members {
		a.members[i] = append(a.members[i], peer.members[i]...)
	}
	for u, n := range peer.counts {
		if have, ok := a.counts[u]; ok && have != n {
			a.conflicts++
			if have > n {
				continue
			}
		}
		a.counts[u] = n
	}
	return nil
}

// MergeConflicts reports how many per-user count conflicts MergeState
// resolved (one per user per conflicting shard pair) — nonzero means
// profiles changed between two shards' observations of them.
func (a *CrawlCDFAggregator) MergeConflicts() int { return a.conflicts }

// MergeState implements CrawlMerger: per-campaign page bitmaps and
// liker sets union.
func (j *CrawlJaccardAggregator) MergeState(data []byte) error {
	peer := NewCrawlJaccardAggregator(j.campaigns)
	if err := peer.Restore(data); err != nil {
		return err
	}
	for i := range j.campaigns {
		for pg, ok := range peer.pageSeen[i] {
			if ok {
				j.pageSeen[i] = markPage(j.pageSeen[i], socialnet.PageID(pg))
			}
		}
		for u := range peer.users[i] {
			j.users[i][u] = struct{}{}
		}
	}
	return nil
}

// ShardActive returns the roster with each campaign's Active flag
// masked to campaigns the given shard owns (ownership = owns(Page)).
// This is the merge contract's other half: a sharded crawl builds its
// analyzer over the full roster but activates only owned campaigns, so
// the per-campaign folds are disjoint across shards and the merged
// tables equal a single-process crawl's byte-for-byte.
func ShardActive(campaigns []CrawlCampaign, owns func(socialnet.PageID) bool) []CrawlCampaign {
	out := append([]CrawlCampaign(nil), campaigns...)
	for i := range out {
		if !owns(out[i].Page) {
			out[i].Active = false
		}
	}
	return out
}
