package detect

import (
	"sort"
	"time"

	"repro/internal/parallel"
	"repro/internal/socialnet"
)

// BatchFeatures is the batch scoring path: it computes AccountFeatures
// (island sizes included) for every distinct account in the given set,
// returned sorted by user ID. This is the feature-assembly core the
// platform's fraud sweep drives, and the reference the streaming
// scorer is pinned byte-identical against.
//
// Both inputs are read per examined account, never for the whole
// world: islands come from the friendship subgraph induced on the
// accounts, and each account's like times are an unsorted copy of its
// user-side like stream (the same records as its journal events) into
// one reused buffer per chunk. The features consume only the timestamp
// multiset (append order is usually time order, so the sorted
// fast-path usually skips the sort), so the output is bit-deterministic
// for any worker count.
func BatchFeatures(st *socialnet.Store, accounts []socialnet.UserID, workers int) ([]AccountFeatures, error) {
	islands := islandSizes(st.FriendSubgraph(accounts))

	// Sort and dedupe: an account that liked several honeypots (the
	// ALMS reuse scenario) is examined exactly once.
	sorted := append([]socialnet.UserID(nil), accounts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	uniq := sorted[:0]
	for i, uid := range sorted {
		if i == 0 || uid != sorted[i-1] {
			uniq = append(uniq, uid)
		}
	}
	sorted = uniq

	out := make([]AccountFeatures, len(sorted))
	err := parallel.Chunks(workers, len(sorted), 64, func(lo, hi int) error {
		var times []time.Time
		for i := lo; i < hi; i++ {
			uid := sorted[i]
			times = st.AppendLikeTimesOfUser(times[:0], uid)
			f, err := FeaturesFromTimes(st, uid, times)
			if err != nil {
				return err
			}
			f.IslandSize = islands[uid]
			out[i] = f
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BatchVerdicts is the batch engine for the composite Verdict model:
// BatchFeatures for the burst dimension, Lockstep over the given pages
// (nil means the store's honeypot pages, matching the StreamScorer's
// default tracked set) for the group dimension, and the account's
// platform status — one verdict per distinct account, sorted by user
// ID. At any quiescent point this matches StreamScorer verdicts over
// the same account set byte for byte.
func BatchVerdicts(st *socialnet.Store, accounts []socialnet.UserID, pages []socialnet.PageID, lockCfg LockstepConfig, workers int) ([]Verdict, error) {
	feats, err := BatchFeatures(st, accounts, workers)
	if err != nil {
		return nil, err
	}
	if pages == nil {
		pages = st.HoneypotPages()
	}
	groups, err := Lockstep(st, pages, lockCfg)
	if err != nil {
		return nil, err
	}
	verdicts := make([]Verdict, len(feats))
	for i, f := range feats {
		v := Verdict{Features: f, Score: f.Score()}
		if u, err := st.User(f.User); err == nil {
			v.Terminated = u.Status == socialnet.StatusTerminated
		}
		verdicts[i] = v
	}
	AttachLockstep(verdicts, groups)
	return verdicts, nil
}
