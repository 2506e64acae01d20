// Package detect implements the fraud-detection algorithms the paper's
// findings motivate (§5): a like-burst detector (SF/AL/MS delivered
// likes in ≤2-hour bursts), a lockstep co-liking detector in the spirit
// of CopyCatch [4] (groups of accounts liking the same pages in the same
// time windows), an isolated-component sybil heuristic (farm accounts
// form pairs/triplets disconnected from the organic graph), and a
// composite account scorer used by the platform's termination sweep.
package detect

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/socialnet"
)

// FeatureWindow is the burst window every scorer in the package shares:
// the paper's burst farms delivered likes in ≤2-hour bursts (§4.4), so
// MaxIn2h/Burst2h are defined over 2-hour sliding windows.
const FeatureWindow = 2 * time.Hour

// featureFold is the canonical per-like transition function of the
// burst features. Both the batch path (FeaturesFromTimes folds a sorted
// time slice through it) and the streaming path (StreamScorer folds
// journal events through it as they arrive) run this exact code, which
// is what makes batch and streaming scores byte-identical.
//
// The fold consumes timestamps in non-decreasing order and maintains a
// deque of the times inside the trailing window: on each like the
// expired front is popped, the like is pushed, and the deque length is
// the population of the window ending at that like. The running best
// equals the classic two-pointer scan over the full sorted slice, but
// the retained state is bounded by the densest window's population —
// the property the streaming scorer's per-account memory bound rests
// on. Observe reports a monotonicity violation instead of folding,
// letting the caller fall back to a sort (batch) or a resync
// (streaming); exactness under out-of-order input is the caller's
// responsibility, not the fold's.
type featureFold struct {
	window int64 // ns
	count  int
	best   int
	last   int64
	deque  []int64 // times (UnixNano) in (last-window, last], ascending
}

// observe folds one like time (UnixNano). It returns false — without
// folding — if at precedes the previously folded time.
func (f *featureFold) observe(at int64) bool {
	if f.count > 0 && at < f.last {
		return false
	}
	lo := 0
	for lo < len(f.deque) && at-f.deque[lo] > f.window {
		lo++
	}
	// Advance the head by reslicing: append reuses the remaining
	// capacity and, once exhausted, reallocates sized to the live
	// window population, so the backing array never grows past O(the
	// densest window) and each element is copied O(1) amortized times.
	f.deque = append(f.deque[lo:], at)
	if n := len(f.deque); n > f.best {
		f.best = n
	}
	f.count++
	f.last = at
	return true
}

// foldSorted folds a sorted time slice from scratch.
func foldSorted(ts []time.Time, window time.Duration) featureFold {
	f := featureFold{window: int64(window)}
	for _, t := range ts {
		f.observe(t.UnixNano())
	}
	return f
}

// ensureSorted returns the slice itself when it is already
// non-decreasing — a single monotonicity scan, no allocation — and a
// sorted copy otherwise. Like times read off a user stream arrive
// append-ordered, so the sweep's per-account hot path takes
// the scan; only genuinely out-of-order input (late bulk-history
// imports) pays the sort.
func ensureSorted(times []time.Time) []time.Time {
	for i := 1; i < len(times); i++ {
		if times[i].Before(times[i-1]) {
			ts := append([]time.Time(nil), times...)
			sort.Slice(ts, func(a, b int) bool { return ts[a].Before(ts[b]) })
			return ts
		}
	}
	return times
}

// BurstScore measures how concentrated in time a like sequence is: the
// largest fraction of likes falling inside any sliding window of the
// given width. 1.0 means every like landed within one window (pure bot
// burst); organic activity spread over months scores near 1/n per like.
func BurstScore(times []time.Time, window time.Duration) (float64, error) {
	if window <= 0 {
		return 0, fmt.Errorf("detect: non-positive window %s", window)
	}
	if len(times) == 0 {
		return 0, nil
	}
	f := foldSorted(ensureSorted(times), window)
	return float64(f.best) / float64(f.count), nil
}

// MaxLikesInWindow returns the largest number of likes inside any
// sliding window of the given width — the absolute-burst signal: 100
// page likes inside two hours is damning regardless of account age.
func MaxLikesInWindow(times []time.Time, window time.Duration) (int, error) {
	if window <= 0 {
		return 0, fmt.Errorf("detect: non-positive window %s", window)
	}
	if len(times) == 0 {
		return 0, nil
	}
	return foldSorted(ensureSorted(times), window).best, nil
}

// AccountFeatures are the observable signals the composite scorer uses.
type AccountFeatures struct {
	User socialnet.UserID
	// LikeCount is the account's total page likes. Farm accounts carry
	// hundreds to thousands (Figure 4).
	LikeCount int
	// FriendCount is the declared friend-list length (profiles display
	// it even when the list itself is private; the platform sees it
	// regardless).
	FriendCount int
	// Burst2h is BurstScore over the account's like timestamps with a
	// 2-hour window (fraction of all likes in the densest window).
	Burst2h float64
	// MaxIn2h is the absolute count of likes in the densest 2-hour
	// window.
	MaxIn2h int
	// IslandSize is the size of the account's connected component in
	// the liker subgraph, 0 if not computed. Sizes 2-3 with no organic
	// ties are the farm-island signature.
	IslandSize int
}

// ExtractFeatures computes features for an account from the store.
func ExtractFeatures(st *socialnet.Store, u socialnet.UserID) (AccountFeatures, error) {
	if _, err := st.User(u); err != nil {
		return AccountFeatures{}, err
	}
	likes := st.LikesOfUser(u)
	times := make([]time.Time, len(likes))
	for i, lk := range likes {
		times[i] = lk.At
	}
	return FeaturesFromTimes(st, u, times)
}

// FeaturesFromTimes computes features from a precollected like-time
// slice — the path the platform's fraud sweep uses after copying each
// account's like times out of its user-side stream, unsorted, instead
// of reading the canonically sorted index. The caller is responsible
// for the slice covering the account's complete like activity; order
// does not matter (already-sorted input is detected by a single scan,
// anything else is sorted into a private copy).
//
// It is one fold of the canonical featureFold transition — the same
// function the StreamScorer applies per arriving journal event — so
// the two paths cannot drift: Burst2h and MaxIn2h are both read off
// the fold's final state (Burst2h = MaxIn2h / LikeCount, the same
// division BurstScore performs).
func FeaturesFromTimes(st *socialnet.Store, u socialnet.UserID, times []time.Time) (AccountFeatures, error) {
	f := foldSorted(ensureSorted(times), FeatureWindow)
	return featuresFromFold(f, u, st.DeclaredFriendCount(u)), nil
}

// featuresFromFold reads the burst features off a completed fold.
func featuresFromFold(f featureFold, u socialnet.UserID, friends int) AccountFeatures {
	out := AccountFeatures{
		User:        u,
		LikeCount:   f.count,
		FriendCount: friends,
		MaxIn2h:     f.best,
	}
	if f.count > 0 {
		out.Burst2h = float64(f.best) / float64(f.count)
	}
	return out
}

// Score combines the features into a suspicion score in [0,1].
//
// The weights encode the paper's signatures: dense 2-hour like bursts
// are the strongest bot tell (the burst farms delivered 700+ likes in
// single windows, and their accounts repeat the pattern across jobs);
// an extreme ratio of page likes to friends is the reuse-across-jobs
// tell; membership in a tiny friendship island adds a little.
// Stealth-farm accounts — many friends, few likes, trickled timing —
// score near zero by construction, which is exactly the detection
// difficulty the paper reports for BoostLikes (§5).
func (f AccountFeatures) Score() float64 {
	s := 0.0
	// Absolute burst density.
	switch {
	case f.MaxIn2h >= 50:
		s += 0.55
	case f.MaxIn2h >= 25:
		s += 0.35
	case f.MaxIn2h >= 12:
		s += 0.15
	}
	// Relative burstiness for small accounts (everything in one window).
	if f.LikeCount >= 10 && f.Burst2h >= 0.5 && f.MaxIn2h < 12 {
		s += 0.15
	}
	// Like inflation relative to social embeddedness.
	ratio := float64(f.LikeCount) / float64(f.FriendCount+1)
	switch {
	case ratio >= 20:
		s += 0.30
	case ratio >= 8:
		s += 0.20
	case ratio >= 4:
		s += 0.10
	}
	// Tiny isolated islands (pairs/triplets); singletons are just
	// private users.
	if f.IslandSize >= 2 && f.IslandSize <= 3 {
		s += 0.15
	}
	if s > 1 {
		s = 1
	}
	return s
}

// IsolatedIslands returns, for the given user set, the size of each
// user's connected component within the induced subgraph of the base
// friendship graph. Pairs/triplets with no further ties are the
// SF/AL/MS-style fake-network signature (§4.3, Figure 3).
func IsolatedIslands(base *graph.Undirected, users []socialnet.UserID) map[socialnet.UserID]int {
	ids := make([]int64, len(users))
	for i, u := range users {
		ids[i] = int64(u)
	}
	return islandSizes(base.InducedSubgraph(ids))
}

// islandSizes maps every node of an induced liker subgraph to the size
// of its connected component.
func islandSizes(sub *graph.Undirected) map[socialnet.UserID]int {
	out := make(map[socialnet.UserID]int, sub.NumNodes())
	for _, comp := range sub.ConnectedComponents() {
		for _, n := range comp {
			out[socialnet.UserID(n)] = len(comp)
		}
	}
	return out
}
