package detect

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/socialnet"
)

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

func parseInt(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("detect: bad integer key %q", s)
	}
	return v, nil
}

// pairKey identifies an unordered user pair, stored with a < b.
type pairKey struct{ a, b socialnet.UserID }

func makePair(a, b socialnet.UserID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// coactionSketch is one page's streamable lockstep evidence: its likers
// bucketed into Window-aligned bins, each bucket capped at the `cap`
// smallest user IDs, plus a per-pair refcount of how many bins the pair
// co-occupies. It is the unit the batch Lockstep pass folds over and
// the unit the StreamScorer maintains incrementally per tracked page —
// one code path, two drivers.
//
// The capped bucket keeps the cap smallest members of the bin's full
// user set (truncate-after-sort semantics): inserting a user either
// lands it in the kept set, evicting the current largest, or bounces
// off when the bucket is full of smaller IDs. Evicted users never
// return — the kept set only ever selects downward — so the sketch is
// a pure function of the {user, bin} SET, independent of arrival
// order. Each insert touches at most one bucket's members, so the
// incremental cost is O(bucket) <= O(cap) per event: pair counts for
// the new member are added and the evictee's retired in the same
// sweep.
//
// observe still refuses out-of-order input (at < last): the sketch
// deliberately shares the featureFold's poison/resync state machine
// (DESIGN §14) rather than relying on the order-insensitivity
// argument above, so any future order-sensitive refinement (bin
// expiry, densest-window tracking) inherits an exactness guarantee
// instead of a silent approximation. A page's events span shards, and
// bounded ticks drain shards in index order, so cross-tick
// out-of-order delivery on a page is routine — the owner resyncs the
// sketch from the reader's consumed prefix via ReplayPage.
type coactionSketch struct {
	window int64 // bin width, ns
	cap    int   // MaxBucketUsers
	last   int64 // latest in-order timestamp folded, ns
	count  int   // events folded (diagnostics; not part of the verdict)
	// buckets maps bin -> kept users, sorted ascending.
	buckets map[int64][]socialnet.UserID
	// pairs counts, per unordered user pair, the bins whose kept sets
	// contain both. pairs[k] > 0 <=> the pair co-acts on this page.
	pairs map[pairKey]int
	// flip, when set, hears every pair whose count moves between 0 and
	// 1 in either direction — the page-level co-action changes the
	// owning lockstepIndex keeps its qualified pairs by — batched per
	// member: u's pairs with each of vs switched on (or off). ons and
	// offs are the reused batch buffers.
	flip      func(u socialnet.UserID, vs []socialnet.UserID, on bool)
	ons, offs []socialnet.UserID
}

func newCoactionSketch(window int64, capUsers int) *coactionSketch {
	return &coactionSketch{
		window:  window,
		cap:     capUsers,
		buckets: make(map[int64][]socialnet.UserID),
		pairs:   make(map[pairKey]int),
	}
}

// observe folds one like into the sketch. It returns false — leaving
// the sketch untouched — when the like is out of order (strictly
// before the latest folded time); the caller must then poison the
// sketch and rebuild it from a sorted replay. The journal guarantees a
// user likes a page at most once, so u is never already present.
func (s *coactionSketch) observe(u socialnet.UserID, atNS int64) bool {
	if atNS < s.last {
		return false
	}
	s.last = atNS
	s.count++
	bin := atNS / s.window
	b := s.buckets[bin]
	// Sorted insert.
	i := sort.Search(len(b), func(i int) bool { return b[i] >= u })
	b = append(b, 0)
	copy(b[i+1:], b[i:])
	b[i] = u
	var evicted socialnet.UserID
	hasEvict := false
	if len(b) > s.cap {
		evicted = b[len(b)-1]
		b = b[:len(b)-1]
		hasEvict = true
	}
	s.buckets[bin] = b
	if hasEvict && evicted == u {
		return true // bounced off a full bucket of smaller IDs: no pair change
	}
	// u joined the kept set; pair it with every other member, and
	// retire the evictee's pairs with those same members in one sweep.
	report := s.flip != nil
	ons, offs := s.ons[:0], s.offs[:0]
	for _, v := range b {
		if v == u {
			continue
		}
		k := makePair(u, v)
		if s.pairs[k]++; s.pairs[k] == 1 && report {
			ons = append(ons, v)
		}
		if hasEvict {
			k := makePair(evicted, v)
			if s.pairs[k]--; s.pairs[k] == 0 {
				delete(s.pairs, k)
				if report {
					offs = append(offs, v)
				}
			}
		}
	}
	if report {
		if len(ons) > 0 {
			s.flip(u, ons, true)
		}
		if len(offs) > 0 {
			s.flip(evicted, offs, false)
		}
		s.ons, s.offs = ons, offs
	}
	return true
}

// lockstepIndex is the one lockstep engine: the per-page co-action
// sketches plus the small index that says when their group report can
// change. Only pairs co-acting on at least MinPages pages — the
// qualified pairs — ever reach the union-find, so the index keeps just
// that set. A sketch reports each pair whose page-level co-action
// switches on or off; a probe of the pair's other pages then decides
// whether it is, or was, qualified. The report goes stale only when a
// qualified pair appears, disappears, or gains or loses a page, and a
// recompute walks the qualified pairs alone. A like whose new pairs
// all sit on fewer than MinPages pages — every like of an account with
// fewer than MinPages tracked likes — leaves the report as it is.
//
// The batch Lockstep pass and the StreamScorer both drive it, so their
// reports are one function of the same sketches.
type lockstepIndex struct {
	cfg      LockstepConfig
	sketches map[socialnet.PageID]*coactionSketch
	// userPages lists, per user, the sketched pages the user liked — a
	// superset of the pages whose kept buckets hold the user, so a pair
	// is probed on the shorter of its two users' lists and no
	// cross-page pair map is ever built.
	userPages map[socialnet.UserID][]socialnet.PageID
	// partners holds the qualified pairs (co-acting on >= MinPages
	// pages) as each user's sorted qualified partners, both ways round:
	// a sketch's flip batch shares one user, so it costs one lookup
	// here and then searches in a short list.
	partners map[socialnet.UserID][]socialnet.UserID
	// stale is set when the qualified pairs' page sets change; report
	// clears it.
	stale bool
}

func newLockstepIndex(cfg LockstepConfig) *lockstepIndex {
	return &lockstepIndex{
		cfg:       cfg,
		sketches:  make(map[socialnet.PageID]*coactionSketch),
		userPages: make(map[socialnet.UserID][]socialnet.PageID),
		partners:  make(map[socialnet.UserID][]socialnet.UserID),
		stale:     true,
	}
}

// newSketch returns an empty sketch of the index's shape, not yet
// installed: rebuilds fold into one off to the side, then install it.
func (x *lockstepIndex) newSketch() *coactionSketch {
	return newCoactionSketch(int64(x.cfg.Window), x.cfg.MaxBucketUsers)
}

// liked records that u liked page p. Each (user, page) like must be
// recorded once, before its fold reaches an installed sketch — the
// probes need the list to cover every page whose sketch keeps u.
func (x *lockstepIndex) liked(u socialnet.UserID, p socialnet.PageID) {
	x.userPages[u] = append(x.userPages[u], p)
}

// observe folds one like into page p's live sketch, creating it on
// first use. Like coactionSketch.observe it returns false, changing
// nothing, for an out-of-order like: the caller rebuilds the page and
// installs the result.
func (x *lockstepIndex) observe(p socialnet.PageID, u socialnet.UserID, atNS int64) bool {
	sk := x.sketches[p]
	if sk == nil {
		sk = x.newSketch()
		x.install(p, sk)
	}
	return sk.observe(u, atNS)
}

// install makes sk page p's live sketch and applies the pair diff
// against the sketch it replaces (none on a first install), so the
// qualified pairs follow a rebuilt page exactly. Cost: O(pairs of both
// sketches) plus one probe per changed pair.
func (x *lockstepIndex) install(p socialnet.PageID, sk *coactionSketch) {
	old := x.sketches[p]
	x.sketches[p] = sk
	sk.flip = func(u socialnet.UserID, vs []socialnet.UserID, on bool) { x.flipped(p, u, vs, on) }
	one := make([]socialnet.UserID, 1)
	if old != nil {
		old.flip = nil
		for k := range old.pairs {
			if sk.pairs[k] == 0 {
				one[0] = k.b
				x.flipped(p, k.a, one, false)
			}
		}
	}
	for k := range sk.pairs {
		if old == nil || old.pairs[k] == 0 {
			one[0] = k.b
			x.flipped(p, k.a, one, true)
		}
	}
}

// flipped applies page p's co-action changes of u's pairs with each of
// vs: on means a pair now co-acts there, off that it no longer does.
// The qualified pairs are exact before the call, so membership says
// whether a pair was qualified; a probe of its other pages, cut off at
// the count that matters, says whether it is now.
func (x *lockstepIndex) flipped(p socialnet.PageID, u socialnet.UserID, vs []socialnet.UserID, on bool) {
	if len(x.userPages[u]) < x.cfg.MinPages {
		return // u likes too few pages for any of its pairs to qualify
	}
	qs := x.partners[u]
	for _, v := range vs {
		_, was := slices.BinarySearch(qs, v)
		k := makePair(u, v)
		switch {
		case on && !was:
			if x.otherPages(p, k, x.cfg.MinPages-1) < x.cfg.MinPages-1 {
				continue
			}
			x.link(u, v)
			qs = x.partners[u]
		case !on && !was:
			continue
		case !on && x.otherPages(p, k, x.cfg.MinPages) < x.cfg.MinPages:
			x.unlink(u, v)
			qs = x.partners[u]
		}
		x.stale = true
	}
}

// link records the qualified pair {u, v}.
func (x *lockstepIndex) link(u, v socialnet.UserID) {
	for _, e := range [2][2]socialnet.UserID{{u, v}, {v, u}} {
		qs := x.partners[e[0]]
		i, _ := slices.BinarySearch(qs, e[1])
		x.partners[e[0]] = slices.Insert(qs, i, e[1])
	}
}

// unlink drops the qualified pair {u, v}.
func (x *lockstepIndex) unlink(u, v socialnet.UserID) {
	for _, e := range [2][2]socialnet.UserID{{u, v}, {v, u}} {
		qs := x.partners[e[0]]
		i, _ := slices.BinarySearch(qs, e[1])
		if qs = slices.Delete(qs, i, i+1); len(qs) == 0 {
			delete(x.partners, e[0])
		} else {
			x.partners[e[0]] = qs
		}
	}
}

// otherPages counts the pages other than p on which pair k co-acts,
// stopping once it reaches limit. It probes the shorter of the two
// users' page lists, newest first: O(pages of the lighter user).
func (x *lockstepIndex) otherPages(p socialnet.PageID, k pairKey, limit int) int {
	n := 0
	if limit <= 0 {
		return n
	}
	pages := x.userPages[k.a]
	if alt := x.userPages[k.b]; len(alt) < len(pages) {
		pages = alt
	}
	for i := len(pages) - 1; i >= 0; i-- {
		q := pages[i]
		if q == p {
			continue
		}
		if sk := x.sketches[q]; sk != nil && sk.pairs[k] > 0 {
			if n++; n == limit {
				break
			}
		}
	}
	return n
}

// report derives the group report from the qualified pairs: union
// them, and report components of MinUsers or more. Cost: O(qualified
// pairs × pages of the lighter user of each). Groups are sorted
// by their smallest member, users and pages ascending — a pure
// function of the sketches, so the batch and streaming drivers produce
// byte-identical output. It clears stale.
func (x *lockstepIndex) report() []LockstepGroup {
	x.stale = false
	uf := newUnionFind()
	// Each qualified pair is met from both ends; each end adds the
	// pair's pages to its own user's evidence.
	memberPages := make(map[socialnet.UserID]map[socialnet.PageID]struct{}, len(x.partners))
	for a, qs := range x.partners {
		m := make(map[socialnet.PageID]struct{})
		memberPages[a] = m
		for _, b := range qs {
			uf.union(a, b)
			k := makePair(a, b)
			pages := x.userPages[k.a]
			if alt := x.userPages[k.b]; len(alt) < len(pages) {
				pages = alt
			}
			for _, p := range pages {
				if sk := x.sketches[p]; sk != nil && sk.pairs[k] > 0 {
					m[p] = struct{}{}
				}
			}
		}
	}
	clusters := make(map[socialnet.UserID][]socialnet.UserID)
	for u := range memberPages {
		r := uf.find(u)
		clusters[r] = append(clusters[r], u)
	}
	type cluster struct {
		min socialnet.UserID
		us  []socialnet.UserID
	}
	ordered := make([]cluster, 0, len(clusters))
	for _, us := range clusters {
		if len(us) < x.cfg.MinUsers {
			continue
		}
		sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
		ordered = append(ordered, cluster{min: us[0], us: us})
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].min < ordered[j].min })
	var out []LockstepGroup
	for _, c := range ordered {
		pageSet := make(map[socialnet.PageID]struct{})
		for _, u := range c.us {
			for p := range memberPages[u] {
				pageSet[p] = struct{}{}
			}
		}
		pgs := make([]socialnet.PageID, 0, len(pageSet))
		for p := range pageSet {
			pgs = append(pgs, p)
		}
		sort.Slice(pgs, func(i, j int) bool { return pgs[i] < pgs[j] })
		out = append(out, LockstepGroup{Users: c.us, Pages: pgs})
	}
	return out
}

// ---- persisted state ----

// sketchState is a coactionSketch's wire form for the scorer's
// checkpoint sidecar. Pair refcounts are NOT serialized: they are a
// pure function of the kept buckets (rebuild sweeps each bucket once),
// so restore recomputes them — smaller sidecars, no drift (the §14
// reconstructibility rule).
type sketchState struct {
	Last    int64                         `json:"last"`
	Count   int                           `json:"count"`
	Buckets map[string][]socialnet.UserID `json:"buckets"`
}

func (s *coactionSketch) marshalState() sketchState {
	st := sketchState{
		Last:    s.last,
		Count:   s.count,
		Buckets: make(map[string][]socialnet.UserID, len(s.buckets)),
	}
	for bin, us := range s.buckets {
		st.Buckets[formatInt(bin)] = append([]socialnet.UserID(nil), us...)
	}
	return st
}

// restoreSketch rebuilds a sketch — pair counts included — from its
// wire form.
func restoreSketch(st sketchState, window int64, capUsers int) (*coactionSketch, error) {
	s := newCoactionSketch(window, capUsers)
	s.last = st.Last
	s.count = st.Count
	for key, us := range st.Buckets {
		bin, err := parseInt(key)
		if err != nil {
			return nil, err
		}
		kept := append([]socialnet.UserID(nil), us...)
		sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
		s.buckets[bin] = kept
		for i := 0; i < len(kept); i++ {
			for j := i + 1; j < len(kept); j++ {
				s.pairs[pairKey{kept[i], kept[j]}]++
			}
		}
	}
	return s, nil
}
