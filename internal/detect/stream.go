package detect

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/socialnet"
)

// StreamScorerConfig parameterizes the streaming fraud scorer.
type StreamScorerConfig struct {
	// Window is the burst window (default FeatureWindow, the paper's 2h).
	Window time.Duration
	// Pages is the tracked page set: a like on a tracked page enrolls
	// the liker for scoring. Nil tracks the store's honeypot pages —
	// the §5 population the batch sweep examines.
	Pages []socialnet.PageID
	// Lockstep parameterizes the per-page co-action sketches behind the
	// verdicts' lockstep dimension. The zero value (or any invalid
	// config) falls back to DefaultLockstepConfig.
	Lockstep LockstepConfig
}

// StreamScorer is the streaming counterpart of the batch fraud sweep
// (§5): it consumes the store's like-event journal through an
// incremental cursor — the honeypot Monitor.observe pattern,
// generalized from one page's stream to the whole journal — and
// maintains per-account burst features incrementally, so a tick costs
// O(new events) regardless of how much history the journal holds.
//
// Per enrolled account the retained state is bounded: the featureFold's
// sliding-window deque (bounded by the densest window's population),
// three counters, and a union-find node. Island membership is kept by
// an incremental union-find over the enrolled set — enrolling an
// account unions it with its already-enrolled friends, which yields
// exactly the connected components IsolatedIslands computes over the
// induced subgraph, without ever re-running the full computation.
//
// Equivalence contract: after consuming the journal to any quiescent
// point, Verdict(u) carries byte-for-byte the AccountFeatures and
// Score() the batch path (BatchFeatures over the enrolled set) computes
// at the same point. Two invariants make this exact:
//
//   - Per-account event order: a user's events all live in one journal
//     shard, in append order, so the incremental fold sees them in the
//     order a batch scan would. A genuinely out-of-order arrival (a
//     bulk-history import stamped in the past) marks the account dirty;
//     at tick end the account is rebuilt from the reader's consumed
//     prefix via ReplayUser — O(shard prefix), rare, and exact.
//   - Quiescent friendship graph: friends are read at enrollment (for
//     the union-find) and at verdict time (FriendCount), so the
//     equivalence holds when friendship edges don't change while the
//     scorer runs — true for a built world being served, and asserted
//     by the equivalence tests.
//
// A StreamScorer is safe for concurrent use; Tick and verdict reads
// serialize on one mutex.
type StreamScorer struct {
	st     *socialnet.Store
	window time.Duration
	// tracked is the tracked page set, sorted and deduplicated; it is
	// fixed at construction.
	tracked []socialnet.PageID

	mu       sync.Mutex
	reader   *socialnet.Reader
	accounts map[socialnet.UserID]*featureFold
	dirty    map[socialnet.UserID]bool
	// pageLikers is the enrolled liker set per tracked page, from
	// consumed journal events (not the store index, whose tail the
	// cursor may not have reached yet).
	pageLikers map[socialnet.PageID]map[socialnet.UserID]bool
	// islands is the incremental union-find over enrolled accounts.
	islands *unionFind
	// lockstep holds one co-action sketch per tracked page that has
	// consumed events — the streaming half of the lockstep detector —
	// and the qualified-pair index that says when its report changes.
	// dirtyPages marks sketches poisoned by an out-of-order arrival
	// (a page's likers span shards, so bounded ticks deliver its
	// events across time order routinely); the tick-end resync
	// rebuilds them exactly from the reader's consumed prefix.
	lockstep   *lockstepIndex
	dirtyPages map[socialnet.PageID]bool
	// groups caches the derived lockstep report and groupOf its
	// membership index; a verdict read recomputes both only when the
	// index says the report went stale.
	groups  []LockstepGroup
	groupOf map[socialnet.UserID]LockstepVerdict
	// offScratch backs the cursor snapshot in MarshalState, reused
	// across checkpoints so the periodic sidecar write stops allocating
	// a fresh offsets slice every tick.
	offScratch []int
}

// NewStreamScorer builds a scorer positioned at the start of the
// store's journal. Nothing is consumed until the first Tick.
func NewStreamScorer(st *socialnet.Store, cfg StreamScorerConfig) *StreamScorer {
	s := newStreamScorerShell(st, cfg)
	s.reader = st.Journal().NewReader()
	return s
}

// newStreamScorerShell builds everything but the reader.
func newStreamScorerShell(st *socialnet.Store, cfg StreamScorerConfig) *StreamScorer {
	window := cfg.Window
	if window <= 0 {
		window = FeatureWindow
	}
	pages := cfg.Pages
	if pages == nil {
		pages = st.HoneypotPages()
	}
	tracked := append([]socialnet.PageID(nil), pages...)
	slices.Sort(tracked)
	tracked = slices.Compact(tracked)
	lockCfg := cfg.Lockstep
	if lockCfg.Validate() != nil {
		lockCfg = DefaultLockstepConfig()
	}
	return &StreamScorer{
		st:         st,
		window:     window,
		tracked:    tracked,
		accounts:   make(map[socialnet.UserID]*featureFold),
		dirty:      make(map[socialnet.UserID]bool),
		pageLikers: make(map[socialnet.PageID]map[socialnet.UserID]bool),
		islands:    newUnionFind(),
		lockstep:   newLockstepIndex(lockCfg),
		dirtyPages: make(map[socialnet.PageID]bool),
	}
}

// isTracked reports whether p is in the tracked page set.
func (s *StreamScorer) isTracked(p socialnet.PageID) bool {
	_, ok := slices.BinarySearch(s.tracked, p)
	return ok
}

// Tick consumes every journal event appended since the last tick and
// returns how many were consumed.
func (s *StreamScorer) Tick() int { return s.TickLimit(0) }

// TickLimit is Tick bounded to at most max events (max <= 0 means
// unbounded). The scorer's state after a sequence of bounded ticks is
// identical to one unbounded tick over the same events.
func (s *StreamScorer) TickLimit(max int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	batch := s.reader.NextLimit(max)
	for _, ev := range batch {
		s.observe(ev)
	}
	s.resyncDirty()
	return len(batch)
}

// observe folds one event. Events of non-enrolled accounts on
// untracked pages are skipped in O(1); a tracked-page like enrolls its
// account (dirty unless the like is the account's first, so the
// tick-end resync picks up any earlier events the scorer skipped
// before enrollment — cover history materialized before the honeypot
// like, likes on other pages, all of it).
func (s *StreamScorer) observe(ev socialnet.LikeEvent) {
	tracked := s.isTracked(ev.Page)
	fold, enrolled := s.accounts[ev.User]
	if !enrolled {
		if !tracked {
			return
		}
		s.enroll(ev.User)
		fold = s.accounts[ev.User]
	}
	if tracked {
		likers, ok := s.pageLikers[ev.Page]
		if !ok {
			likers = make(map[socialnet.UserID]bool)
			s.pageLikers[ev.Page] = likers
		}
		if !likers[ev.User] {
			likers[ev.User] = true
			s.lockstep.liked(ev.User, ev.Page)
		}
		s.observeSketch(ev)
	}
	if s.dirty[ev.User] {
		return // resync at tick end rebuilds from the full prefix
	}
	if !fold.observe(ev.At.UnixNano()) {
		s.dirty[ev.User] = true
	}
}

// observeSketch folds a tracked-page event into the page's co-action
// sketch, poisoning the page on out-of-order delivery — the tick-end
// resync rebuilds it from the reader's consumed prefix via ReplayPage.
func (s *StreamScorer) observeSketch(ev socialnet.LikeEvent) {
	if s.dirtyPages[ev.Page] {
		return // resync at tick end rebuilds from the full prefix
	}
	if !s.lockstep.observe(ev.Page, ev.User, ev.At.UnixNano()) {
		s.dirtyPages[ev.Page] = true
	}
}

// enroll registers a new account: a fresh fold and a union-find node
// united with every already-enrolled friend. The fold is marked dirty,
// for the tick-end replay of the likes the scorer skipped before
// enrollment, unless the enrolling like is the account's only one: the
// store appends a like to the user's stream before journaling it, so a
// one-like stream means the journal holds no other event of u, and the
// fold of that like alone is the replay's result — a brand-new farm
// account enrolls in O(1), not O(shard prefix).
func (s *StreamScorer) enroll(u socialnet.UserID) {
	s.accounts[u] = &featureFold{window: int64(s.window)}
	if s.st.LikeCountOfUser(u) > 1 {
		s.dirty[u] = true
	}
	s.islands.add(u)
	for _, f := range s.st.FriendsOf(u) {
		if _, in := s.accounts[f]; in {
			s.islands.union(u, f)
		}
	}
}

// resyncDirty rebuilds every dirty account from the reader's consumed
// prefix: the exact multiset of the account's events delivered so far,
// sorted (fast-path when already in order), folded fresh. This is the
// out-of-order escape hatch that keeps the incremental fold exact with
// bounded steady-state memory.
func (s *StreamScorer) resyncDirty() {
	// A drained map keeps its buckets, and ranging over it costs its
	// peak size: each non-empty set is swapped for a fresh map once
	// resynced, so a setup burst of enrollments is not paid again on
	// every later tick.
	if len(s.dirty) > 0 {
		for u := range s.dirty {
			var times []time.Time
			s.reader.ReplayUser(u, func(ev socialnet.LikeEvent) {
				times = append(times, ev.At)
			})
			fold := foldSorted(ensureSorted(times), s.window)
			s.accounts[u] = &fold
		}
		s.dirty = make(map[socialnet.UserID]bool)
	}
	// Poisoned page sketches rebuild the same way: ReplayPage delivers
	// the page's consumed prefix in canonical order, and the sketch is
	// a pure function of that multiset, so the rebuilt sketch is
	// exactly what uninterrupted in-order folding would have produced.
	// Installing it applies its pair diff against the poisoned sketch.
	if len(s.dirtyPages) > 0 {
		for p := range s.dirtyPages {
			sk := s.lockstep.newSketch()
			s.reader.ReplayPage(p, func(ev socialnet.LikeEvent) {
				sk.observe(ev.User, ev.At.UnixNano())
			})
			s.lockstep.install(p, sk)
		}
		s.dirtyPages = make(map[socialnet.PageID]bool)
	}
}

// Verdict is one account's composite detection outcome: the burst
// features and score, the account's lockstep group membership, and its
// platform status. Both engines produce it — the StreamScorer live,
// BatchVerdicts from a store pass — and the two agree byte for byte at
// quiescent points, so everything downstream (the /api/fraud wire
// docs, the platform's termination sweep) consumes one model.
type Verdict struct {
	Features AccountFeatures
	Score    float64
	// Lockstep is the account's slice of the lockstep group report.
	// It carries evidence, not score: group membership surfaces
	// through the verdict without perturbing Score, which stays the
	// burst/ratio/island composite the sweep's coin flips are pinned
	// against.
	Lockstep LockstepVerdict
	// Terminated reports the account's current platform status — the
	// batch sweep skips already-terminated accounts; the live service
	// reports them with their score.
	Terminated bool
}

// Verdict returns the account's current features and score, or false
// if the account is not enrolled (it has no consumed like on a tracked
// page). FriendCount and IslandSize are read at call time, matching
// the batch path's at-sweep-time reads.
func (s *StreamScorer) Verdict(u socialnet.UserID) (Verdict, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verdictLocked(u)
}

func (s *StreamScorer) verdictLocked(u socialnet.UserID) (Verdict, bool) {
	fold, ok := s.accounts[u]
	if !ok {
		return Verdict{}, false
	}
	f := featuresFromFold(*fold, u, s.st.DeclaredFriendCount(u))
	f.IslandSize = s.islands.componentSize(u)
	v := Verdict{Features: f, Score: f.Score(), Lockstep: s.groupOfLocked()[u]}
	if user, err := s.st.User(u); err == nil {
		v.Terminated = user.Status == socialnet.StatusTerminated
	}
	return v, true
}

// groupOfLocked returns the membership index for the current sketches,
// recomputing the cached group report only if a qualified pair changed
// since the last read — through the same lockstepIndex report the
// batch detector reads.
func (s *StreamScorer) groupOfLocked() map[socialnet.UserID]LockstepVerdict {
	if s.lockstep.stale {
		s.groups = s.lockstep.report()
		s.groupOf = make(map[socialnet.UserID]LockstepVerdict)
		for gi, g := range s.groups {
			lv := LockstepVerdict{Group: gi + 1, Size: len(g.Users), Pages: len(g.Pages)}
			for _, u := range g.Users {
				s.groupOf[u] = lv
			}
		}
	}
	return s.groupOf
}

// LockstepGroups returns the live lockstep group report over the
// consumed journal prefix — at any quiescent point, byte-identical to
// batch Lockstep over the tracked pages. The returned slice is shared
// with the scorer's cache; callers must not mutate it.
func (s *StreamScorer) LockstepGroups() []LockstepGroup {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groupOfLocked()
	return s.groups
}

// Accounts returns the enrolled account set, sorted by user ID.
func (s *StreamScorer) Accounts() []socialnet.UserID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]socialnet.UserID, 0, len(s.accounts))
	for u := range s.accounts {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PageLikers returns the enrolled likers of a tracked page (from
// consumed events), sorted by user ID, and whether the page is
// tracked.
func (s *StreamScorer) PageLikers(p socialnet.PageID) ([]socialnet.UserID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.isTracked(p) {
		return nil, false
	}
	likers := s.pageLikers[p]
	out := make([]socialnet.UserID, 0, len(likers))
	for u := range likers {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// TrackedPages returns the tracked page set, sorted. The set is fixed
// at construction and the slice is shared; callers must not mutate it.
func (s *StreamScorer) TrackedPages() []socialnet.PageID { return s.tracked }

// Offset returns the scorer's journal high-water mark (total events
// consumed).
func (s *StreamScorer) Offset() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reader.Offset()
}

// ---- persisted state ----

// scorerState is the JSON sidecar format. JSON object keys are decimal
// user/page IDs (JSON objects cannot key on integers); encoding/json
// marshals map keys sorted, so the bytes are deterministic for a given
// state. The union-find is NOT serialized: it is a pure function of
// the enrolled set and the (quiescent) friendship graph, so restore
// rebuilds it — cheaper than serializing and immune to drift.
type scorerState struct {
	WindowNS   int64                         `json:"window_ns"`
	Offsets    []int                         `json:"offsets"`
	Tracked    []int64                       `json:"tracked"`
	Accounts   map[string]foldState          `json:"accounts"`
	PageLikers map[string][]socialnet.UserID `json:"page_likers"`
	// Lockstep sketch state: the bin width and bucket cap pin the
	// sketch shape (restore rejects a sidecar built under different
	// ones — MinUsers/MinPages only affect group derivation and may
	// change freely), and Sketches carries each tracked page's kept
	// buckets. Pair refcounts rebuild from the buckets at restore.
	LockstepWindowNS int64                  `json:"lockstep_window_ns"`
	LockstepCap      int                    `json:"lockstep_cap"`
	Sketches         map[string]sketchState `json:"sketches"`
}

// foldState is one account's featureFold, wire form.
type foldState struct {
	Count int     `json:"count"`
	Best  int     `json:"best"`
	Last  int64   `json:"last"`
	Deque []int64 `json:"deque"`
}

// MarshalState serializes the scorer's cursor and per-account feature
// state for a checkpoint sidecar. The snapshot is taken under the
// scorer mutex, so it is consistent with exactly the events consumed
// so far: restoring it and consuming the rest of the journal yields
// the same verdicts as never having stopped.
func (s *StreamScorer) MarshalState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.offScratch = s.reader.OffsetsInto(s.offScratch)
	st := scorerState{
		WindowNS:         int64(s.window),
		Offsets:          s.offScratch,
		Accounts:         make(map[string]foldState, len(s.accounts)),
		PageLikers:       make(map[string][]socialnet.UserID, len(s.pageLikers)),
		LockstepWindowNS: int64(s.lockstep.cfg.Window),
		LockstepCap:      s.lockstep.cfg.MaxBucketUsers,
		Sketches:         make(map[string]sketchState, len(s.lockstep.sketches)),
	}
	for p, sk := range s.lockstep.sketches {
		st.Sketches[formatInt(int64(p))] = sk.marshalState()
	}
	for _, p := range s.tracked {
		st.Tracked = append(st.Tracked, int64(p))
	}
	for u, f := range s.accounts {
		st.Accounts[strconv.FormatInt(int64(u), 10)] = foldState{
			Count: f.count, Best: f.best, Last: f.last,
			Deque: append([]int64(nil), f.deque...),
		}
	}
	for p, likers := range s.pageLikers {
		us := make([]socialnet.UserID, 0, len(likers))
		for u := range likers {
			us = append(us, u)
		}
		sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
		st.PageLikers[strconv.FormatInt(int64(p), 10)] = us
	}
	return json.MarshalIndent(&st, "", " ")
}

// RestoreStreamScorer rebuilds a scorer from MarshalState output
// against the (reopened) store. It validates the persisted cursor
// against the journal — shard count must match and no offset may
// exceed its shard's current length (a crash that lost an unsynced
// tail the scorer had observed) — and that the tracked page set still
// matches the config. On any mismatch it returns an error; callers
// fall back to NewStreamScorer and rescan from the start, which is
// always correct (the journal retains everything).
func RestoreStreamScorer(st *socialnet.Store, cfg StreamScorerConfig, data []byte) (*StreamScorer, error) {
	var state scorerState
	if err := json.Unmarshal(data, &state); err != nil {
		return nil, fmt.Errorf("detect: corrupt scorer state: %w", err)
	}
	s := newStreamScorerShell(st, cfg)
	if state.WindowNS != int64(s.window) {
		return nil, fmt.Errorf("detect: scorer state window %s, config wants %s",
			time.Duration(state.WindowNS), s.window)
	}
	if len(state.Tracked) != len(s.tracked) {
		return nil, fmt.Errorf("detect: scorer state tracks %d pages, config %d",
			len(state.Tracked), len(s.tracked))
	}
	for _, p := range state.Tracked {
		if !s.isTracked(socialnet.PageID(p)) {
			return nil, fmt.Errorf("detect: scorer state tracks page %d, config does not", p)
		}
	}
	if state.LockstepWindowNS != int64(s.lockstep.cfg.Window) {
		return nil, fmt.Errorf("detect: scorer state lockstep window %s, config wants %s",
			time.Duration(state.LockstepWindowNS), s.lockstep.cfg.Window)
	}
	if state.LockstepCap != s.lockstep.cfg.MaxBucketUsers {
		return nil, fmt.Errorf("detect: scorer state lockstep bucket cap %d, config wants %d",
			state.LockstepCap, s.lockstep.cfg.MaxBucketUsers)
	}
	sketches := make(map[socialnet.PageID]*coactionSketch, len(state.Sketches))
	for key, ss := range state.Sketches {
		id, err := parseInt(key)
		if err != nil {
			return nil, fmt.Errorf("detect: scorer state sketch key %q", key)
		}
		if !s.isTracked(socialnet.PageID(id)) {
			return nil, fmt.Errorf("detect: scorer state sketches untracked page %d", id)
		}
		sk, err := restoreSketch(ss, int64(s.lockstep.cfg.Window), s.lockstep.cfg.MaxBucketUsers)
		if err != nil {
			return nil, err
		}
		sketches[socialnet.PageID(id)] = sk
	}
	reader, err := st.Journal().ReaderAt(state.Offsets)
	if err != nil {
		return nil, err
	}
	s.reader = reader
	for key, fs := range state.Accounts {
		id, err := strconv.ParseInt(key, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("detect: scorer state account key %q", key)
		}
		u := socialnet.UserID(id)
		s.accounts[u] = &featureFold{
			window: int64(s.window),
			count:  fs.Count, best: fs.Best, last: fs.Last,
			deque: append([]int64(nil), fs.Deque...),
		}
	}
	for key, likers := range state.PageLikers {
		id, err := strconv.ParseInt(key, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("detect: scorer state page key %q", key)
		}
		set := make(map[socialnet.UserID]bool, len(likers))
		for _, u := range likers {
			if !set[u] {
				set[u] = true
				s.lockstep.liked(u, socialnet.PageID(id))
			}
		}
		s.pageLikers[socialnet.PageID(id)] = set
	}
	// One pass over the restored sketches rebuilds the lockstep index:
	// each install is a diff against no sketch, probing the pages
	// installed before it.
	for _, p := range s.tracked {
		if sk, ok := sketches[p]; ok {
			s.lockstep.install(p, sk)
		}
	}
	// Rebuild the union-find from the enrolled set in sorted order —
	// deterministic, and identical to having enrolled incrementally
	// because union-find components are order-insensitive.
	us := make([]socialnet.UserID, 0, len(s.accounts))
	for u := range s.accounts {
		us = append(us, u)
	}
	sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
	for _, u := range us {
		s.islands.add(u)
	}
	for _, u := range us {
		for _, f := range st.FriendsOf(u) {
			if _, in := s.accounts[f]; in {
				s.islands.union(u, f)
			}
		}
	}
	return s, nil
}
