package socialnet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Store is the concurrency-safe world state. A single Store backs the
// platform, the farms, the honeypot monitor, and the HTTP API.
//
// Internally the store is lock-striped: users (with their like
// histories and the duplicate-like set) and pages (with their like
// streams) are partitioned into shards keyed by ID, so concurrent
// likers, monitors, and crawlers touching different users/pages never
// serialize on one mutex. The friendship graph and the public directory
// are global structures with their own locks. Read accessors return
// data in a canonical order (IDs ascending, likes by (time, ID)), so a
// store filled concurrently reads back identically to one filled
// serially with the same contents — except AppendPagesOfUser, which
// hands order-insensitive consumers a user's append order.
//
// Every like write — AddLike, AddHistory, snapshot replay — also lands
// in the store's append-only Journal, the single event log streaming
// consumers (honeypot monitors, the live scorer, the fraud sweep)
// read instead of re-scanning the indexes. The user- and page-side like
// indexes are derived views over that log: convenient per-ID access
// paths whose contents are always exactly the journal's events.
type Store struct {
	userShards []userShard
	pageShards []pageShard
	shardMask  uint64
	journal    *Journal

	// wal is the attached disk backend for a durable store (nil for the
	// default in-memory store); see OpenDurable / Checkpoint. Likes
	// reach it through the journal; world mutations (user/page
	// creations, friendships, status/visibility updates) are journaled
	// directly by the mutating methods, so the WAL tail alone replays
	// everything since the last snapshot.
	wal *DiskWAL

	nextUser atomic.Int64
	nextPage atomic.Int64

	friendsMu sync.RWMutex
	friends   *graph.Undirected

	dirMu     sync.RWMutex
	directory []UserID // searchable users, insertion order
}

// userShard holds one partition of the user space: the user records,
// the user-side like index, and the duplicate-like set (keyed by user,
// so the dedup check is atomic with the user-side append). likesByUser
// is strictly append-ordered — like the page-side streams it is never
// sorted in place — so integer offsets into a user's stream (the
// cursors the API's cursor-paged likes list hands out) stay valid
// across reads. userSorted caches a canonically sorted copy per user,
// valid while its length still matches the stream.
type userShard struct {
	mu          sync.RWMutex
	users       map[UserID]*User
	likesByUser map[UserID][]Like
	userSorted  map[UserID][]Like
	likeSet     map[likeKey]struct{}
}

// pageShard holds one partition of the page space: the page records and
// the page-side like streams. likesByPage is strictly append-ordered —
// it is never sorted in place — so integer offsets into a page's stream
// (the per-page journal cursors monitors hold) stay valid across reads.
// pageSorted caches a canonically sorted copy per page, valid while its
// length still matches the stream (append-only: equal lengths imply
// equal contents).
type pageShard struct {
	mu          sync.RWMutex
	pages       map[PageID]*Page
	likesByPage map[PageID][]Like
	pageSorted  map[PageID][]Like
}

type likeKey struct {
	u UserID
	p PageID
}

// Errors returned by Store operations.
var (
	ErrNoUser        = errors.New("socialnet: no such user")
	ErrNoPage        = errors.New("socialnet: no such page")
	ErrDuplicateLike = errors.New("socialnet: duplicate like")
	ErrTerminated    = errors.New("socialnet: account terminated")
)

// DefaultShards is the shard count used by NewStore: enough stripes
// that a worker pool sized to any realistic core count rarely contends.
const DefaultShards = 64

// NewStore returns an empty world with the default shard count.
func NewStore() *Store { return NewShardedStore(DefaultShards) }

// NewShardedStore returns an empty world partitioned into the given
// number of lock stripes (rounded up to a power of two; values < 1 fall
// back to DefaultShards). Shard count affects only contention, never
// results.
func NewShardedStore(shards int) *Store {
	if shards < 1 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Store{
		userShards: make([]userShard, n),
		pageShards: make([]pageShard, n),
		shardMask:  uint64(n - 1),
		journal:    NewJournal(n),
		friends:    graph.NewUndirected(),
	}
	for i := range s.userShards {
		s.userShards[i] = userShard{
			users:       make(map[UserID]*User),
			likesByUser: make(map[UserID][]Like),
			userSorted:  make(map[UserID][]Like),
			likeSet:     make(map[likeKey]struct{}),
		}
	}
	for i := range s.pageShards {
		s.pageShards[i] = pageShard{
			pages:       make(map[PageID]*Page),
			likesByPage: make(map[PageID][]Like),
			pageSorted:  make(map[PageID][]Like),
		}
	}
	s.nextUser.Store(1)
	s.nextPage.Store(1)
	return s
}

// NumShards returns the number of lock stripes.
func (s *Store) NumShards() int { return len(s.userShards) }

// Journal returns the store's append-only like-event log. The journal
// is the single write path: every like recorded through the store is in
// it, in append order per shard, and streaming consumers (monitors,
// the live scorer, the fraud sweep) read it instead of re-scanning
// the derived indexes.
func (s *Store) Journal() *Journal { return s.journal }

func (s *Store) userShard(u UserID) *userShard {
	return &s.userShards[uint64(u)&s.shardMask]
}

func (s *Store) pageShard(p PageID) *pageShard {
	return &s.pageShards[uint64(p)&s.shardMask]
}

// sortUserLikes orders a user-side like slice canonically: by time,
// ties by page ID. The order is a total one, so it is independent of
// insertion order — the property the parallel engine's determinism
// rests on.
func sortUserLikes(likes []Like) {
	sort.Slice(likes, func(i, j int) bool {
		if !likes[i].At.Equal(likes[j].At) {
			return likes[i].At.Before(likes[j].At)
		}
		return likes[i].Page < likes[j].Page
	})
}

// sortPageLikes orders a page-side like slice canonically: by time,
// ties by user ID.
func sortPageLikes(likes []Like) {
	sort.Slice(likes, func(i, j int) bool {
		if !likes[i].At.Equal(likes[j].At) {
			return likes[i].At.Before(likes[j].At)
		}
		return likes[i].User < likes[j].User
	})
}

// logWorld journals a world mutation to the attached WAL, sharded by
// the subject entity's ID so per-entity mutation order on disk matches
// the in-memory history. Callers hold the mutated entity's lock; under
// group commit the call blocks until the record is durable, which is
// safe because the committer takes only WAL-shard locks.
func (s *Store) logWorld(id uint64, rec WorldRecord) {
	if s.wal != nil {
		s.wal.AppendWorld(int(id&s.shardMask), rec)
	}
}

// AddUser inserts a user, assigning its ID. The input is copied.
func (s *Store) AddUser(u User) UserID {
	u.ID = UserID(s.nextUser.Add(1) - 1)
	sh := s.userShard(u.ID)
	sh.mu.Lock()
	sh.users[u.ID] = &u
	s.logWorld(uint64(u.ID), WorldRecord{Kind: WorldUser, User: u})
	sh.mu.Unlock()

	s.friendsMu.Lock()
	s.friends.AddNode(int64(u.ID))
	s.friendsMu.Unlock()

	if u.Searchable {
		s.dirMu.Lock()
		s.directory = append(s.directory, u.ID)
		s.dirMu.Unlock()
	}
	return u.ID
}

// User returns a copy of the user record.
func (s *Store) User(id UserID) (User, error) {
	sh := s.userShard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	u, ok := sh.users[id]
	if !ok {
		return User{}, fmt.Errorf("%w: %d", ErrNoUser, id)
	}
	return *u, nil
}

// NumUsers returns the number of users.
func (s *Store) NumUsers() int {
	n := 0
	for i := range s.userShards {
		sh := &s.userShards[i]
		sh.mu.RLock()
		n += len(sh.users)
		sh.mu.RUnlock()
	}
	return n
}

// AddPage inserts a page, assigning its ID.
func (s *Store) AddPage(p Page) (PageID, error) {
	if p.Owner != 0 {
		osh := s.userShard(p.Owner)
		osh.mu.RLock()
		_, ok := osh.users[p.Owner]
		osh.mu.RUnlock()
		if !ok {
			return 0, fmt.Errorf("%w: page owner %d", ErrNoUser, p.Owner)
		}
	}
	p.ID = PageID(s.nextPage.Add(1) - 1)
	sh := s.pageShard(p.ID)
	sh.mu.Lock()
	sh.pages[p.ID] = &p
	s.logWorld(uint64(p.ID), WorldRecord{Kind: WorldPage, Page: p})
	sh.mu.Unlock()
	return p.ID, nil
}

// Page returns a copy of the page record.
func (s *Store) Page(id PageID) (Page, error) {
	sh := s.pageShard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	p, ok := sh.pages[id]
	if !ok {
		return Page{}, fmt.Errorf("%w: %d", ErrNoPage, id)
	}
	return *p, nil
}

// NumPages returns the number of pages.
func (s *Store) NumPages() int {
	n := 0
	for i := range s.pageShards {
		sh := &s.pageShards[i]
		sh.mu.RLock()
		n += len(sh.pages)
		sh.mu.RUnlock()
	}
	return n
}

// Pages returns all page IDs in ascending order.
func (s *Store) Pages() []PageID {
	var out []PageID
	for i := range s.pageShards {
		sh := &s.pageShards[i]
		sh.mu.RLock()
		for id := range sh.pages {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HoneypotPages returns the study's honeypot (campaign) page IDs in
// ascending order — the pages monitors watch and crawls target.
func (s *Store) HoneypotPages() []PageID {
	var out []PageID
	for i := range s.pageShards {
		sh := &s.pageShards[i]
		sh.mu.RLock()
		for id, p := range sh.pages {
			if p.Honeypot {
				out = append(out, id)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddLike records user liking page at the given instant. Terminated
// accounts cannot like; duplicate likes return ErrDuplicateLike.
//
// The operation touches two stripes (user-side, then page-side) plus
// the journal shard, but never holds two locks at once, so concurrent
// AddLike calls on any mix of users and pages are deadlock-free. The
// user-side stripe is the linearization point: the duplicate check and
// the user-side append are atomic, and pages are never deleted, so the
// journal and page-side appends cannot fail after the user-side commit.
func (s *Store) AddLike(u UserID, p PageID, at time.Time) error {
	psh := s.pageShard(p)
	psh.mu.RLock()
	_, pageOK := psh.pages[p]
	psh.mu.RUnlock()
	if !pageOK {
		return fmt.Errorf("%w: %d", ErrNoPage, p)
	}

	lk := Like{User: u, Page: p, At: at}
	ush := s.userShard(u)
	ush.mu.Lock()
	usr, ok := ush.users[u]
	if !ok {
		ush.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNoUser, u)
	}
	if usr.Status == StatusTerminated {
		ush.mu.Unlock()
		return fmt.Errorf("%w: user %d", ErrTerminated, u)
	}
	k := likeKey{u, p}
	if _, dup := ush.likeSet[k]; dup {
		ush.mu.Unlock()
		return fmt.Errorf("%w: user %d page %d", ErrDuplicateLike, u, p)
	}
	ush.likeSet[k] = struct{}{}
	ush.likesByUser[u] = append(ush.likesByUser[u], lk)
	delete(ush.userSorted, u)
	ush.mu.Unlock()

	s.journal.Append(LikeEvent{At: at, User: u, Page: p, Source: SourceLike})

	psh.mu.Lock()
	psh.likesByPage[p] = append(psh.likesByPage[p], lk)
	psh.mu.Unlock()
	return nil
}

// Likes reports whether user u likes page p.
func (s *Store) Likes(u UserID, p PageID) bool {
	sh := s.userShard(u)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.likeSet[likeKey{u, p}]
	return ok
}

// LikesOfPage returns the page's likes in like-time order (ties by user
// ID). The sorted order is computed lazily on first read after a write
// and cached as a copy — the underlying stream stays in append order so
// PageEventsSince cursors remain valid — and repeated polling of an
// unchanged stream costs only the copy.
func (s *Store) LikesOfPage(p PageID) []Like {
	sh := s.pageShard(p)
	sh.mu.RLock()
	if cache, ok := sh.pageSorted[p]; ok && len(cache) == len(sh.likesByPage[p]) {
		out := append([]Like(nil), cache...)
		sh.mu.RUnlock()
		return out
	}
	sh.mu.RUnlock()

	sh.mu.Lock()
	cache, ok := sh.pageSorted[p]
	if !ok || len(cache) != len(sh.likesByPage[p]) {
		cache = append([]Like(nil), sh.likesByPage[p]...)
		sortPageLikes(cache)
		sh.pageSorted[p] = cache
	}
	out := append([]Like(nil), cache...)
	sh.mu.Unlock()
	return out
}

// PageEventsSince returns the page's like events appended after cursor
// (a value previously returned by this method; 0 starts from the
// beginning), canonically sorted within the batch, plus the new cursor.
// This is the per-page view of the journal: cursors are plain offsets
// into the append-only stream, so a consumer polling the page (the §3
// honeypot monitor) pays O(new likes) per poll instead of re-reading
// the cumulative stream.
//
// Batches are sorted internally, and for a single-writer page — every
// honeypot page is liked only by its own campaign's deliveries, which
// run on one virtual clock — the concatenation of successive batches is
// globally canonical too.
func (s *Store) PageEventsSince(p PageID, cursor int) ([]LikeEvent, int) {
	sh := s.pageShard(p)
	sh.mu.RLock()
	stream := sh.likesByPage[p]
	if cursor < 0 {
		cursor = 0
	}
	if cursor >= len(stream) {
		sh.mu.RUnlock()
		return nil, cursor
	}
	out := make([]LikeEvent, len(stream)-cursor)
	for i, lk := range stream[cursor:] {
		out[i] = LikeEvent{At: lk.At, User: lk.User, Page: lk.Page, Source: SourceLike}
	}
	sh.mu.RUnlock()
	sortEvents(out)
	return out, cursor + len(out)
}

// PageEventsPage is the bounded form of PageEventsSince: it returns at
// most limit of the page's like events appended after cursor (limit < 1
// means no bound), canonically sorted within the batch, plus the cursor
// that resumes after the last returned event. Because cursors index the
// append-only stream, a like landing mid-pagination — even one with an
// earlier timestamp than events already delivered — only ever extends
// the tail: windows already handed out are immutable, so a paginating
// consumer sees every event exactly once. This is what the HTTP API's
// cursor paging serves; offset paging over the sorted view cannot make
// that guarantee under live writes.
func (s *Store) PageEventsPage(p PageID, cursor, limit int) ([]LikeEvent, int) {
	sh := s.pageShard(p)
	sh.mu.RLock()
	stream := sh.likesByPage[p]
	if cursor < 0 {
		cursor = 0
	}
	if cursor >= len(stream) {
		sh.mu.RUnlock()
		return nil, cursor
	}
	end := len(stream)
	if limit > 0 && cursor+limit < end {
		end = cursor + limit
	}
	out := make([]LikeEvent, end-cursor)
	for i, lk := range stream[cursor:end] {
		out[i] = LikeEvent{At: lk.At, User: lk.User, Page: lk.Page, Source: SourceLike}
	}
	sh.mu.RUnlock()
	sortEvents(out)
	return out, cursor + len(out)
}

// LikeCountOfPage returns the number of likes on a page.
func (s *Store) LikeCountOfPage(p PageID) int {
	sh := s.pageShard(p)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.likesByPage[p])
}

// ActiveLikeCountOfPage returns the page's like count excluding likes
// from terminated accounts — the number a page admin sees after a fraud
// sweep removes fake profiles. The paper's §5 future work calls for
// "longer observation of removed likes"; this is the observable that
// study extension tracks.
func (s *Store) ActiveLikeCountOfPage(p PageID) int {
	sh := s.pageShard(p)
	sh.mu.RLock()
	likes := append([]Like(nil), sh.likesByPage[p]...)
	sh.mu.RUnlock()

	n := 0
	for _, lk := range likes {
		ush := s.userShard(lk.User)
		ush.mu.RLock()
		if u, ok := ush.users[lk.User]; ok && u.Status == StatusActive {
			n++
		}
		ush.mu.RUnlock()
	}
	return n
}

// LikesOfUser returns all likes by the user in like-time order (ties by
// page ID). This is the "pages liked" list the crawler collected per
// liker (§4.4); in the reproduction it is always public, as it
// effectively was via the 2014 profile crawl. Like LikesOfPage, the
// sorted order is computed lazily on first read after a write and
// cached as a copy — the underlying stream stays in append order so
// UserLikesPage cursors remain valid — and the §4 analyses re-reading a
// liker's history pay only the copy.
func (s *Store) LikesOfUser(u UserID) []Like {
	sh := s.userShard(u)
	sh.mu.RLock()
	if cache, ok := sh.userSorted[u]; ok && len(cache) == len(sh.likesByUser[u]) {
		out := append([]Like(nil), cache...)
		sh.mu.RUnlock()
		return out
	}
	sh.mu.RUnlock()

	sh.mu.Lock()
	cache, ok := sh.userSorted[u]
	if !ok || len(cache) != len(sh.likesByUser[u]) {
		cache = append([]Like(nil), sh.likesByUser[u]...)
		sortUserLikes(cache)
		sh.userSorted[u] = cache
	}
	out := append([]Like(nil), cache...)
	sh.mu.Unlock()
	return out
}

// UserLikesPage returns at most limit of the user's likes appended
// after cursor (limit < 1 means no bound), canonically sorted within
// the batch, plus the cursor resuming after the last returned like.
// This is the user-side twin of PageEventsPage: cursors index the
// user's append-only like stream, so a like (or bulk history import)
// landing mid-pagination only ever extends the tail — a paginating
// consumer sees every like exactly once even under live writes, which
// offset paging over the time-sorted view cannot guarantee.
func (s *Store) UserLikesPage(u UserID, cursor, limit int) ([]Like, int) {
	sh := s.userShard(u)
	sh.mu.RLock()
	stream := sh.likesByUser[u]
	if cursor < 0 {
		cursor = 0
	}
	if cursor >= len(stream) {
		sh.mu.RUnlock()
		return nil, cursor
	}
	end := len(stream)
	if limit > 0 && cursor+limit < end {
		end = cursor + limit
	}
	out := append([]Like(nil), stream[cursor:end]...)
	sh.mu.RUnlock()
	sortUserLikes(out)
	return out, cursor + len(out)
}

// FriendsPage returns at most limit friends of the user with IDs at or
// above cursor, ascending, plus the cursor resuming after the last
// returned friend (keyset pagination). Friend lists have no append
// order to expose — the graph stores sorted adjacency — so the stable
// cursor is the ID space itself: entries present when pagination began
// are delivered exactly once regardless of concurrent edge inserts
// (an edge added behind the cursor is simply picked up by a re-crawl,
// like any late write).
func (s *Store) FriendsPage(u UserID, cursor int64, limit int) ([]UserID, int64) {
	s.friendsMu.RLock()
	ns := s.friends.Neighbors(int64(u))
	s.friendsMu.RUnlock()
	i := sort.Search(len(ns), func(k int) bool { return ns[k] >= cursor })
	end := len(ns)
	if limit > 0 && i+limit < end {
		end = i + limit
	}
	out := make([]UserID, end-i)
	for k, n := range ns[i:end] {
		out[k] = UserID(n)
	}
	next := cursor
	if len(out) > 0 {
		next = int64(out[len(out)-1]) + 1
	}
	return out, next
}

// AppendPagesOfUser appends the pages the user likes to dst, in the
// user's append order, and returns the extended slice. Unlike
// LikesOfUser it neither sorts nor caches, so an order-insensitive
// consumer (the §4 table driver) reads a liker's page list for the
// cost of one copy into a reusable buffer.
func (s *Store) AppendPagesOfUser(dst []PageID, u UserID) []PageID {
	sh := s.userShard(u)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, lk := range sh.likesByUser[u] {
		dst = append(dst, lk.Page)
	}
	return dst
}

// AppendLikeTimesOfUser appends the instants of the user's likes to
// dst, in the user's append order, and returns the extended slice. The
// user stream holds the same records as the user's journal events, so
// an order-insensitive consumer (the batch fraud sweep) reads one
// account's like times without scanning the journal.
func (s *Store) AppendLikeTimesOfUser(dst []time.Time, u UserID) []time.Time {
	sh := s.userShard(u)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, lk := range sh.likesByUser[u] {
		dst = append(dst, lk.At)
	}
	return dst
}

// LikeCountOfUser returns the number of pages the user likes.
func (s *Store) LikeCountOfUser(u UserID) int {
	sh := s.userShard(u)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.likesByUser[u])
}

// AddHistory bulk-imports a user's pre-existing like history. The
// events land in the journal (tagged SourceHistory, one batched append
// per call) but update only the user-side index: ambient/job pages
// never need page-side like streams (no analysis reads them), and
// skipping the page index and dedup set keeps multi-million-like
// histories cheap. Callers must not include honeypot pages (enforced)
// and must not repeat pages within or across imports for the same user.
// Concurrent imports for different users proceed on different stripes.
func (s *Store) AddHistory(u UserID, likes []Like) error {
	// Validate all referenced pages first, stripe by stripe, before
	// touching the user shard — no lock nesting, no partial import on a
	// bad page.
	for i := range likes {
		psh := s.pageShard(likes[i].Page)
		psh.mu.RLock()
		pg, ok := psh.pages[likes[i].Page]
		honeypot := ok && pg.Honeypot
		psh.mu.RUnlock()
		if !ok {
			return fmt.Errorf("%w: %d", ErrNoPage, likes[i].Page)
		}
		if honeypot {
			return fmt.Errorf("socialnet: history import may not include honeypot page %d", likes[i].Page)
		}
	}

	sh := s.userShard(u)
	sh.mu.Lock()
	if _, ok := sh.users[u]; !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNoUser, u)
	}
	events := make([]LikeEvent, len(likes))
	for i, lk := range likes {
		lk.User = u
		sh.likesByUser[u] = append(sh.likesByUser[u], lk)
		events[i] = LikeEvent{At: lk.At, User: u, Page: lk.Page, Source: SourceHistory}
	}
	delete(sh.userSorted, u)
	sh.mu.Unlock()

	s.journal.AppendUserBatch(u, events)
	return nil
}

// DeclaredFriendCount returns the friend-list length a profile displays:
// the declared count, floored at the structurally observed degree.
func (s *Store) DeclaredFriendCount(u UserID) int {
	sh := s.userShard(u)
	sh.mu.RLock()
	usr, ok := sh.users[u]
	declared := 0
	if ok {
		declared = usr.DeclaredFriends
	}
	sh.mu.RUnlock()
	if !ok {
		return 0
	}

	s.friendsMu.RLock()
	deg := s.friends.Degree(int64(u))
	s.friendsMu.RUnlock()
	if declared > deg {
		return declared
	}
	return deg
}

// Friend records a mutual friendship (Facebook friendships are
// bidirectional, unlike Twitter follows — see §2).
func (s *Store) Friend(a, b UserID) error {
	if !s.userExists(a) {
		return fmt.Errorf("%w: %d", ErrNoUser, a)
	}
	if !s.userExists(b) {
		return fmt.Errorf("%w: %d", ErrNoUser, b)
	}
	s.friendsMu.Lock()
	defer s.friendsMu.Unlock()
	if s.friends.HasEdge(int64(a), int64(b)) {
		return nil // already friends: idempotent, nothing to journal
	}
	if err := s.friends.AddEdge(int64(a), int64(b)); err != nil {
		return err
	}
	s.logWorld(uint64(a), WorldRecord{Kind: WorldFriend, A: a, B: b})
	return nil
}

func (s *Store) userExists(u UserID) bool {
	sh := s.userShard(u)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.users[u]
	return ok
}

// AreFriends reports whether a and b are friends.
func (s *Store) AreFriends(a, b UserID) bool {
	s.friendsMu.RLock()
	defer s.friendsMu.RUnlock()
	return s.friends.HasEdge(int64(a), int64(b))
}

// FriendsOf returns the user's friend list regardless of privacy; callers
// exposing data externally must consult FriendsVisible first.
func (s *Store) FriendsOf(u UserID) []UserID {
	s.friendsMu.RLock()
	ns := s.friends.Neighbors(int64(u))
	s.friendsMu.RUnlock()
	out := make([]UserID, len(ns))
	for i, n := range ns {
		out[i] = UserID(n)
	}
	return out
}

// FriendCount returns the user's number of friends.
func (s *Store) FriendCount(u UserID) int {
	s.friendsMu.RLock()
	defer s.friendsMu.RUnlock()
	return s.friends.Degree(int64(u))
}

// FriendsVisible reports whether the user's friend list is public.
func (s *Store) FriendsVisible(u UserID) bool {
	sh := s.userShard(u)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	usr, ok := sh.users[u]
	return ok && usr.FriendsPublic
}

// FriendGraph returns a snapshot copy of the whole friendship graph.
// Analysis code uses it as the "base" graph for 2-hop closures.
func (s *Store) FriendGraph() *graph.Undirected {
	s.friendsMu.RLock()
	defer s.friendsMu.RUnlock()
	return s.friends.Clone()
}

// FriendSubgraph returns the friendship graph induced on the given
// users (users not in the graph are left out), built under the graph's
// read lock without copying the rest of the graph.
func (s *Store) FriendSubgraph(users []UserID) *graph.Undirected {
	ids := make([]int64, len(users))
	for i, u := range users {
		ids[i] = int64(u)
	}
	s.friendsMu.RLock()
	defer s.friendsMu.RUnlock()
	return s.friends.InducedSubgraph(ids)
}

// Terminate marks an account terminated (fraud sweep). Terminated
// accounts keep their historical likes — the paper counted terminated
// likers a month later, implying likes remained attributable.
func (s *Store) Terminate(u UserID) error {
	sh := s.userShard(u)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	usr, ok := sh.users[u]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoUser, u)
	}
	usr.Status = StatusTerminated
	s.logWorld(uint64(u), WorldRecord{Kind: WorldStatus, A: u, Status: StatusTerminated})
	return nil
}

// Directory returns the searchable-user directory in ascending ID
// order, mirroring Facebook's public directory from which the paper's
// baseline sample of 2000 users was drawn. Like every other read
// accessor the order is canonical: a serial fill appends IDs in
// ascending order anyway, and sorting keeps the directory — and
// everything sampled from it — independent of AddUser timing.
func (s *Store) Directory() []UserID {
	s.dirMu.RLock()
	out := append([]UserID(nil), s.directory...)
	s.dirMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UsersWhere returns IDs of users matching the predicate, ascending.
// The predicate runs under a shard read lock; it must not call back into
// the store.
func (s *Store) UsersWhere(pred func(*User) bool) []UserID {
	var out []UserID
	for i := range s.userShards {
		sh := &s.userShards[i]
		sh.mu.RLock()
		for id, u := range sh.users {
			if pred(u) {
				out = append(out, id)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetFriendsPublic updates the friend-list visibility of a user.
func (s *Store) SetFriendsPublic(u UserID, public bool) error {
	sh := s.userShard(u)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	usr, ok := sh.users[u]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoUser, u)
	}
	usr.FriendsPublic = public
	s.logWorld(uint64(u), WorldRecord{Kind: WorldFriendsVis, A: u, Visible: public})
	return nil
}
