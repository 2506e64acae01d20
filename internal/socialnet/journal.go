package socialnet

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/parallel"
)

// LikeSource tags where a journal record entered the system.
type LikeSource uint8

// Like-event sources.
const (
	// SourceLike is an interactive like recorded by AddLike: it is
	// indexed on both the user and the page side.
	SourceLike LikeSource = iota
	// SourceHistory is a bulk pre-study history record imported by
	// AddHistory: user-side only, never on a honeypot page.
	SourceHistory
)

// String implements fmt.Stringer.
func (s LikeSource) String() string {
	if s == SourceHistory {
		return "history"
	}
	return "like"
}

// LikeEvent is one append-only journal record: user liked page at the
// given instant, entering via the given write path.
type LikeEvent struct {
	At     time.Time
	User   UserID
	Page   PageID
	Source LikeSource
}

// Like converts the event to the index form.
func (e LikeEvent) Like() Like { return Like{User: e.User, Page: e.Page, At: e.At} }

// cmpEvents is the canonical total order on like events: by time, ties
// by user ID, then page ID. (user, page) pairs are unique across the
// journal — AddLike dedupes and AddHistory forbids repeats — so this is
// a strict total order: any two stores holding the same events agree on
// it no matter how the events were sharded or interleaved at append
// time. Every streaming consumer (aggregators, readers) sees events in
// this order (globally or per shard), which is what the engine's
// bit-determinism rests on.
//
// Time compares by UnixNano — equivalent to time.Time ordering for any
// instant a simulation produces (wall-clock times within ±292 years of
// 1970) and several times cheaper in the hot sort path.
func cmpEvents(a, b LikeEvent) int {
	if c := cmp.Compare(a.At.UnixNano(), b.At.UnixNano()); c != 0 {
		return c
	}
	if c := cmp.Compare(a.User, b.User); c != 0 {
		return c
	}
	return cmp.Compare(a.Page, b.Page)
}

// eventLess is cmpEvents as a strict less-than.
func eventLess(a, b LikeEvent) bool { return cmpEvents(a, b) < 0 }

// sortEvents orders a slice canonically in place.
func sortEvents(evs []LikeEvent) { slices.SortFunc(evs, cmpEvents) }

// journalShard is one append-only partition of the event log. Events
// are kept strictly in arrival order — nothing ever sorts the backing
// slice in place — so integer offsets into a shard remain valid
// forever, which is what Reader cursors rely on.
type journalShard struct {
	mu     sync.RWMutex
	events []LikeEvent
}

// Journal is a sharded, append-only log of like events: the store's
// single write path for likes. Shards are keyed by user ID, so
// concurrent likers rarely contend; the shard count affects only
// contention, never the canonical event order, because the canonical
// order is a pure function of the event tuples (see eventLess).
//
// Readers consume the journal two ways: EventsCanonical materializes
// the whole log in canonical order (cached until the next append) for
// whole-log consumers, and NewReader returns an incremental cursor that
// delivers each event exactly once for monitors and future disk-backed
// or multi-process consumers.
type Journal struct {
	shards []journalShard
	mask   uint64

	// backend, when set, receives every appended event (under the shard
	// lock, so per-shard disk order always matches the in-memory
	// stream). nil keeps the journal memory-only — the default.
	backend Backend

	// merged caches the canonical materialization. Valid while the
	// per-shard lengths it was computed from still match (append-only:
	// equal lengths imply equal contents).
	mergedMu   sync.Mutex
	merged     []LikeEvent
	mergedLens []int
}

// Backend is the journal's durability hook: a sink that receives every
// appended like event tagged with its shard index, and — via
// AppendWorld, called by the Store rather than the journal — every
// world mutation (user/page creations, friendships, status and
// visibility updates). Both methods are called under the owning shard
// or entity lock — implementations must not call back into the journal
// or store, and may block only to satisfy their own durability
// contract (group commit). Errors are the backend's to keep (sticky)
// and surface on its own Sync/Close; the in-memory journal remains the
// authoritative read path regardless.
type Backend interface {
	Append(shard int, evs ...LikeEvent)
	AppendWorld(shard int, recs ...WorldRecord)
}

// NewJournal returns an empty journal with the given number of shards
// (rounded up to a power of two; values < 1 fall back to DefaultShards).
func NewJournal(shards int) *Journal {
	if shards < 1 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	return &Journal{shards: make([]journalShard, n), mask: uint64(n - 1)}
}

// NumShards returns the number of journal shards.
func (j *Journal) NumShards() int { return len(j.shards) }

// SetBackend attaches (or detaches, with nil) the durability sink.
// Call it before the journal sees concurrent appends — recovery code
// replays history first, then attaches the backend, so replayed events
// are never re-written to disk.
func (j *Journal) SetBackend(b Backend) { j.backend = b }

func (j *Journal) shardIndex(u UserID) int { return int(uint64(u) & j.mask) }

func (j *Journal) shard(u UserID) *journalShard {
	return &j.shards[uint64(u)&j.mask]
}

// Append records one event.
func (j *Journal) Append(ev LikeEvent) {
	idx := j.shardIndex(ev.User)
	sh := &j.shards[idx]
	sh.mu.Lock()
	sh.events = append(sh.events, ev)
	if j.backend != nil {
		j.backend.Append(idx, ev)
	}
	sh.mu.Unlock()
}

// AppendUserBatch records a batch of events for one user under a single
// shard lock — the bulk-history fast path. All events must carry the
// same user.
func (j *Journal) AppendUserBatch(u UserID, evs []LikeEvent) {
	if len(evs) == 0 {
		return
	}
	idx := j.shardIndex(u)
	sh := &j.shards[idx]
	sh.mu.Lock()
	sh.events = append(sh.events, evs...)
	if j.backend != nil {
		j.backend.Append(idx, evs...)
	}
	sh.mu.Unlock()
}

// Len returns the total number of events across all shards.
func (j *Journal) Len() int {
	n := 0
	for i := range j.shards {
		sh := &j.shards[i]
		sh.mu.RLock()
		n += len(sh.events)
		sh.mu.RUnlock()
	}
	return n
}

// lens snapshots the per-shard lengths.
func (j *Journal) lens() []int {
	out := make([]int, len(j.shards))
	for i := range j.shards {
		sh := &j.shards[i]
		sh.mu.RLock()
		out[i] = len(sh.events)
		sh.mu.RUnlock()
	}
	return out
}

func lensEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EventsCanonical returns every journal event in canonical (time, user,
// page) order. Each shard's prefix is copied and sorted on the worker
// pool, then shards are merged pairwise in index order — log2(shards)
// parallel rounds — so the result is bit-identical for every worker and
// shard count. The merged slice is cached until the next append and
// shared between callers: treat it as read-only.
func (j *Journal) EventsCanonical(workers int) []LikeEvent {
	j.mergedMu.Lock()
	defer j.mergedMu.Unlock()

	lens := j.lens()
	if j.merged != nil && lensEqual(lens, j.mergedLens) {
		return j.merged
	}

	parts := make([][]LikeEvent, len(j.shards))
	_ = parallel.ForEach(workers, len(j.shards), func(i int) error {
		sh := &j.shards[i]
		sh.mu.RLock()
		part := append([]LikeEvent(nil), sh.events[:lens[i]]...)
		sh.mu.RUnlock()
		sortEvents(part)
		parts[i] = part
		return nil
	})
	j.merged = mergeParts(workers, parts)
	j.mergedLens = lens
	return j.merged
}

// mergeParts folds canonically sorted per-shard slices into one sorted
// slice via pairwise merge rounds in index order — log2(shards)
// parallel rounds whose tree shape depends only on the part count, so
// the output is identical regardless of scheduling.
func mergeParts(workers int, parts [][]LikeEvent) []LikeEvent {
	for len(parts) > 1 {
		next := make([][]LikeEvent, (len(parts)+1)/2)
		_ = parallel.ForEach(workers, len(next), func(i int) error {
			lo := 2 * i
			if lo+1 == len(parts) {
				next[i] = parts[lo]
				return nil
			}
			next[i] = mergeEvents(parts[lo], parts[lo+1])
			return nil
		})
		parts = next
	}
	if len(parts) == 0 {
		return []LikeEvent{}
	}
	return parts[0]
}

// mergeEvents merges two canonically sorted slices.
func mergeEvents(a, b []LikeEvent) []LikeEvent {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]LikeEvent, 0, len(a)+len(b))
	i, k := 0, 0
	for i < len(a) && k < len(b) {
		if eventLess(b[k], a[i]) {
			out = append(out, b[k])
			k++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[k:]...)
	return out
}

// Reader is an incremental journal cursor: each Next call returns the
// events appended since the previous call, exactly once, canonically
// ordered within the batch. A Reader is single-consumer (not safe for
// concurrent use); concurrent appends to the journal remain safe and
// are simply picked up by a later Next.
//
// Note that only per-batch order is guaranteed: an event appended late
// with an early timestamp sorts at the front of its own batch, not into
// a batch already delivered. Consumers needing a globally canonical
// replay of a quiescent journal should use EventsCanonical.
type Reader struct {
	j       *Journal
	offsets []int
}

// NewReader returns a cursor positioned at the start of the journal.
func (j *Journal) NewReader() *Reader {
	return &Reader{j: j, offsets: make([]int, len(j.shards))}
}

// ReaderAt returns a cursor positioned at the given per-shard offsets —
// the resume path for consumers that persisted a Reader's Offsets()
// across a restart (the streaming fraud scorer's checkpoint sidecar).
// It fails if the offsets don't match the journal's shard count or
// claim events beyond a shard's current length (a crash having lost an
// unsynced tail the consumer had already observed): the caller must
// then fall back to a fresh Reader and rescan.
func (j *Journal) ReaderAt(offsets []int) (*Reader, error) {
	if len(offsets) != len(j.shards) {
		return nil, fmt.Errorf("socialnet: reader offsets cover %d shards, journal has %d", len(offsets), len(j.shards))
	}
	own := make([]int, len(offsets))
	for i, off := range offsets {
		sh := &j.shards[i]
		sh.mu.RLock()
		n := len(sh.events)
		sh.mu.RUnlock()
		if off < 0 || off > n {
			return nil, fmt.Errorf("socialnet: reader offset %d for shard %d outside [0,%d]", off, i, n)
		}
		own[i] = off
	}
	return &Reader{j: j, offsets: own}, nil
}

// Next returns the batch of events appended since the previous call,
// canonically sorted, or nil when there is nothing new.
func (r *Reader) Next() []LikeEvent {
	var out []LikeEvent
	for i := range r.j.shards {
		sh := &r.j.shards[i]
		sh.mu.RLock()
		n := len(sh.events)
		if n > r.offsets[i] {
			out = append(out, sh.events[r.offsets[i]:n]...)
		}
		sh.mu.RUnlock()
		r.offsets[i] = n
	}
	sortEvents(out)
	return out
}

// NextLimit is Next bounded to at most max events (max <= 0 means
// unbounded). Shards are drained in index order, so a bounded call
// consumes a prefix of each shard's append-ordered stream — per-user
// delivery order is preserved exactly as with Next, since a user's
// events all live in one shard. The batch is canonically sorted like
// Next's. Consumers use it to cap per-tick work (and tests use it to
// cut a stream at arbitrary points for kill/restore coverage).
func (r *Reader) NextLimit(max int) []LikeEvent {
	if max <= 0 {
		return r.Next()
	}
	var out []LikeEvent
	for i := range r.j.shards {
		if len(out) >= max {
			break
		}
		sh := &r.j.shards[i]
		sh.mu.RLock()
		n := len(sh.events)
		if take := n - r.offsets[i]; take > 0 {
			if room := max - len(out); take > room {
				take = room
			}
			out = append(out, sh.events[r.offsets[i]:r.offsets[i]+take]...)
			r.offsets[i] += take
		} else {
			r.offsets[i] = n
		}
		sh.mu.RUnlock()
	}
	sortEvents(out)
	return out
}

// Offset returns the total number of events consumed so far — the
// reader's high-water mark.
func (r *Reader) Offset() int {
	n := 0
	for _, o := range r.offsets {
		n += o
	}
	return n
}

// Offsets returns a copy of the per-shard offsets — the reader's
// position in the journal's native coordinates, suitable for
// persisting and resuming via ReaderAt. Per-shard offsets stay valid
// across a durable store's crash recovery (disk order matches the
// in-memory stream per shard), which total counts do not.
func (r *Reader) Offsets() []int { return r.OffsetsInto(nil) }

// OffsetsInto is Offsets writing into dst, reusing its backing array
// when capacity allows. Consumers that persist their position every
// poll (the streaming fraud scorer's per-tick state save) keep one
// scratch slice instead of allocating a copy per call.
func (r *Reader) OffsetsInto(dst []int) []int {
	if cap(dst) < len(r.offsets) {
		dst = make([]int, len(r.offsets))
	}
	dst = dst[:len(r.offsets)]
	copy(dst, r.offsets)
	return dst
}

// ReplayUser re-delivers, in append order, the already-consumed events
// of one user: the user's shard prefix below the reader's offset,
// filtered to that user. Consumers that keep bounded per-user state
// (the streaming fraud scorer's window deque) use it to rebuild a
// user's state exactly when an out-of-order arrival invalidates the
// incremental fold — the replayed multiset is precisely what a batch
// pass over the consumed prefix would see for that user. fn runs under
// the shard read lock: it must not call back into the journal or
// append to the store.
func (r *Reader) ReplayUser(u UserID, fn func(LikeEvent)) {
	i := r.j.shardIndex(u)
	sh := &r.j.shards[i]
	sh.mu.RLock()
	limit := r.offsets[i]
	if limit > len(sh.events) {
		limit = len(sh.events)
	}
	for _, ev := range sh.events[:limit] {
		if ev.User == u {
			fn(ev)
		}
	}
	sh.mu.RUnlock()
}

// ReplayPage re-delivers, in canonical (time, user, page) order, the
// already-consumed events of one page. Unlike a user, whose events all
// live in one shard, a page's likers are spread across every shard —
// and bounded ticks drain shards in index order, so a page's events
// can cross tick boundaries out of time order. ReplayPage is the
// page-granular resync primitive for consumers that keep per-page
// state (the streaming lockstep sketches): the delivered sequence is
// exactly the page's slice of the reader's consumed prefix, sorted, so
// rebuilding from it matches a batch pass over the same prefix. Events
// are collected under the shard read locks and delivered after they
// are released, so fn may call back into the journal.
func (r *Reader) ReplayPage(p PageID, fn func(LikeEvent)) {
	var evs []LikeEvent
	for i := range r.j.shards {
		sh := &r.j.shards[i]
		sh.mu.RLock()
		limit := r.offsets[i]
		if limit > len(sh.events) {
			limit = len(sh.events)
		}
		for _, ev := range sh.events[:limit] {
			if ev.Page == p {
				evs = append(evs, ev)
			}
		}
		sh.mu.RUnlock()
	}
	sortEvents(evs)
	for _, ev := range evs {
		fn(ev)
	}
}
