package socialnet

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"repro/internal/parallel"
)

// snapshot is the gob wire form of a Store. Indexed likes (those with
// page-side streams, i.e. everything added via AddLike) are kept apart
// from bulk histories so both indexes rebuild exactly.
type snapshot struct {
	Version     int
	Users       []User
	Pages       []Page
	Indexed     []Like
	Histories   []userHistory
	Friendships [][2]int64
	NextUser    UserID
	NextPage    PageID
}

// userHistory is one user's non-indexed like history. A sorted slice
// (not a map) keeps the gob encoding byte-deterministic.
type userHistory struct {
	User  UserID
	Likes []Like
}

// snapshotVersion 2: sharded store, slice-form histories, canonical
// like ordering.
const snapshotVersion = 2

// WriteSnapshot serializes the world. The snapshot is deterministic —
// same store contents, same bytes, regardless of shard count or fill
// concurrency — and point-in-time consistent even with writers active:
// it read-locks every stripe (plus the graph and directory locks) for
// the duration of the copy, so a mid-flight AddLike can never appear
// in one index but not the other. Lock acquisition is in a fixed total
// order and writers never hold two locks at once, so this cannot
// deadlock.
func (s *Store) WriteSnapshot(w io.Writer) error {
	for i := range s.userShards {
		s.userShards[i].mu.RLock()
		defer s.userShards[i].mu.RUnlock()
	}
	for i := range s.pageShards {
		s.pageShards[i].mu.RLock()
		defer s.pageShards[i].mu.RUnlock()
	}
	s.friendsMu.RLock()
	defer s.friendsMu.RUnlock()
	s.dirMu.RLock()
	defer s.dirMu.RUnlock()

	snap := snapshot{
		Version:  snapshotVersion,
		NextUser: UserID(s.nextUser.Load()),
		NextPage: PageID(s.nextPage.Load()),
	}

	var userIDs []UserID
	for i := range s.userShards {
		for id := range s.userShards[i].users {
			userIDs = append(userIDs, id)
		}
	}
	sort.Slice(userIDs, func(i, j int) bool { return userIDs[i] < userIDs[j] })
	for _, id := range userIDs {
		snap.Users = append(snap.Users, *s.userShard(id).users[id])
	}

	var pageIDs []PageID
	for i := range s.pageShards {
		for id := range s.pageShards[i].pages {
			pageIDs = append(pageIDs, id)
		}
	}
	sort.Slice(pageIDs, func(i, j int) bool { return pageIDs[i] < pageIDs[j] })
	for _, id := range pageIDs {
		snap.Pages = append(snap.Pages, *s.pageShard(id).pages[id])
	}

	// Collect page-side streams into mutable copies (the append-only
	// stream must not be sorted in place — cursors hold offsets into
	// it), remembering which (user, page) pairs the page side has: an
	// AddLike caught between its user-side commit and its page-side
	// append (it holds no lock at that point) is in likeSet but not yet
	// in likesByPage, and is recovered from the user side below.
	byPage := make(map[PageID][]Like, len(pageIDs))
	pageSeen := make(map[likeKey]struct{})
	for _, pid := range pageIDs {
		likes := append([]Like(nil), s.pageShard(pid).likesByPage[pid]...)
		byPage[pid] = likes
		for _, lk := range likes {
			pageSeen[likeKey{lk.User, lk.Page}] = struct{}{}
		}
	}

	// Histories: user-side likes that are not in the page-side index,
	// in canonical per-user order. Indexed likes missing page-side are
	// the mid-flight stragglers: fold them back into their page stream.
	for _, uid := range userIDs {
		sh := s.userShard(uid)
		var hist []Like
		for _, lk := range sh.likesByUser[uid] {
			k := likeKey{lk.User, lk.Page}
			if _, indexed := sh.likeSet[k]; !indexed {
				hist = append(hist, lk)
				continue
			}
			if _, seen := pageSeen[k]; !seen {
				byPage[lk.Page] = append(byPage[lk.Page], lk)
				pageSeen[k] = struct{}{}
			}
		}
		if len(hist) > 0 {
			sortUserLikes(hist)
			snap.Histories = append(snap.Histories, userHistory{User: uid, Likes: hist})
		}
	}
	for _, pid := range pageIDs {
		likes := byPage[pid]
		sortPageLikes(likes)
		snap.Indexed = append(snap.Indexed, likes...)
	}

	snap.Friendships = s.friends.Edges()
	return gob.NewEncoder(w).Encode(&snap)
}

// ReadSnapshot reconstructs a Store from a snapshot stream.
func ReadSnapshot(r io.Reader) (*Store, error) {
	return ReadSnapshotSharded(r, DefaultShards)
}

// ReadSnapshotSharded is ReadSnapshot with an explicit lock-stripe
// count: a durable store must reopen with the shard count its WAL was
// written under, so the manifest's per-shard offsets keep indexing the
// same streams.
func ReadSnapshotSharded(r io.Reader, shards int) (*Store, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("socialnet: decode snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("socialnet: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	return restoreSnapshot(&snap, shards)
}

// restoreSnapshot rebuilds a store from a decoded snapshot. The like
// half is one restore in two passes (DESIGN §10, "Snapshot restore"):
// planLikes validates every reference serially and counts each
// stream's records, then fillLikes builds the streams in parallel,
// each allocated once.
func restoreSnapshot(snap *snapshot, shards int) (*Store, error) {
	st := NewShardedStore(shards)
	st.nextUser.Store(int64(snap.NextUser))
	st.nextPage.Store(int64(snap.NextPage))
	for i := range snap.Users {
		u := snap.Users[i]
		sh := st.userShard(u.ID)
		sh.users[u.ID] = &u
		st.friends.AddNode(int64(u.ID))
		if u.Searchable {
			st.directory = append(st.directory, u.ID)
		}
	}
	for i := range snap.Pages {
		p := snap.Pages[i]
		st.pageShard(p.ID).pages[p.ID] = &p
	}
	plan, err := planLikes(snap, st.shardMask)
	if err != nil {
		return nil, err
	}
	if err := st.fillLikes(snap, plan); err != nil {
		return nil, err
	}
	for _, e := range snap.Friendships {
		if err := st.friends.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("socialnet: snapshot friendship: %w", err)
		}
	}
	return st, nil
}

// Restored streams are sized at their record counts plus some spare
// room, so the first live appends after a restart do not each copy a
// stream. A journal shard gets 1/journalHeadroom more, since without
// it the first append to each shard copies the whole shard under its
// lock. A user stream gets userStreamSlack more records: a follower's
// first poll or a leader's first likes touch hundreds of accounts once
// each, and copying each one's stream doubled the cost of such a
// batch.
const (
	journalHeadroom = 8
	userStreamSlack = 4
)

// likePlan is planLikes' result. A user or page is numbered by its
// index in the snapshot's Users or Pages, and every indexed like and
// history carries its streams' numbers, so the fill finds a stream
// without a map lookup.
type likePlan struct {
	// shardUsers lists each user shard's users by number.
	shardUsers [][]int32
	// likeUser and likePage number each indexed like's streams;
	// histUser numbers each history's user stream.
	likeUser, likePage []int32
	histUser           []int32
	// Record counts: per user stream (userIndexed of them indexed
	// likes), per page stream, per journal shard, and per user shard's
	// like set.
	userLen, userIndexed, pageLen []int
	journalLen, setLen            []int
}

// planLikes is the restore's serial pass: it resolves every indexed
// like and history to its streams, failing on a user or page listed
// twice and on the first record that references a missing user or
// page, and counts the records each stream will receive. Counts come
// from decoded records only.
func planLikes(snap *snapshot, mask uint64) (*likePlan, error) {
	p := &likePlan{
		shardUsers: make([][]int32, mask+1),
		journalLen: make([]int, mask+1),
		setLen:     make([]int, mask+1),
	}
	userNum := make(map[UserID]int32, len(snap.Users))
	for i := range snap.Users {
		id := snap.Users[i].ID
		if _, dup := userNum[id]; dup {
			return nil, fmt.Errorf("socialnet: snapshot lists user %d twice", id)
		}
		userNum[id] = int32(i)
		p.shardUsers[uint64(id)&mask] = append(p.shardUsers[uint64(id)&mask], int32(i))
	}
	pageNum := make(map[PageID]int32, len(snap.Pages))
	for i := range snap.Pages {
		id := snap.Pages[i].ID
		if _, dup := pageNum[id]; dup {
			return nil, fmt.Errorf("socialnet: snapshot lists page %d twice", id)
		}
		pageNum[id] = int32(i)
	}
	p.userLen = make([]int, len(snap.Users))
	p.userIndexed = make([]int, len(snap.Users))
	p.pageLen = make([]int, len(snap.Pages))

	p.likeUser = make([]int32, len(snap.Indexed))
	p.likePage = make([]int32, len(snap.Indexed))
	for i, lk := range snap.Indexed {
		ui, ok := userNum[lk.User]
		if !ok {
			return nil, earliestError(snap.Indexed[:i], fmt.Errorf("socialnet: snapshot like references missing user %d", lk.User))
		}
		pi, ok := pageNum[lk.Page]
		if !ok {
			return nil, earliestError(snap.Indexed[:i], fmt.Errorf("socialnet: snapshot like references missing page %d", lk.Page))
		}
		p.likeUser[i], p.likePage[i] = ui, pi
		p.userLen[ui]++
		p.userIndexed[ui]++
		p.pageLen[pi]++
		p.journalLen[uint64(lk.User)&mask]++
		p.setLen[uint64(lk.User)&mask]++
	}
	p.histUser = make([]int32, len(snap.Histories))
	for h, uh := range snap.Histories {
		ui, ok := userNum[uh.User]
		if !ok {
			return nil, earliestError(snap.Indexed, fmt.Errorf("socialnet: snapshot history references missing user %d", uh.User))
		}
		p.histUser[h] = ui
		p.userLen[ui] += len(uh.Likes)
		p.journalLen[uint64(uh.User)&mask] += len(uh.Likes)
	}
	return p, nil
}

// earliestError returns the error of the first repeated like in
// indexed, or err when there is none. The fill detects repeats without
// knowing which record repeated, so every failure goes through here:
// the reported error is always the earliest offending record's, in
// snapshot order, whatever the worker count.
func earliestError(indexed []Like, err error) error {
	seen := make(map[likeKey]struct{}, len(indexed))
	for _, lk := range indexed {
		k := likeKey{lk.User, lk.Page}
		if _, dup := seen[k]; dup {
			return fmt.Errorf("socialnet: snapshot duplicate like %v", k)
		}
		seen[k] = struct{}{}
	}
	return err
}

// fillLikes is the restore's parallel pass. Worker w owns the user
// shards and the page shards whose index is w modulo the worker count;
// a user shard and its journal shard share an index (both are keyed by
// user ID under the same mask), so no two workers write one map, one
// stream or one journal shard, and no lock is taken. Each worker walks
// the indexed likes and then the histories in snapshot order, keeping
// only its own records, so every stream holds its indexed likes in
// snapshot order followed by its histories — the order Reader cursors
// and stream cursors index into, whatever the worker count. Every
// stream is allocated once, at its planned size plus the spare room
// above. Like sets are filled last, one shard at a time from the user
// streams' indexed prefixes so each set's working memory stays
// cache-sized; a set that comes out smaller than planned holds a
// repeated indexed like, and the restore fails with the earliest
// repeat's error.
func (st *Store) fillLikes(snap *snapshot, plan *likePlan) error {
	mask := st.shardMask
	workers := min(parallel.Workers(0), len(st.userShards))
	ownsPage := func(w int, p PageID) bool { return int(uint64(p)&mask)%workers == w }
	userStreams := make([][]Like, len(snap.Users))
	pageStreams := make([][]Like, len(snap.Pages))
	repeated := make([]bool, workers)
	_ = parallel.ForEach(workers, workers, func(w int) error {
		for s := w; s < len(st.userShards); s += workers {
			n := plan.journalLen[s]
			st.journal.shards[s].events = make([]LikeEvent, 0, n+n/journalHeadroom)
			for _, ui := range plan.shardUsers[s] {
				if n := plan.userLen[ui]; n > 0 {
					userStreams[ui] = make([]Like, 0, n+userStreamSlack)
				}
			}
		}
		for pi := range snap.Pages {
			if n := plan.pageLen[pi]; n > 0 && ownsPage(w, snap.Pages[pi].ID) {
				pageStreams[pi] = make([]Like, 0, n)
			}
		}
		for i, lk := range snap.Indexed {
			if ownsPage(w, lk.Page) {
				pi := plan.likePage[i]
				pageStreams[pi] = append(pageStreams[pi], lk)
			}
			s := uint64(lk.User) & mask
			if int(s)%workers != w {
				continue
			}
			ui := plan.likeUser[i]
			userStreams[ui] = append(userStreams[ui], lk)
			js := &st.journal.shards[s]
			js.events = append(js.events, LikeEvent{At: lk.At, User: lk.User, Page: lk.Page, Source: SourceLike})
		}
		for h, uh := range snap.Histories {
			s := uint64(uh.User) & mask
			if int(s)%workers != w {
				continue
			}
			ui := plan.histUser[h]
			userStreams[ui] = append(userStreams[ui], uh.Likes...)
			js := &st.journal.shards[s]
			for _, lk := range uh.Likes {
				js.events = append(js.events, LikeEvent{At: lk.At, User: uh.User, Page: lk.Page, Source: SourceHistory})
			}
		}
		for s := w; s < len(st.userShards); s += workers {
			sh := &st.userShards[s]
			sh.likesByUser = make(map[UserID][]Like, len(plan.shardUsers[s]))
			sh.likeSet = make(map[likeKey]struct{}, plan.setLen[s])
			for _, ui := range plan.shardUsers[s] {
				stream := userStreams[ui]
				if stream == nil {
					continue
				}
				sh.likesByUser[snap.Users[ui].ID] = stream
				for _, lk := range stream[:plan.userIndexed[ui]] {
					sh.likeSet[likeKey{lk.User, lk.Page}] = struct{}{}
				}
			}
			if len(sh.likeSet) < plan.setLen[s] {
				repeated[w] = true
			}
		}
		for pi := range snap.Pages {
			if p := snap.Pages[pi].ID; ownsPage(w, p) && pageStreams[pi] != nil {
				st.pageShard(p).likesByPage[p] = pageStreams[pi]
			}
		}
		return nil
	})
	for _, r := range repeated {
		if r {
			return earliestError(snap.Indexed, nil)
		}
	}
	return nil
}
