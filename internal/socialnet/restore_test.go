package socialnet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"hash"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// restoreWorld builds a fixed-seed world whose snapshot exercises every
// restore path: bulk histories for every organic user, indexed likes on
// several honeypot pages from users that also have histories (so a
// user stream holds indexed likes followed by history), and likers in
// every journal shard.
func restoreWorld(tb testing.TB, users, pages int) *Store {
	tb.Helper()
	r := rand.New(rand.NewSource(11))
	st := NewStore()
	spec := DefaultPopulationSpec()
	spec.NumUsers = users
	spec.NumAmbientPages = pages
	spec.Workers = 1
	pop, err := GeneratePopulation(r, st, spec)
	if err != nil {
		tb.Fatal(err)
	}
	base := time.Date(2014, 3, 12, 0, 0, 0, 0, time.UTC)
	for h := 0; h < 5; h++ {
		page, err := st.AddPage(Page{Name: "hp", Honeypot: true})
		if err != nil {
			tb.Fatal(err)
		}
		for _, i := range r.Perm(len(pop.Users))[:len(pop.Users)/3] {
			at := base.Add(time.Duration(r.Intn(72*3600)) * time.Second)
			if err := st.AddLike(pop.Users[i], page, at); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return st
}

// snapshotBytes returns the store's snapshot encoding.
func snapshotBytes(tb testing.TB, st *Store) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func hashLike(h hash.Hash, lk Like) {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(lk.At.UnixNano()))
	binary.LittleEndian.PutUint64(b[8:], uint64(lk.User))
	binary.LittleEndian.PutUint64(b[16:], uint64(lk.Page))
	h.Write(b[:])
}

// streamDigest hashes the append order of every journal shard, every
// user-side like stream and every page-side like stream — the orders
// Reader cursors, the scorer sidecar's journal offsets and the API's
// stream cursors index into.
func streamDigest(st *Store) string {
	h := sha256.New()
	var n [8]byte
	for i := range st.journal.shards {
		evs := st.journal.shards[i].events
		binary.LittleEndian.PutUint64(n[:], uint64(len(evs)))
		h.Write(n[:])
		for _, ev := range evs {
			hashLike(h, ev.Like())
			h.Write([]byte{byte(ev.Source)})
		}
	}
	var uids []UserID
	for i := range st.userShards {
		for u := range st.userShards[i].likesByUser {
			uids = append(uids, u)
		}
	}
	slices.Sort(uids)
	for _, u := range uids {
		s := st.userShard(u).likesByUser[u]
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		for _, lk := range s {
			hashLike(h, lk)
		}
	}
	var pids []PageID
	for i := range st.pageShards {
		for p := range st.pageShards[i].likesByPage {
			pids = append(pids, p)
		}
	}
	slices.Sort(pids)
	for _, p := range pids {
		s := st.pageShard(p).likesByPage[p]
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		for _, lk := range s {
			hashLike(h, lk)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// withProcs runs fn at each worker count the restore tests pin.
func withProcs(t *testing.T, fn func(t *testing.T, procs int)) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		fn(t, procs)
	}
}

// restoreGoldenDigest pins streamDigest after ReadSnapshot of
// restoreWorld(t, 400, 300). The restore must reproduce every stream's
// order exactly: regenerate only for an intended change of the restore
// order, and say so in the change log.
const restoreGoldenDigest = "e2e7ad873156de9656be671f60ac57b39f168d2f31c526f545bbb06c05605a1e"

func TestRestoreStreamsGoldenDigest(t *testing.T) {
	snap := snapshotBytes(t, restoreWorld(t, 400, 300))
	withProcs(t, func(t *testing.T, procs int) {
		got, err := ReadSnapshot(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		if d := streamDigest(got); d != restoreGoldenDigest {
			t.Errorf("GOMAXPROCS %d: stream digest %s, want %s", procs, d, restoreGoldenDigest)
		}
	})
}

// encodeSnapshot gob-encodes a hand-built snapshot.
func encodeSnapshot(t *testing.T, s snapshot) []byte {
	t.Helper()
	s.Version = snapshotVersion
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreErrorsIndependentOfWorkers: a snapshot with several bad
// records reports the earliest one — the same text at every worker
// count, and the text the serial restore reported.
func TestRestoreErrorsIndependentOfWorkers(t *testing.T) {
	at := time.Date(2014, 3, 12, 0, 0, 0, 0, time.UTC)
	var users []User
	for id := UserID(1); id <= 200; id++ {
		users = append(users, User{ID: id})
	}
	var pages []Page
	for id := PageID(1); id <= 200; id++ {
		pages = append(pages, Page{ID: id})
	}
	// Valid likes spread over every shard, so each worker has work
	// before and after the offending records.
	valid := func(n int) []Like {
		var out []Like
		for i := 0; i < n; i++ {
			out = append(out, Like{User: UserID(1 + i%200), Page: PageID(1 + (i*7)%200), At: at})
		}
		return out
	}
	splice := func(likes []Like, at int, bad ...Like) []Like {
		return append(append(append([]Like(nil), likes[:at]...), bad...), likes[at:]...)
	}
	good := valid(150)
	cases := []struct {
		name string
		snap snapshot
		want string
	}{
		{
			name: "missing user",
			snap: snapshot{Users: users, Pages: pages, Indexed: splice(splice(good, 120, Like{User: 999, Page: 3, At: at}), 90, Like{User: 777, Page: 5, At: at})},
			want: "socialnet: snapshot like references missing user 777",
		},
		{
			name: "missing page",
			snap: snapshot{Users: users, Pages: pages, Indexed: splice(splice(splice(good, 130, good[10]), 120, Like{User: 4, Page: 999, At: at}), 90, Like{User: 3, Page: 555, At: at})},
			want: "socialnet: snapshot like references missing page 555",
		},
		{
			name: "duplicate indexed like",
			snap: snapshot{Users: users, Pages: pages, Indexed: splice(splice(good, 140, good[3]), 100, good[70], Like{User: 6, Page: 888, At: at})},
			want: "socialnet: snapshot duplicate like {71 91}",
		},
		{
			name: "history for missing user",
			snap: snapshot{Users: users, Pages: pages, Indexed: good, Histories: []userHistory{
				{User: 5, Likes: []Like{{User: 5, Page: 9, At: at}}},
				{User: 404, Likes: []Like{{User: 404, Page: 9, At: at}}},
				{User: 6, Likes: []Like{{User: 6, Page: 9, At: at}}},
				{User: 405, Likes: []Like{{User: 405, Page: 9, At: at}}},
			}},
			want: "socialnet: snapshot history references missing user 404",
		},
		{
			name: "duplicate indexed like before a bad history",
			snap: snapshot{Users: users, Pages: pages, Indexed: splice(good, 50, good[20]), Histories: []userHistory{
				{User: 404, Likes: []Like{{User: 404, Page: 9, At: at}}},
			}},
			want: "socialnet: snapshot duplicate like {21 141}",
		},
	}
	for _, tc := range cases {
		data := encodeSnapshot(t, tc.snap)
		withProcs(t, func(t *testing.T, procs int) {
			_, err := ReadSnapshot(bytes.NewReader(data))
			if err == nil {
				t.Fatalf("%s, GOMAXPROCS %d: restore accepted the snapshot", tc.name, procs)
			}
			if err.Error() != tc.want {
				t.Errorf("%s, GOMAXPROCS %d: error %q, want %q", tc.name, procs, err, tc.want)
			}
		})
	}
}

// TestRestoreRejectsRepeatedIDs: a store never holds two records under
// one user or page ID, so a snapshot that lists one twice is corrupt.
// Accepting it would list the user twice in the public directory.
func TestRestoreRejectsRepeatedIDs(t *testing.T) {
	for _, tc := range []struct {
		snap snapshot
		want string
	}{
		{snapshot{Users: []User{{ID: 1, Searchable: true}, {ID: 2}, {ID: 1, Searchable: true}}}, "socialnet: snapshot lists user 1 twice"},
		{snapshot{Users: []User{{ID: 1}}, Pages: []Page{{ID: 7}, {ID: 7}}}, "socialnet: snapshot lists page 7 twice"},
	} {
		_, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, tc.snap)))
		if err == nil || err.Error() != tc.want {
			t.Errorf("error %v, want %q", err, tc.want)
		}
	}
}

// BenchmarkSnapshotRestore is the cold start of a leader open or a
// follower bootstrap: decode a ~500k-like snapshot and rebuild the
// store from it. Besides the total it reports the two layers apart —
// decode-ms (gob) and restore-ms (validation plus stream rebuild) —
// so a change to either shows on its own.
func BenchmarkSnapshotRestore(b *testing.B) {
	data := snapshotBytes(b, restoreWorld(b, 6000, 4000))
	var likes int
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var decode, restore time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		var snap snapshot
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		st, err := restoreSnapshot(&snap, DefaultShards)
		if err != nil {
			b.Fatal(err)
		}
		decode += t1.Sub(t0)
		restore += time.Since(t1)
		likes = st.journal.Len()
	}
	b.ReportMetric(decode.Seconds()*1e3/float64(b.N), "decode-ms/op")
	b.ReportMetric(restore.Seconds()*1e3/float64(b.N), "restore-ms/op")
	b.ReportMetric(float64(likes), "likes")
}
