package socialnet

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

func populatedStore(t *testing.T) (*Store, UserID, PageID) {
	t.Helper()
	r := rand.New(rand.NewSource(5))
	st := NewStore()
	spec := DefaultPopulationSpec()
	spec.NumUsers = 150
	spec.NumAmbientPages = 200
	pop, err := GeneratePopulation(r, st, spec)
	if err != nil {
		t.Fatal(err)
	}
	// A honeypot with indexed likes plus a bulk history import.
	page, err := st.AddPage(Page{Name: "hp", Honeypot: true})
	if err != nil {
		t.Fatal(err)
	}
	liker := pop.Users[0]
	if err := st.AddLike(liker, page, time.Date(2014, 3, 12, 4, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	extra := st.AddUser(User{Country: CountryTurkey, Kind: KindFarmBot, Operator: "SF"})
	hist := []Like{
		{Page: pop.AmbientPages[0], At: time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)},
		{Page: pop.AmbientPages[1], At: time.Date(2013, 7, 1, 0, 0, 0, 0, time.UTC)},
	}
	if err := st.AddHistory(extra, hist); err != nil {
		t.Fatal(err)
	}
	if err := st.Terminate(extra); err != nil {
		t.Fatal(err)
	}
	return st, liker, page
}

func TestSnapshotRoundTrip(t *testing.T) {
	st, liker, page := populatedStore(t)
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumUsers() != st.NumUsers() || got.NumPages() != st.NumPages() {
		t.Fatalf("sizes: %d/%d vs %d/%d", got.NumUsers(), got.NumPages(), st.NumUsers(), st.NumPages())
	}
	// Indexed like survives with page-side stream.
	if !got.Likes(liker, page) {
		t.Fatal("indexed like lost")
	}
	if got.LikeCountOfPage(page) != st.LikeCountOfPage(page) {
		t.Fatal("page like stream lost")
	}
	// Per-user like counts identical (incl. histories).
	for _, uid := range st.Directory()[:20] {
		if got.LikeCountOfUser(uid) != st.LikeCountOfUser(uid) {
			t.Fatalf("user %d like count %d vs %d", uid, got.LikeCountOfUser(uid), st.LikeCountOfUser(uid))
		}
	}
	// Friendships identical.
	a := st.FriendGraph()
	b := got.FriendGraph()
	if a.NumEdges() != b.NumEdges() || a.NumNodes() != b.NumNodes() {
		t.Fatalf("graph %d/%d vs %d/%d", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	// Directory identical.
	da, db := st.Directory(), got.Directory()
	if len(da) != len(db) {
		t.Fatalf("directory %d vs %d", len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatal("directory order changed")
		}
	}
	// Termination status survives.
	terminated := st.UsersWhere(func(u *User) bool { return u.Status == StatusTerminated })
	terminated2 := got.UsersWhere(func(u *User) bool { return u.Status == StatusTerminated })
	if len(terminated) != 1 || len(terminated2) != 1 || terminated[0] != terminated2[0] {
		t.Fatalf("terminated: %v vs %v", terminated, terminated2)
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	st, _, _ := populatedStore(t)
	var b1, b2 bytes.Buffer
	if err := st.WriteSnapshot(&b1); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("snapshots of the same store differ")
	}
}

func TestSnapshotIDsContinue(t *testing.T) {
	st, _, _ := populatedStore(t)
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// New entities must not collide with existing IDs.
	nu := got.AddUser(User{Country: CountryUSA})
	if _, err := st.User(nu); err == nil {
		t.Fatal("new user ID collides with pre-snapshot ID space")
	}
	np, err := got.AddPage(Page{Name: "new"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Page(np); err == nil {
		t.Fatal("new page ID collides")
	}
}

func TestReadSnapshotGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewBufferString("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// FuzzReadSnapshot feeds arbitrary bytes to the snapshot decoder and
// restore. They must never panic: either they reject the input, or the
// store they return writes a snapshot that decodes again. The seed
// corpus in testdata/fuzz/FuzzReadSnapshot holds the garbage input and
// a small world from the tests above, plus one hand-built snapshot per
// restore error (missing user, missing page, duplicate indexed like,
// history for a missing user) and a valid hand-built one.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := st.WriteSnapshot(&buf); err != nil {
			t.Fatalf("restored store does not write a snapshot: %v", err)
		}
		if _, err := ReadSnapshot(&buf); err != nil {
			t.Fatalf("rewritten snapshot does not decode: %v", err)
		}
	})
}
