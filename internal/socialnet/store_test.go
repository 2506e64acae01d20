package socialnet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2014, 3, 12, 0, 0, 0, 0, time.UTC)

func newUser() User {
	return User{
		Gender: GenderFemale, Age: Age18to24, Country: CountryUSA,
		FriendsPublic: true, Searchable: true, Kind: KindOrganic, CreatedAt: t0,
	}
}

func TestAddUserAssignsSequentialIDs(t *testing.T) {
	s := NewStore()
	a := s.AddUser(newUser())
	b := s.AddUser(newUser())
	if a != 1 || b != 2 {
		t.Fatalf("ids = %d,%d want 1,2", a, b)
	}
	if s.NumUsers() != 2 {
		t.Fatalf("NumUsers = %d", s.NumUsers())
	}
	u, err := s.User(a)
	if err != nil || u.ID != a || u.Country != CountryUSA {
		t.Fatalf("User(%d) = %+v, %v", a, u, err)
	}
	if _, err := s.User(99); !errors.Is(err, ErrNoUser) {
		t.Fatalf("missing user error = %v", err)
	}
}

func TestAddPage(t *testing.T) {
	s := NewStore()
	owner := s.AddUser(newUser())
	id, err := s.AddPage(Page{Name: "Virtual Electricity", Owner: owner, Honeypot: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Page(id)
	if err != nil || !p.Honeypot || p.Name != "Virtual Electricity" {
		t.Fatalf("Page = %+v, %v", p, err)
	}
	if _, err := s.AddPage(Page{Owner: 999}); !errors.Is(err, ErrNoUser) {
		t.Fatalf("bad owner error = %v", err)
	}
	if _, err := s.Page(999); !errors.Is(err, ErrNoPage) {
		t.Fatalf("missing page error = %v", err)
	}
	if s.NumPages() != 1 {
		t.Fatalf("NumPages = %d", s.NumPages())
	}
}

func TestAddLikeAndQueries(t *testing.T) {
	s := NewStore()
	u := s.AddUser(newUser())
	p, _ := s.AddPage(Page{Name: "p"})
	if err := s.AddLike(u, p, t0); err != nil {
		t.Fatal(err)
	}
	if !s.Likes(u, p) {
		t.Fatal("Likes should be true")
	}
	if err := s.AddLike(u, p, t0.Add(time.Hour)); !errors.Is(err, ErrDuplicateLike) {
		t.Fatalf("duplicate like error = %v", err)
	}
	if err := s.AddLike(99, p, t0); !errors.Is(err, ErrNoUser) {
		t.Fatalf("like by missing user = %v", err)
	}
	if err := s.AddLike(u, 99, t0); !errors.Is(err, ErrNoPage) {
		t.Fatalf("like of missing page = %v", err)
	}
	if n := s.LikeCountOfPage(p); n != 1 {
		t.Fatalf("LikeCountOfPage = %d", n)
	}
	if n := s.LikeCountOfUser(u); n != 1 {
		t.Fatalf("LikeCountOfUser = %d", n)
	}
}

func TestLikesOrderedByTime(t *testing.T) {
	s := NewStore()
	p, _ := s.AddPage(Page{Name: "p"})
	times := []time.Duration{5 * time.Hour, time.Hour, 3 * time.Hour}
	for _, d := range times {
		u := s.AddUser(newUser())
		if err := s.AddLike(u, p, t0.Add(d)); err != nil {
			t.Fatal(err)
		}
	}
	likes := s.LikesOfPage(p)
	for i := 1; i < len(likes); i++ {
		if likes[i].At.Before(likes[i-1].At) {
			t.Fatalf("likes not time-ordered: %v", likes)
		}
	}
}

// TestAppendPagesOfUserAppendOrder: the unsorted accessor appends the
// user's pages — campaign likes and imported history alike — in append
// order after dst's existing contents, without touching the sorted view.
func TestAppendPagesOfUserAppendOrder(t *testing.T) {
	s := NewStore()
	u := s.AddUser(newUser())
	var pages []PageID
	for i := 0; i < 3; i++ {
		p, _ := s.AddPage(Page{Name: "p"})
		pages = append(pages, p)
	}
	if err := s.AddLike(u, pages[2], t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddHistory(u, []Like{{Page: pages[0], At: t0.Add(time.Hour)}, {Page: pages[1], At: t0}}); err != nil {
		t.Fatal(err)
	}
	got := s.AppendPagesOfUser([]PageID{99}, u)
	want := []PageID{99, pages[2], pages[0], pages[1]}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("AppendPagesOfUser = %v, want %v", got, want)
	}
	if sorted := s.LikesOfUser(u); sorted[0].Page != pages[1] {
		t.Fatalf("sorted view changed: %v", sorted)
	}
	if got := s.AppendPagesOfUser(nil, s.AddUser(newUser())); len(got) != 0 {
		t.Fatalf("user without likes = %v", got)
	}
}

func TestTerminatedCannotLike(t *testing.T) {
	s := NewStore()
	u := s.AddUser(newUser())
	p, _ := s.AddPage(Page{Name: "p"})
	q, _ := s.AddPage(Page{Name: "q"})
	if err := s.AddLike(u, p, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.Terminate(u); err != nil {
		t.Fatal(err)
	}
	if err := s.AddLike(u, q, t0); !errors.Is(err, ErrTerminated) {
		t.Fatalf("terminated like error = %v", err)
	}
	// Historical likes survive termination (paper's month-later check).
	if !s.Likes(u, p) {
		t.Fatal("termination should not erase history")
	}
	usr, _ := s.User(u)
	if usr.Status != StatusTerminated {
		t.Fatalf("status = %v", usr.Status)
	}
	if err := s.Terminate(999); !errors.Is(err, ErrNoUser) {
		t.Fatalf("terminate missing user = %v", err)
	}
}

func TestFriendships(t *testing.T) {
	s := NewStore()
	a := s.AddUser(newUser())
	b := s.AddUser(newUser())
	c := s.AddUser(newUser())
	if err := s.Friend(a, b); err != nil {
		t.Fatal(err)
	}
	if !s.AreFriends(a, b) || !s.AreFriends(b, a) {
		t.Fatal("friendship should be mutual")
	}
	if s.AreFriends(a, c) {
		t.Fatal("a,c should not be friends")
	}
	if err := s.Friend(a, 99); !errors.Is(err, ErrNoUser) {
		t.Fatalf("friend with missing = %v", err)
	}
	if err := s.Friend(a, a); err == nil {
		t.Fatal("self-friendship should error")
	}
	if got := s.FriendCount(a); got != 1 {
		t.Fatalf("FriendCount = %d", got)
	}
	fs := s.FriendsOf(a)
	if len(fs) != 1 || fs[0] != b {
		t.Fatalf("FriendsOf = %v", fs)
	}
}

func TestFriendsVisibility(t *testing.T) {
	s := NewStore()
	pub := s.AddUser(newUser())
	priv := newUser()
	priv.FriendsPublic = false
	pid := s.AddUser(priv)
	if !s.FriendsVisible(pub) {
		t.Fatal("public user should be visible")
	}
	if s.FriendsVisible(pid) {
		t.Fatal("private user should not be visible")
	}
	if s.FriendsVisible(999) {
		t.Fatal("missing user should not be visible")
	}
	if err := s.SetFriendsPublic(pid, true); err != nil {
		t.Fatal(err)
	}
	if !s.FriendsVisible(pid) {
		t.Fatal("visibility update should apply")
	}
	if err := s.SetFriendsPublic(999, true); !errors.Is(err, ErrNoUser) {
		t.Fatalf("SetFriendsPublic missing = %v", err)
	}
}

func TestDirectoryOnlySearchable(t *testing.T) {
	s := NewStore()
	a := s.AddUser(newUser())
	hidden := newUser()
	hidden.Searchable = false
	s.AddUser(hidden)
	c := s.AddUser(newUser())
	dir := s.Directory()
	if len(dir) != 2 || dir[0] != a || dir[1] != c {
		t.Fatalf("Directory = %v", dir)
	}
}

func TestFriendGraphSnapshotIsolated(t *testing.T) {
	s := NewStore()
	a := s.AddUser(newUser())
	b := s.AddUser(newUser())
	_ = s.Friend(a, b)
	g := s.FriendGraph()
	g.RemoveNode(int64(a))
	if !s.AreFriends(a, b) {
		t.Fatal("mutating snapshot affected store")
	}
}

func TestUsersWhere(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		u := newUser()
		if i%2 == 0 {
			u.Country = CountryIndia
		}
		s.AddUser(u)
	}
	got := s.UsersWhere(func(u *User) bool { return u.Country == CountryIndia })
	if len(got) != 3 {
		t.Fatalf("UsersWhere = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("UsersWhere should be ascending")
		}
	}
}

func TestPagesSorted(t *testing.T) {
	s := NewStore()
	for i := 0; i < 4; i++ {
		if _, err := s.AddPage(Page{Name: fmt.Sprintf("p%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	ps := s.Pages()
	if len(ps) != 4 {
		t.Fatalf("Pages = %v", ps)
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] <= ps[i-1] {
			t.Fatal("Pages should be ascending")
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	p, _ := s.AddPage(Page{Name: "p"})
	const n = 64
	ids := make([]UserID, n)
	for i := range ids {
		ids[i] = s.AddUser(newUser())
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			_ = s.AddLike(ids[i], p, t0.Add(time.Duration(i)*time.Minute))
		}(i)
		go func(i int) {
			defer wg.Done()
			_ = s.LikesOfPage(p)
			_ = s.FriendCount(ids[i])
			_, _ = s.User(ids[i])
		}(i)
	}
	wg.Wait()
	if got := s.LikeCountOfPage(p); got != n {
		t.Fatalf("concurrent likes = %d, want %d", got, n)
	}
}

func TestStringers(t *testing.T) {
	if GenderFemale.String() != "F" || GenderMale.String() != "M" || GenderUnknown.String() != "?" {
		t.Fatal("gender strings")
	}
	if Age13to17.String() != "13-17" || Age55plus.String() != "55+" {
		t.Fatal("age strings")
	}
	if AgeBracket(200).String() != "?" {
		t.Fatal("invalid age string")
	}
	if StatusActive.String() != "active" || StatusTerminated.String() != "terminated" {
		t.Fatal("status strings")
	}
	if KindOrganic.String() != "organic" || KindFarmBot.String() != "farm-bot" || KindFarmStealth.String() != "farm-stealth" {
		t.Fatal("kind strings")
	}
}
