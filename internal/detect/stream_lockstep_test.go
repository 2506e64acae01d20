package detect

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/socialnet"
)

func groupsJSON(t *testing.T, groups []LockstepGroup) string {
	t.Helper()
	data, err := json.Marshal(groups)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// assertLockstepMatchesBatch pins the streaming lockstep report — and
// every enrolled account's full composite verdict — byte-identical to
// the batch engine at the given worker count.
func assertLockstepMatchesBatch(t *testing.T, st *socialnet.Store, s *StreamScorer, workers int) {
	t.Helper()
	batchGroups, err := Lockstep(st, st.HoneypotPages(), DefaultLockstepConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := groupsJSON(t, s.LockstepGroups()), groupsJSON(t, batchGroups); got != want {
		t.Errorf("streaming groups %s\n     batch groups %s", got, want)
	}
	accounts := s.Accounts()
	if len(accounts) == 0 {
		t.Fatal("no enrolled accounts")
	}
	batch, err := BatchVerdicts(st, accounts, nil, DefaultLockstepConfig(), workers)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range accounts {
		v, ok := s.Verdict(u)
		if !ok {
			t.Fatalf("user %d enrolled but has no verdict", u)
		}
		if v != batch[i] {
			t.Errorf("user %d: streaming %+v\n        batch %+v", u, v, batch[i])
		}
	}
}

// TestStreamLockstepMatchesBatch is the tentpole equivalence pin: the
// streaming lockstep groups equal batch Lockstep output byte for byte
// across worker counts, across kill/restore at mid-stream cut points,
// and across an out-of-order arrival that forces a sketch resync.
func TestStreamLockstepMatchesBatch(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			st := streamWorld(t)
			s := NewStreamScorer(st, StreamScorerConfig{})
			drain(s, 37)
			if len(s.LockstepGroups()) == 0 {
				t.Fatal("stream world produced no lockstep groups")
			}
			assertLockstepMatchesBatch(t, st, s, workers)
		})
	}

	t.Run("kill-restore", func(t *testing.T) {
		st := streamWorld(t)
		uncut := NewStreamScorer(st, StreamScorerConfig{})
		drain(uncut, 0)
		for _, cut := range []int{1, 101, 307} {
			t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
				s := NewStreamScorer(st, StreamScorerConfig{})
				if s.TickLimit(cut) != cut {
					t.Fatalf("short stream: could not consume %d events", cut)
				}
				blob, err := s.MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				restored, err := RestoreStreamScorer(st, StreamScorerConfig{}, blob)
				if err != nil {
					t.Fatal(err)
				}
				drain(restored, 53)
				assertLockstepMatchesBatch(t, st, restored, 4)
				if got, want := groupsJSON(t, restored.LockstepGroups()), groupsJSON(t, uncut.LockstepGroups()); got != want {
					t.Errorf("restored groups %s\nuninterrupted %s", got, want)
				}
				for _, u := range uncut.Accounts() {
					a, _ := uncut.Verdict(u)
					b, ok := restored.Verdict(u)
					if !ok || a != b {
						t.Errorf("user %d: uninterrupted %+v, restored %+v (ok=%v)", u, a, b, ok)
					}
				}
			})
		}
	})

	t.Run("out-of-order-resync", func(t *testing.T) {
		st := socialnet.NewStore()
		hp1, err := st.AddPage(socialnet.Page{Name: "hp1", Honeypot: true})
		if err != nil {
			t.Fatal(err)
		}
		hp2, err := st.AddPage(socialnet.Page{Name: "hp2", Honeypot: true})
		if err != nil {
			t.Fatal(err)
		}
		a := st.AddUser(socialnet.User{Country: "TR"})
		b := st.AddUser(socialnet.User{Country: "TR"})
		c := st.AddUser(socialnet.User{Country: "TR"})
		for _, like := range []struct {
			u  socialnet.UserID
			p  socialnet.PageID
			at time.Time
		}{
			{a, hp1, t0.Add(10*time.Hour + 30*time.Minute)},
			{b, hp1, t0.Add(10*time.Hour + 31*time.Minute)},
			{a, hp2, t0.Add(20*time.Hour + 30*time.Minute)},
			{b, hp2, t0.Add(20*time.Hour + 31*time.Minute)},
		} {
			if err := st.AddLike(like.u, like.p, like.at); err != nil {
				t.Fatal(err)
			}
		}
		s := NewStreamScorer(st, StreamScorerConfig{})
		s.Tick()

		// Backfilled likes stamped before the pages' folded frontier —
		// same 2h bins as a's and b's likes, but delivered after them —
		// must poison both sketches and resync exactly.
		if err := st.AddLike(c, hp1, t0.Add(10*time.Hour+10*time.Minute)); err != nil {
			t.Fatal(err)
		}
		if err := st.AddLike(c, hp2, t0.Add(20*time.Hour+10*time.Minute)); err != nil {
			t.Fatal(err)
		}
		s.Tick()
		if n := len(s.dirtyPages); n != 0 {
			t.Fatalf("%d pages still dirty after tick", n)
		}
		for _, p := range []socialnet.PageID{hp1, hp2} {
			sk := s.lockstep.sketches[p]
			if sk == nil || sk.count != 3 {
				t.Fatalf("page %d sketch not rebuilt from full prefix: %+v", p, sk)
			}
		}
		groups := s.LockstepGroups()
		if len(groups) != 1 || len(groups[0].Users) != 3 || len(groups[0].Pages) != 2 {
			t.Fatalf("groups after resync = %+v, want {a,b,c}x{hp1,hp2}", groups)
		}
		v, ok := s.Verdict(c)
		if !ok || v.Lockstep != (LockstepVerdict{Group: 1, Size: 3, Pages: 2}) {
			t.Fatalf("c's lockstep verdict = %+v (ok=%v)", v.Lockstep, ok)
		}
		assertLockstepMatchesBatch(t, st, s, 1)
	})
}

// TestStreamLockstepStateDeterministic extends the sidecar-bytes pin to
// the sketch state: chunked consumption (which poisons and resyncs
// pages mid-stream) and one-shot consumption serialize identically.
func TestStreamLockstepStateDeterministic(t *testing.T) {
	st := streamWorld(t)
	a := NewStreamScorer(st, StreamScorerConfig{})
	b := NewStreamScorer(st, StreamScorerConfig{})
	drain(a, 19)
	drain(b, 0)
	ba, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if string(ba) != string(bb) {
		t.Fatalf("sketch state bytes differ between chunked and one-shot consumption")
	}
}

// TestLockstepStaleRule pins when the streaming group report is
// recomputed: a like whose new pairs all sit on fewer than MinPages
// pages leaves the cached report untouched, while a qualified pair
// gaining a page, or losing one to an eviction of its last shared bin,
// forces a recompute.
func TestLockstepStaleRule(t *testing.T) {
	cfg := LockstepConfig{Window: 2 * time.Hour, MinUsers: 2, MinPages: 2, MaxBucketUsers: 2}
	st := socialnet.NewStore()
	var hp [3]socialnet.PageID
	for i := range hp {
		p, err := st.AddPage(socialnet.Page{Name: fmt.Sprintf("hp%d", i), Honeypot: true})
		if err != nil {
			t.Fatal(err)
		}
		hp[i] = p
	}
	// x has the smallest ID, so its late like evicts b from a full bin.
	x := st.AddUser(socialnet.User{Country: "TR"})
	a := st.AddUser(socialnet.User{Country: "TR"})
	b := st.AddUser(socialnet.User{Country: "TR"})
	c := st.AddUser(socialnet.User{Country: "TR"})
	d := st.AddUser(socialnet.User{Country: "TR"})
	s := NewStreamScorer(st, StreamScorerConfig{Lockstep: cfg})
	like := func(u socialnet.UserID, p socialnet.PageID, at time.Duration) {
		t.Helper()
		if err := st.AddLike(u, p, t0.Add(at)); err != nil {
			t.Fatal(err)
		}
	}
	// tick consumes the likes and reports whether the report went
	// stale; then it checks the report against batch Lockstep.
	tick := func() bool {
		t.Helper()
		s.Tick()
		stale := s.lockstep.stale
		batch, err := Lockstep(st, hp[:], cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := groupsJSON(t, s.LockstepGroups()), groupsJSON(t, batch); got != want {
			t.Fatalf("streaming groups %s\n     batch groups %s", got, want)
		}
		return stale
	}

	like(a, hp[0], 10*time.Minute)
	like(b, hp[0], 11*time.Minute)
	like(a, hp[1], 10*time.Minute)
	like(b, hp[1], 11*time.Minute)
	if !tick() {
		t.Fatal("a pair qualifying on two pages left the report fresh")
	}
	cached := s.LockstepGroups()
	if len(cached) != 1 || len(cached[0].Pages) != 2 {
		t.Fatalf("groups = %+v, want {a,b} on two pages", cached)
	}

	// Fresh accounts co-acting on one page: (c,d) sits on one page,
	// below MinPages, and (a,c)/(b,c) never form.
	like(c, hp[2], 4*time.Hour)
	like(d, hp[2], 4*time.Hour+time.Minute)
	like(c, hp[0], 4*time.Hour)
	if tick() {
		t.Fatal("pairs on fewer than MinPages pages marked the report stale")
	}
	if again := s.LockstepGroups(); &again[0] != &cached[0] {
		t.Fatal("report recomputed for pairs below MinPages")
	}

	// The qualified pair gains a third page.
	like(a, hp[2], 6*time.Hour)
	like(b, hp[2], 6*time.Hour+time.Minute)
	if !tick() {
		t.Fatal("a qualified pair gaining a page left the report fresh")
	}
	if g := s.LockstepGroups(); len(g) != 1 || len(g[0].Pages) != 3 {
		t.Fatalf("groups = %+v, want {a,b} on three pages", g)
	}

	// x joins the full {a,b} bin on hp2 and evicts b: the qualified
	// pair loses its last bin there.
	like(x, hp[2], 6*time.Hour+2*time.Minute)
	if !tick() {
		t.Fatal("evicting a qualified pair's last bin left the report fresh")
	}
	if g := s.LockstepGroups(); len(g) != 1 || len(g[0].Pages) != 2 {
		t.Fatalf("groups = %+v, want {a,b} back on two pages", g)
	}
}

// TestStreamLockstepRandomSchedules drives the streaming lockstep
// detector through seeded random schedules — fresh and repeat likers,
// bucket caps small enough to evict, back-stamped likes that poison a
// page and force its resync, bounded ticks, and a MarshalState →
// RestoreStreamScorer cut — and after every tick pins the live report
// to batch Lockstep over the consumed prefix, and every enrolled
// account's Verdict.Lockstep to AttachLockstep over that report.
func TestStreamLockstepRandomSchedules(t *testing.T) {
	for _, minPages := range []int{1, 2, 3} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("minpages=%d/seed=%d", minPages, seed), func(t *testing.T) {
				runRandomLockstepSchedule(t, seed, LockstepConfig{
					Window:         2 * time.Hour,
					MinUsers:       2,
					MinPages:       minPages,
					MaxBucketUsers: 3,
				})
			})
		}
	}
}

func runRandomLockstepSchedule(t *testing.T, seed int64, cfg LockstepConfig) {
	rng := rand.New(rand.NewSource(seed))
	// The shadow store holds the same users and pages, and exactly the
	// likes the scorer has consumed: batch Lockstep over it is the
	// oracle at every tick, quiescent or not.
	st, shadow := socialnet.NewShardedStore(4), socialnet.NewShardedStore(4)
	var tracked, pages []socialnet.PageID
	for i := 0; i < 7; i++ {
		hp := i < 6
		p, err := st.AddPage(socialnet.Page{Name: fmt.Sprintf("p%d", i), Honeypot: hp})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := shadow.AddPage(socialnet.Page{Name: fmt.Sprintf("p%d", i), Honeypot: hp}); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
		if hp {
			tracked = append(tracked, p)
		}
	}
	var users []socialnet.UserID
	addUser := func() socialnet.UserID {
		u := st.AddUser(socialnet.User{Country: "TR"})
		shadow.AddUser(socialnet.User{Country: "TR"})
		users = append(users, u)
		return u
	}
	for i := 0; i < 6; i++ {
		addUser()
	}
	scfg := StreamScorerConfig{Lockstep: cfg}
	s := NewStreamScorer(st, scfg)
	cutRound := 5 + rng.Intn(20)
	clock := time.Duration(0)
	sawGroups := false

	check := func(round int) {
		t.Helper()
		for _, p := range tracked {
			s.reader.ReplayPage(p, func(ev socialnet.LikeEvent) {
				if !shadow.Likes(ev.User, ev.Page) {
					if err := shadow.AddLike(ev.User, ev.Page, ev.At); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		batch, err := Lockstep(shadow, tracked, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := groupsJSON(t, s.LockstepGroups()), groupsJSON(t, batch); got != want {
			t.Fatalf("round %d: streaming groups %s\n              batch groups %s", round, got, want)
		}
		sawGroups = sawGroups || len(batch) > 0
		var live, want []Verdict
		for _, u := range s.Accounts() {
			v, ok := s.Verdict(u)
			if !ok {
				t.Fatalf("round %d: user %d enrolled but has no verdict", round, u)
			}
			live = append(live, v)
			v.Lockstep = LockstepVerdict{}
			want = append(want, v)
		}
		AttachLockstep(want, batch)
		for i := range live {
			if live[i].Lockstep != want[i].Lockstep {
				t.Fatalf("round %d: user %d lockstep %+v, batch %+v",
					round, live[i].Features.User, live[i].Lockstep, want[i].Lockstep)
			}
		}
	}

	for round := 0; round < 30; round++ {
		// A round is one farm-style burst: a small cohort of fresh and
		// repeat likers likes a few pages close together in time.
		cohort := make([]socialnet.UserID, 2+rng.Intn(3))
		for i := range cohort {
			if rng.Intn(4) == 0 {
				cohort[i] = addUser()
			} else {
				cohort[i] = users[rng.Intn(len(users))]
			}
		}
		for _, pi := range rng.Perm(len(pages))[:2+rng.Intn(len(pages)-1)] {
			for _, u := range cohort {
				if rng.Intn(4) == 0 {
					continue
				}
				clock += time.Duration(rng.Intn(12)) * time.Minute
				at := clock
				if rng.Intn(5) == 0 {
					// Back-stamped: lands behind the page's folded frontier.
					at -= time.Duration(rng.Intn(6*60)) * time.Minute
				}
				// Duplicate likes are refused by the store; skip them.
				_ = st.AddLike(u, pages[pi], t0.Add(at))
			}
		}
		for {
			n := s.TickLimit(1 + rng.Intn(8))
			check(round)
			if n == 0 {
				break
			}
		}
		if round == cutRound {
			blob, err := s.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if s, err = RestoreStreamScorer(st, scfg, blob); err != nil {
				t.Fatal(err)
			}
			check(round)
		}
	}
	if !sawGroups {
		t.Fatal("schedule never produced a lockstep group")
	}
}
