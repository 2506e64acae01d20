package main

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/socialnet"
)

func testPools() Pools {
	p := Pools{Liked: func(u socialnet.UserID, p socialnet.PageID) bool { return (int64(u)+int64(p))%7 == 0 }}
	for i := 1; i <= 400; i++ {
		p.Fresh = append(p.Fresh, socialnet.UserID(1000+i))
		p.Active = append(p.Active, socialnet.UserID(i))
	}
	for i := 1; i <= 50; i++ {
		p.Ordinary = append(p.Ordinary, socialnet.PageID(i))
	}
	p.Deliveries = []Delivery{{901, 30}, {902, 12}, {903, 50}}
	return p
}

var testSteps = []Step{{Rate: 20, Dur: 2 * time.Second}, {Rate: 50, Dur: 3 * time.Second}}

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	a, ok := BuildSchedule(7, testSteps, testPools())
	if !ok {
		t.Fatal("pools ran dry")
	}
	b, _ := BuildSchedule(7, testSteps, testPools())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c, _ := BuildSchedule(8, testSteps, testPools())
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if want := 20*2 + 50*3; len(a) != want {
		t.Fatalf("%d ops, want %d", len(a), want)
	}
	freshSeen := map[socialnet.UserID]bool{}
	pairs := map[[2]int64]bool{}
	pools := testPools()
	for i, op := range a {
		// Op k of a step falls in the step's k-th slot.
		var base time.Duration
		k := i
		for _, st := range testSteps[:op.Step] {
			base += st.Dur
			k -= int(st.Rate * st.Dur.Seconds())
		}
		gap := time.Duration(float64(time.Second) / testSteps[op.Step].Rate)
		if lo := base + time.Duration(k)*gap; op.At < lo || op.At >= lo+gap {
			t.Fatalf("op %d at %v, outside its slot [%v, %v)", i, op.At, lo, lo+gap)
		}
		switch op.Kind {
		case OpFarm:
			if freshSeen[op.User] {
				t.Fatalf("fresh account %d used twice", op.User)
			}
			freshSeen[op.User] = true
		case OpOrganic:
			k := [2]int64{int64(op.User), int64(op.Page)}
			if pairs[k] || pools.Liked(op.User, op.Page) {
				t.Fatalf("organic like %v repeats or is already liked", k)
			}
			pairs[k] = true
		}
	}
	if len(freshSeen) == 0 || len(pairs) == 0 {
		t.Fatal("schedule lacks farm or organic likes")
	}
	// Farm likes replay whole deliveries in the world's order.
	var runs []Delivery
	for _, op := range a {
		if op.Kind != OpFarm {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].Page == op.Page {
			runs[n-1].Size++
		} else {
			runs = append(runs, Delivery{op.Page, 1})
		}
	}
	ds := pools.Deliveries
	for k, d := range runs[:len(runs)-1] {
		if want := ds[k%len(ds)]; d != want {
			t.Fatalf("delivery %d is %v, want %v", k, d, want)
		}
	}
}

func TestFindDeliveriesSplitsBurstsAndDropsTrickles(t *testing.T) {
	t0 := time.Date(2014, 3, 12, 0, 0, 0, 0, time.UTC)
	likes := map[socialnet.PageID][]socialnet.Like{}
	burst := func(p socialnet.PageID, at time.Time, n int, gap time.Duration) {
		for i := 0; i < n; i++ {
			likes[p] = append(likes[p], socialnet.Like{User: socialnet.UserID(len(likes[p]) + 1), Page: p, At: at.Add(time.Duration(i) * gap)})
		}
	}
	// Page 1: a burst of 12, then after a two-hour gap one of 20, stored
	// out of order.
	burst(1, t0.Add(5*time.Hour), 20, time.Minute)
	burst(1, t0.Add(time.Hour), 12, time.Minute)
	// Page 2: a trickle, one like every two hours, is no delivery.
	burst(2, t0, 30, 2*time.Hour)
	// Page 3: one burst of exactly minDelivery, the world's first.
	burst(3, t0, minDelivery, time.Second)
	got := FindDeliveries([]socialnet.PageID{1, 2, 3}, func(p socialnet.PageID) []socialnet.Like { return likes[p] })
	want := []Delivery{{3, minDelivery}, {1, 12}, {1, 20}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
}

func TestOpenLoopTimesFromIntendedSendAndReportsLateness(t *testing.T) {
	const work = 20 * time.Millisecond
	at := []time.Duration{0, 0, 0}
	start := time.Now()
	lat := make([]time.Duration, len(at))
	st := runOpenLoop(context.Background(), start, at, 1, func(i int, intended time.Time) {
		if !intended.Equal(start.Add(at[i])) {
			t.Errorf("op %d: intended %v, want %v", i, intended, start.Add(at[i]))
		}
		time.Sleep(work)
		lat[i] = time.Since(intended)
	})
	if st.Sent != 3 {
		t.Fatalf("sent %d, want 3", st.Sent)
	}
	// One worker: the third op waits for two others, and both its
	// latency and its lateness show that wait.
	if lat[2] < 3*work {
		t.Fatalf("third op latency %v, want >= %v", lat[2], 3*work)
	}
	if st.Late[2] < 2*work {
		t.Fatalf("third op lateness %v, want >= %v", st.Late[2], 2*work)
	}
	if st.Late[0] >= work {
		t.Fatalf("first op lateness %v, want < %v", st.Late[0], work)
	}
}

func TestOpenLoopCapsInFlight(t *testing.T) {
	const cap = 2
	at := make([]time.Duration, 40)
	var cur, peak atomic.Int64
	st := runOpenLoop(context.Background(), time.Now(), at, cap, func(int, time.Time) {
		n := cur.Add(1)
		for {
			m := peak.Load()
			if n <= m || peak.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	})
	if peak.Load() > cap || st.InFlightMax > cap {
		t.Fatalf("in flight peaked at %d (generator saw %d), cap %d", peak.Load(), st.InFlightMax, cap)
	}
	if st.InFlightMax != cap {
		t.Fatalf("generator never reached the cap: %d", st.InFlightMax)
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	at := []time.Duration{0, time.Hour}
	done := make(chan LoopStats)
	go func() {
		done <- runOpenLoop(ctx, time.Now(), at, 1, func(int, time.Time) {})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case st := <-done:
		if st.Sent != 1 {
			t.Fatalf("sent %d, want 1", st.Sent)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("generator did not stop")
	}
}

func TestSummaryReportsMedianAndWellSampledTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := Summarize(xs)
	if s.N != 1000 || s.Median != 500 {
		t.Fatalf("median %v n %d", s.Median, s.N)
	}
	// p99.9 has one sample beyond; p99 has exactly ten.
	if s.TailPct != 99 || s.Tail != 990 {
		t.Fatalf("tail p%v = %v, want p99 = 990", s.TailPct, s.Tail)
	}
	s = Summarize(xs[:100])
	if s.TailPct != 90 || s.Tail != 90 {
		t.Fatalf("tail p%v = %v, want p90 = 90", s.TailPct, s.Tail)
	}
	if s := Summarize(xs[:15]); s.TailPct != 0 || s.Median != 8 {
		t.Fatalf("15 samples: %+v, want median 8 and no tail", s)
	}
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty: %+v", s)
	}
}

func TestPercentileFlagsUnderSampled(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := Percentile(xs, 99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond and must be flagged")
	}
	if v, ok := Percentile(append(xs, 999), 99); !ok || v != 989 {
		t.Fatalf("p99 of 1000 samples = %v, %v", v, ok)
	}
	if v, ok := Percentile(xs[:3], 50); !ok || v != 1 {
		t.Fatalf("median of 3 = %v, %v", v, ok)
	}
	if _, ok := Percentile(nil, 50); ok {
		t.Fatal("empty sample must be flagged")
	}
	if math.IsNaN(median(xs)) || median(nil) != 0 {
		t.Fatal("median helper")
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "loadgen.like", Start: 0, End: 100},
		// Two overlapping children cover [10,50) once: 40.
		{ID: 2, Parent: 1, Name: "api.post_like", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "api.post_like", Start: 30, End: 50},
		// A child running past the parent's end is clipped: [90,100).
		{ID: 4, Parent: 1, Name: "api.user_fraud", Start: 90, End: 130},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 2, Name: "detect.tick", Start: 15, End: 25},
	}
	self := SelfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 30 - 10, 3: 20, 4: 40, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestTracerRecordsSpansAndNilTracerIsNoOp(t *testing.T) {
	var off *Tracer
	a := off.Begin("api.x", 0, 0)
	a.End(3)
	off.Add("c", 1)
	if a.ID() != 0 || off.Spans(Window{}) != nil || off.Counter("c", Window{}) != 0 {
		t.Fatal("nil tracer recorded something")
	}
	tr := NewTracer()
	root := tr.Begin("loadgen.like", 0, 0)
	child := tr.Begin("api.post_like", root.ID(), root.Req())
	child.End(5)
	root.End(0)
	tr.Add("c", 2)
	spans := tr.Spans(Window{})
	if len(spans) != 2 || spans[0].Parent != spans[1].ID || spans[0].Req != spans[1].Req || spans[0].Value != 5 {
		t.Fatalf("spans %+v", spans)
	}
	if tr.Counter("c", Window{}) != 2 {
		t.Fatal("counter")
	}
	// A window keeps the spans that start in it and the counter bumps
	// made in it.
	mid := time.Now()
	time.Sleep(time.Millisecond)
	late := tr.Begin("detect.tick", 0, 0)
	late.End(0)
	tr.Add("c", 5)
	w := tr.WindowOf(mid, mid.Add(time.Hour))
	if got := tr.Spans(w); len(got) != 1 || got[0].Name != "detect.tick" {
		t.Fatalf("window spans %+v", got)
	}
	if tr.Counter("c", w) != 5 || tr.Counter("c", Window{}) != 7 {
		t.Fatalf("window counter %d, whole run %d", tr.Counter("c", w), tr.Counter("c", Window{}))
	}
	if err := tr.WriteFile(t.TempDir() + "/trace.jsonl"); err != nil {
		t.Fatal(err)
	}
}
