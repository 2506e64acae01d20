package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/socialnet"
)

// OpKind is what one scheduled request does.
type OpKind uint8

const (
	// OpOrganic is an ordinary user liking an ordinary page.
	OpOrganic OpKind = iota
	// OpFarm is one like of a farm delivery: a never-enrolled account
	// liking a honeypot page, followed by that account's verdict read.
	OpFarm
)

// Op is one request of the open loop.
type Op struct {
	// At is the intended send time, as an offset from the loop's start.
	At   time.Duration
	Kind OpKind
	User socialnet.UserID
	Page socialnet.PageID
	// Step indexes the offered-rate step the op belongs to.
	Step int
	// Lag marks the seeded sample whose follower visibility is timed.
	Lag bool
}

// Step is one fixed offered rate held for a fixed time.
type Step struct {
	Rate float64 // likes per second
	Dur  time.Duration
}

// Delivery is one farm delivery of the served world: Size likes onto
// one honeypot page.
type Delivery struct {
	Page socialnet.PageID
	Size int
}

// Pools are the inputs a schedule draws from, all derived from the
// world alone: Deliveries are the world's farm deliveries in the order
// they happened, Fresh accounts have never liked a tracked page and are
// not terminated, and organic likes pair an Active user with an
// Ordinary page the user has not liked.
type Pools struct {
	Deliveries []Delivery
	Fresh      []socialnet.UserID
	Active     []socialnet.UserID
	Ordinary   []socialnet.PageID
	Liked      func(socialnet.UserID, socialnet.PageID) bool
}

// Schedule shape: ops alternate between a farm like and an organic
// like. Farm likes replay the world's deliveries — same pages, same
// sizes, same order, from the first — each like from a distinct fresh
// account. Every seed thus offers the same deliveries at the same
// points of the run: a delivery's later likes cost more than its first
// (each one joins a fuller lockstep bucket), so a seed-picked start
// would move the figures with the seed. lagShare of all ops are
// sampled for replica lag.
const lagShare = 0.5

// BuildSchedule lays out the open loop: one op in each of a step's
// equal slots, accounts and organic pairs drawn from pools by a generator
// seeded with seed alone. It is a pure function of
// (seed, steps, pools). It returns false when the pools run dry.
func BuildSchedule(seed int64, steps []Step, pools Pools) ([]Op, bool) {
	if len(pools.Deliveries) == 0 {
		return nil, false
	}
	r := rand.New(rand.NewSource(seed))
	fresh := append([]socialnet.UserID(nil), pools.Fresh...)
	r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	used := map[[2]int64]bool{}
	var ops []Op
	next := 0 // the delivery after the current one
	var page socialnet.PageID
	left := 0 // likes remaining in the current delivery
	var base time.Duration
	for si, st := range steps {
		n := int(st.Rate * st.Dur.Seconds())
		gap := time.Duration(float64(time.Second) / st.Rate)
		for k := 0; k < n; k++ {
			// Each op falls at a seeded point of its own slot: constant
			// spacing would lock its phase to the follower's fixed poll
			// interval and make replica lag a constant of the start-up.
			at := base + time.Duration((float64(k)+r.Float64())*float64(gap))
			op := Op{At: at, Step: si, Lag: r.Float64() < lagShare}
			if len(ops)%2 == 0 {
				if left == 0 {
					d := pools.Deliveries[next]
					page, left = d.Page, d.Size
					next = (next + 1) % len(pools.Deliveries)
				}
				if len(fresh) == 0 {
					return nil, false
				}
				op.Kind, op.User, op.Page = OpFarm, fresh[0], page
				fresh = fresh[1:]
				left--
			} else {
				u, p, ok := organicPair(r, pools, used)
				if !ok {
					return nil, false
				}
				op.Kind, op.User, op.Page = OpOrganic, u, p
			}
			ops = append(ops, op)
		}
		base += st.Dur
	}
	return ops, true
}

// Deliveries in the world's likes: a run of at least minDelivery likes
// on one honeypot page with no gap over deliveryGap. The world's
// ad-campaign pages trickle in one to five likes an hour and hold no
// delivery; its farm pages take bursts of tens to hundreds of likes.
const (
	minDelivery = 10
	deliveryGap = time.Hour
)

// FindDeliveries splits each honeypot page's likes into deliveries and
// returns them ordered by their first like.
func FindDeliveries(pages []socialnet.PageID, likesOf func(socialnet.PageID) []socialnet.Like) []Delivery {
	type found struct {
		Delivery
		at time.Time
	}
	var all []found
	for _, p := range pages {
		likes := append([]socialnet.Like(nil), likesOf(p)...)
		sort.Slice(likes, func(i, j int) bool { return likes[i].At.Before(likes[j].At) })
		for i := 0; i < len(likes); {
			j := i + 1
			for j < len(likes) && likes[j].At.Sub(likes[j-1].At) <= deliveryGap {
				j++
			}
			if j-i >= minDelivery {
				all = append(all, found{Delivery{p, j - i}, likes[i].At})
			}
			i = j
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
	out := make([]Delivery, len(all))
	for i, f := range all {
		out[i] = f.Delivery
	}
	return out
}

// organicPair draws an unused (user, page) pair the user has not liked.
func organicPair(r *rand.Rand, pools Pools, used map[[2]int64]bool) (socialnet.UserID, socialnet.PageID, bool) {
	for try := 0; try < 1000; try++ {
		u := pools.Active[r.Intn(len(pools.Active))]
		p := pools.Ordinary[r.Intn(len(pools.Ordinary))]
		k := [2]int64{int64(u), int64(p)}
		if used[k] || pools.Liked(u, p) {
			continue
		}
		used[k] = true
		return u, p, true
	}
	return 0, 0, false
}

// LoopStats is what the generator itself observed.
type LoopStats struct {
	// Late is, per op, how far after its intended time it was sent.
	Late []time.Duration
	// Sent counts ops handed to do.
	Sent        int
	InFlightMax int
}

// runOpenLoop sends op i at start+at[i] on one of workers goroutines,
// the cap on requests in flight. A stalled system does not slow the
// schedule: an op whose turn comes late is sent at once and do gets
// its intended time, so the caller times each request from when it was
// due (no coordinated omission). It returns after every op has been
// done or ctx is cancelled.
func runOpenLoop(ctx context.Context, start time.Time, at []time.Duration, workers int, do func(i int, intended time.Time)) LoopStats {
	st := LoopStats{Late: make([]time.Duration, len(at))}
	var next, sent, inFlight, maxInFlight atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(0)
			<-timer.C
			defer timer.Stop()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(at) {
					return
				}
				due := start.Add(at[i])
				if d := time.Until(due); d > 0 {
					timer.Reset(d)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return
					}
				} else if ctx.Err() != nil {
					return
				}
				st.Late[i] = time.Since(due)
				n := inFlight.Add(1)
				for {
					m := maxInFlight.Load()
					if n <= m || maxInFlight.CompareAndSwap(m, n) {
						break
					}
				}
				sent.Add(1)
				do(i, due)
				inFlight.Add(-1)
			}
		}()
	}
	wg.Wait()
	st.Sent, st.InFlightMax = int(sent.Load()), int(maxInFlight.Load())
	return st
}
