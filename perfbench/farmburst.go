package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/socialnet"
)

// farm-burst's offered rates, in likes per second, as shares of the
// run. The nominal step, which every latency figure and every layer
// figure of the traced run comes from, offers 20 likes/s: 10 farm likes
// and their verdict reads a second, a quarter to a third of the 33 to
// 42 verdicts/s (medians of two 10-seed sets) the overload step
// completed on a 2-vCPU machine when the benchmark took this form. The
// overload step offers 150 likes/s, 75 verdict reads a second, well
// past that capacity, so its completed verdict rate is the scorer's
// capacity and not the offered rate. At 25 s the nominal step holds 450 likes and 225 verdict
// reads, so p95 has at least ten samples beyond it.
var farmSteps = []struct {
	rate  float64
	share float64
}{{20, 0.9}, {150, 0.1}}

const (
	nominalStep = 0
	// farmTail is the tail percentile farm-burst reports: the highest
	// one the nominal step samples well.
	farmTail = 95
	// A step is sustained when like_ack p95 and verdict p95 are well
	// sampled and under these limits and the backlog does not grow.
	ackLimit     = 50 * time.Millisecond
	verdictLimit = 250 * time.Millisecond
	// groupsProbes is how many stale-scorer LockstepGroups calls the
	// traced run times after the load.
	groupsProbes = 5
)

// likeBase is the like timestamp of intended offset zero: a fixed
// instant after every event of the served world, so each account's and
// each page's stream stays in time order.
var likeBase = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)

// farmPools derives the schedule's input pools from the world alone.
func farmPools(c *cluster) Pools {
	enrolled := map[socialnet.UserID]bool{}
	for _, u := range c.scorer.Accounts() {
		enrolled[u] = true
	}
	honeypots := c.store.HoneypotPages()
	honeypot := map[socialnet.PageID]bool{}
	for _, pg := range honeypots {
		honeypot[pg] = true
	}
	p := Pools{Deliveries: FindDeliveries(honeypots, c.store.LikesOfPage), Liked: c.store.Likes}
	for _, pg := range c.store.Pages() {
		if !honeypot[pg] {
			p.Ordinary = append(p.Ordinary, pg)
		}
	}
	for _, u := range c.store.UsersWhere(func(u *socialnet.User) bool { return u.Status != socialnet.StatusTerminated }) {
		p.Active = append(p.Active, u)
		if !enrolled[u] {
			p.Fresh = append(p.Fresh, u)
		}
	}
	return p
}

// opResult is what one scheduled op observed.
type opResult struct {
	ack, verdict time.Duration // from the intended send time
	// read is the verdict read alone: from the ack, when the read is
	// issued, to its 200.
	read      time.Duration
	acked, ok bool
}

func runFarmBurst(b *bench) (*result, error) {
	c, setups, err := setUp(b)
	if err != nil {
		return nil, err
	}
	defer c.close()

	var steps []Step
	for _, s := range farmSteps {
		steps = append(steps, Step{Rate: s.rate, Dur: time.Duration(s.share * float64(b.seconds) * float64(time.Second))})
	}
	ops, ok := BuildSchedule(b.seed, steps, farmPools(c))
	if !ok {
		return nil, fmt.Errorf("world too small for the schedule")
	}
	walBefore := dirBytes(c.leaderDir)

	client := &http.Client{Transport: newTransport(b.nproc), Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	res := make([]opResult, len(ops))

	// Replica lag: after each follower poll, every sampled acked like
	// the follower now shows is timed from its ack.
	type pending struct {
		i   int
		ack time.Time
	}
	var lagMu sync.Mutex
	var waiting []pending
	lags := make([][]float64, len(steps)) // per step
	c.runScorer()
	c.runFollower(func(now time.Time) {
		lagMu.Lock()
		defer lagMu.Unlock()
		keep := waiting[:0]
		for _, p := range waiting {
			if c.fw.Store().Likes(ops[p.i].User, ops[p.i].Page) {
				st := ops[p.i].Step
				lags[st] = append(lags[st], ms(now.Sub(p.ack)))
			} else {
				keep = append(keep, p)
			}
		}
		waiting = keep
	})

	at := make([]time.Duration, len(ops))
	for i, op := range ops {
		at[i] = op.At
	}
	start := time.Now()
	// The nominal step runs first.
	window := b.tr.WindowOf(start, start.Add(steps[nominalStep].Dur))
	loop := runOpenLoop(b.ctx, start, at, b.nproc, func(i int, intended time.Time) {
		op := ops[i]
		r := &res[i]
		root := b.tr.Begin("loadgen.like", 0, 0)
		status, _, err := postLike(client, c.leader.url, op, root)
		root.End(0)
		if err != nil || status != http.StatusCreated {
			return
		}
		ackAt := time.Now()
		r.ack, r.acked = ackAt.Sub(intended), true
		if op.Lag {
			lagMu.Lock()
			waiting = append(waiting, pending{i, ackAt})
			lagMu.Unlock()
		}
		if op.Kind != OpFarm {
			r.ok = true
			return
		}
		vs := b.tr.Begin("loadgen.verdict", 0, root.Req())
		status, out, err := do(client, http.MethodGet, fmt.Sprintf("%s/api/user/%d/fraud", c.leader.url, op.User), nil, vs)
		vs.End(0)
		if err != nil || status != http.StatusOK {
			return
		}
		var doc api.FraudVerdictDoc
		if json.Unmarshal(out, &doc) != nil || doc.User != int64(op.User) {
			return
		}
		now := time.Now()
		r.verdict, r.read, r.ok = now.Sub(intended), now.Sub(ackAt), true
	})
	loopEnd := time.Now()

	// Quiesce: final scorer tick and save, follower caught up.
	c.stopLoops()
	b.markHeap()
	r := &result{window: window}
	r.check(c.tickAndSave() == nil && c.saveErrs.Load() == 0, "scorer sidecar saves")
	r.check(c.catchUp() == nil, "follower catch-up")
	walGrowth := dirBytes(c.leaderDir) - walBefore
	now := time.Now()
	lagMu.Lock()
	for _, p := range waiting {
		if c.fw.Store().Likes(ops[p.i].User, ops[p.i].Page) {
			st := ops[p.i].Step
			lags[st] = append(lags[st], ms(now.Sub(p.ack)))
		}
	}
	lagMu.Unlock()

	live, batch, err := fraudReports(c, client, b.nproc)
	r.check(err == nil && bytes.Equal(live, batch), "live /api/fraud equals BatchFraudReport")
	r.check(sameLikeCounts(c.store, c.fw.Store()), "follower like counts equal the leader's")
	b.markHeap()

	// Per-step figures. Each like is one operation and each farm like's
	// verdict read another; an op the generator never sent fails both.
	type stepFig struct{ ack, verdict, read, late []float64 }
	figs := make([]stepFig, len(steps))
	acked := 0
	// The overload step's completed verdicts per second, from its first
	// intended send to its last verdict, is the scorer's capacity.
	top := len(steps) - 1
	var capDone int
	var capStart, capEnd time.Time
	for i, op := range ops {
		res := res[i]
		r.attempted++
		if !res.acked {
			r.failed++
		}
		if op.Kind == OpFarm {
			r.attempted++
			if !res.ok {
				r.failed++
			}
		}
		f := &figs[op.Step]
		f.late = append(f.late, ms(loop.Late[i]))
		if res.acked {
			acked++
			f.ack = append(f.ack, ms(res.ack))
		}
		if op.Kind == OpFarm && res.ok {
			f.verdict = append(f.verdict, ms(res.verdict))
			f.read = append(f.read, ms(res.read))
		}
		if op.Step != top {
			continue
		}
		if capStart.IsZero() {
			capStart = start.Add(op.At)
		}
		if op.Kind == OpFarm && res.ok {
			capDone++
			if t := start.Add(op.At).Add(res.verdict); t.After(capEnd) {
				capEnd = t
			}
		}
	}

	sustained := 0.0
	for si, f := range figs {
		ackTail, ackOK := Percentile(f.ack, farmTail)
		verTail, verOK := Percentile(f.verdict, farmTail)
		// The backlog grows when the step's last ops go out later than
		// the latency limit allows.
		lastLate := 0.0
		if n := len(f.late); n > 0 {
			lastLate = f.late[n-1]
		}
		if ackOK && verOK && ackTail <= ms(ackLimit) && verTail <= ms(verdictLimit) && lastLate <= ms(ackLimit) && steps[si].Rate > sustained {
			sustained = steps[si].Rate
		}
		b.logf("step %d (%g likes/s): like_ack %s; verdict %s; late %s", si, steps[si].Rate,
			Summarize(f.ack), Summarize(f.verdict), Summarize(f.late))
	}

	nom, nomLags := figs[nominalStep], lags[nominalStep]
	capRate := 0.0
	if d := capEnd.Sub(capStart).Seconds(); d > 0 {
		capRate = float64(capDone) / d
	}
	// The gate times the verdict read from the ack: like → verdict also
	// carries the durable ack and the generator's lateness, which on a
	// shared disk swing with the neighbours' fsyncs far more than the
	// scorer path the gate is there to guard. like → verdict is
	// reported beside it.
	r.gated(median(setups), nom.read, capRate)
	r.named("like_ack_p50_ms", nom.ack, 50, "ms")
	r.named("like_ack_p95_ms", nom.ack, farmTail, "ms")
	r.named("verdict_p50_ms", nom.verdict, 50, "ms")
	r.named("verdict_p95_ms", nom.verdict, farmTail, "ms")
	r.named("verdict_read_p50_ms", nom.read, 50, "ms")
	r.named("replica_lag_p50_ms", nomLags, 50, "ms")
	r.named("replica_lag_p95_ms", nomLags, farmTail, "ms")
	r.value("sustained_rps", sustained, "1/s")
	r.value("error_ratio", float64(r.failed)/float64(r.attempted), "ratio")
	b.logf("loop: %d ops in %.2fs, %d acked, in flight max %d", loop.Sent, loopEnd.Sub(start).Seconds(), acked, loop.InFlightMax)

	if b.tr != nil {
		r.layer("socialnet.open_ms", c.openMS)
		r.layer("socialnet.bootstrap_ms", c.bootstrapMS)
		if acked > 0 {
			r.layer("socialnet.wal_bytes_per_like", float64(walGrowth)/float64(acked))
		}
		r.layer("loadgen.late.p95_ms", tailOrFlag(nom.late, farmTail))
		r.layer("loadgen.in_flight_max", float64(loop.InFlightMax))
		r.layer("loadgen.sent", float64(loop.Sent))
		r.layer("detect.groups_ms", groupsProbe(c, ops))
	}
	return r, nil
}

// postLike posts op's like to the leader, stamped likeBase plus its
// intended offset.
func postLike(cl *http.Client, leader string, op Op, sp *Active) (int, []byte, error) {
	body, err := json.Marshal(api.LikeRequest{User: int64(op.User), At: likeBase.Add(op.At).Format(time.RFC3339Nano)})
	if err != nil {
		return 0, nil, err
	}
	return do(cl, http.MethodPost, fmt.Sprintf("%s/api/page/%d/likes", leader, op.Page), body, sp)
}

// do issues one request carrying the client span's identity and
// returns the status and body.
func do(cl *http.Client, method, url string, body []byte, sp *Active) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Admin-Token", adminToken)
	if sp != nil {
		req.Header.Set(hdrSpan, strconv.FormatUint(sp.ID(), 10))
		req.Header.Set(hdrReq, strconv.FormatUint(sp.Req(), 10))
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// fraudReports fetches the live /api/fraud bytes and encodes the batch
// report over the same store the way the API encodes responses.
func fraudReports(c *cluster, cl *http.Client, workers int) ([]byte, []byte, error) {
	status, live, err := do(cl, http.MethodGet, c.leader.url+"/api/fraud", nil, nil)
	if err != nil {
		return nil, nil, err
	}
	if status != http.StatusOK {
		return nil, nil, fmt.Errorf("/api/fraud: status %d", status)
	}
	doc, err := api.BatchFraudReport(c.store, workers)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		return nil, nil, err
	}
	return live, buf.Bytes(), nil
}

// sameLikeCounts compares every page's like count on two stores.
func sameLikeCounts(a, b *socialnet.Store) bool {
	if a.NumUsers() != b.NumUsers() || a.NumPages() != b.NumPages() {
		return false
	}
	for _, p := range a.Pages() {
		if a.LikeCountOfPage(p) != b.LikeCountOfPage(p) {
			return false
		}
	}
	return true
}

// groupsProbe is the end-of-run lockstep probe: one honeypot like by a
// fresh account, a tick, then LockstepGroups timed on the stale
// scorer. It returns the median over groupsProbes probes.
func groupsProbe(c *cluster, ops []Op) float64 {
	used := map[socialnet.UserID]bool{}
	for _, op := range ops {
		used[op.User] = true
	}
	pools := farmPools(c)
	honeypots := c.store.HoneypotPages()
	var times []float64
	at := likeBase.Add(24 * time.Hour)
	for _, u := range pools.Fresh {
		if len(times) == groupsProbes {
			break
		}
		if used[u] {
			continue
		}
		page := honeypots[len(times)%len(honeypots)]
		at = at.Add(time.Second)
		if c.store.AddLike(u, page, at) != nil {
			continue
		}
		c.scorer.Tick()
		t0 := time.Now()
		c.scorer.LockstepGroups()
		times = append(times, ms(time.Since(t0)))
	}
	return median(times)
}
