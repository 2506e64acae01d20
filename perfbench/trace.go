package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the span that caused this one (0 for a
// root). Start and End are nanoseconds since the tracer's epoch.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Value is the span's work count where it has one: bytes shipped,
	// events consumed, records applied.
	Value int64 `json:"value,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans and counters in memory for the traced run and
// writes them out when the run ends. A nil *Tracer is the untraced run:
// every method is a no-op, so call sites need no branches.
type Tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu     sync.Mutex
	spans  []Span
	counts []count
}

// count is one bump of a named counter, kept with its time so a window
// of the run can read its own share.
type count struct {
	at   int64
	name string
	n    int64
}

// Window is the part of a traced run a workload's layer figures cover:
// the spans that start in [Lo, Hi) and the counter bumps made in it.
// The zero Window covers the whole run.
type Window struct{ Lo, Hi int64 }

// Holds reports whether an instant of the run lies in the window.
func (w Window) Holds(at int64) bool {
	return w == Window{} || (at >= w.Lo && at < w.Hi)
}

// WindowOf is the window between two wall-clock instants of the run.
func (t *Tracer) WindowOf(from, to time.Time) Window {
	if t == nil {
		return Window{}
	}
	return Window{int64(from.Sub(t.epoch)), int64(to.Sub(t.epoch))}
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Active is an open span; End closes and records it.
type Active struct {
	t    *Tracer
	span Span
}

// Begin opens a span. On a nil tracer it returns a nil *Active.
func (t *Tracer) Begin(name string, parent, req uint64) *Active {
	if t == nil {
		return nil
	}
	id := t.next.Add(1)
	if req == 0 {
		req = id
	}
	return &Active{t: t, span: Span{ID: id, Parent: parent, Req: req, Name: name, Start: t.now()}}
}

// ID is the span's identifier (0 on a nil span), for use as a parent.
func (a *Active) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.span.ID
}

// Req is the span's request identifier (0 on a nil span).
func (a *Active) Req() uint64 {
	if a == nil {
		return 0
	}
	return a.span.Req
}

// End closes the span with its work count.
func (a *Active) End(value int64) {
	if a == nil {
		return
	}
	a.span.End = a.t.now()
	a.span.Value = value
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.span)
	a.t.mu.Unlock()
}

// Add bumps a named counter.
func (t *Tracer) Add(name string, n int64) {
	if t == nil {
		return
	}
	at := t.now()
	t.mu.Lock()
	t.counts = append(t.counts, count{at, name, n})
	t.mu.Unlock()
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Spans returns a copy of the recorded spans that start in w.
func (t *Tracer) Spans(w Window) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.spans {
		if w.Holds(s.Start) {
			out = append(out, s)
		}
	}
	return out
}

// Counter sums a named counter's bumps made in w.
func (t *Tracer) Counter(name string, w Window) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, c := range t.counts {
		if c.name == name && w.Holds(c.at) {
			n += c.n
		}
	}
	return n
}

// WriteFile writes the spans as JSON lines, then one line of counter
// totals.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans(Window{}) {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	totals := map[string]int64{}
	t.mu.Lock()
	for _, c := range t.counts {
		totals[c.name] += c.n
	}
	t.mu.Unlock()
	err = enc.Encode(map[string]any{"counters": totals})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SelfTimes maps each span ID to its self time: the span's duration
// minus the part of its interval that its children cover. Overlapping
// children count once, and a child running past its parent's end is
// clipped to the parent's interval.
func SelfTimes(spans []Span) map[uint64]int64 {
	kids := map[uint64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the
// children's intervals.
func covered(lo, hi int64, children []Span) int64 {
	if len(children) == 0 {
		return 0
	}
	cs := append([]Span(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var total int64
	cur := lo
	for _, c := range cs {
		a, b := max(c.Start, cur), min(c.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerOf is the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// Headers carrying a client span's identity to the server middleware,
// so server spans parent under the request that caused them.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

type spanKey struct{}

// withSpan attaches an open span to ctx so calls made under it (a
// follower's segment fetches inside Poll) can parent to it.
func withSpan(ctx context.Context, a *Active) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, a)
}

func spanFrom(ctx context.Context) *Active {
	a, _ := ctx.Value(spanKey{}).(*Active)
	return a
}
