package crawler

import (
	"context"
	"slices"
	"sync"

	"repro/internal/api"
)

// This file is the global crawl work queue: one shared queue of typed
// tasks — {cursor probe for page P} and {profile batch for window W of
// page P} — consumed by the pipeline's worker pool, so every page in
// the roster makes progress concurrently. A quiet page's tail probe
// rides the same queue as a busy page's profile batches; the politeness
// limiter stays the only serialization point between them. The
// page-sequential loop (PipelineConfig.Sequential) is kept as the
// comparison baseline and static fallback.
//
// Atomicity is window-grained, exactly as before: a window's likes are
// folded into the sink and its page's cursor advanced in one emitMu
// critical section, only after every new liker the window surfaced has
// been fetched and emitted. Windows of a page close in stream order —
// a later window whose profiles finish early waits for its
// predecessors — so a checkpoint can never claim a window the sink has
// not seen. What the queue adds is that a page's PROBING runs ahead of
// its closes: new windows are discovered and their profile batches
// queued while earlier windows are still in flight, and those open
// windows ride the checkpoint (Checkpoint.Windows) so a kill/resume
// rebuilds them — stored like payloads are folded at close after the
// resume, pending profiles are refetched, nothing is double-fed and
// nothing starves.

// WindowState is one probed-but-not-yet-closed cursor window of a
// page's like stream, as serialized into Checkpoint.Windows. Start and
// Next delimit the window in the page's append-stream coordinates;
// Likes is the window's event payload (fetched once, folded into the
// sink only when the window closes); Pending lists the users surfaced
// by this window whose profile batch had not completed at checkpoint
// time (a resume refetches exactly these, minus any since crawled).
type WindowState struct {
	Page    int64         `json:"page"`
	Start   int           `json:"start"`
	Next    int           `json:"next"`
	Likes   []api.LikeDoc `json:"likes"`
	Pending []int64       `json:"pending,omitempty"`
}

// window is the live form of a WindowState.
type window struct {
	page  int64
	start int
	next  int
	likes []api.LikeDoc
	// pending holds users surfaced by this window whose batch has not
	// completed; batches counts outstanding batch tasks. Both are
	// guarded by the scheduler's mu.
	pending map[int64]bool
	batches int
}

type taskKind uint8

const (
	taskProbe taskKind = iota
	taskBatch
)

// task is one unit of queue work: a cursor probe (read one like-stream
// window of page at cursor) or a profile batch (fetch ids' profiles
// for win).
type task struct {
	kind   taskKind
	page   int64
	cursor int     // probe: the cursor to read from
	win    *window // batch: the window the ids belong to
	ids    []int64 // batch: the users to fetch
}

// pageState tracks one page's place in the crawl.
type pageState struct {
	// probeCursor is where the next probe reads from — the frontier,
	// which runs ahead of the page's checkpointed cursor while windows
	// are open.
	probeCursor int
	// probing marks a probe task queued or executing (at most one per
	// page, so windows are discovered in stream order).
	probing bool
	// atTail marks that the last probe hit the stream's (near-)tail —
	// an empty or short window. Probing then pauses until every open
	// window has closed: the final tail check must happen-after all
	// processing, preserving the "live likes are picked up before
	// Crawl returns" guarantee, and quiet pages keep their two-probe
	// request budget.
	atTail bool
	// done marks the page fully drained: a probe came back empty with
	// no windows open.
	done bool
	// open is the page's in-flight windows in stream order; only the
	// head may close.
	open []*window
}

// scheduler is the global work queue and its bookkeeping. Lock order:
// closeMu → emitMu → mu → the pipeline's mu; the pipeline's mu is
// never held while taking mu.
type scheduler struct {
	p      *Pipeline
	emit   func(int64, LikerProfile) error
	cancel context.CancelFunc

	mu          sync.Mutex
	cond        *sync.Cond
	tasks       []task
	outstanding int // queued + executing tasks
	closed      bool
	err         error
	pages       map[int64]*pageState
	order       []int64 // page order as given to Crawl, for determinism

	// closeMu serializes window closes — per page in cursor order, and
	// globally so OnCheckpoint is never invoked concurrently.
	closeMu sync.Mutex
}

// newScheduler seeds the queue: per-page state at the checkpointed
// cursors, restored in-flight windows (their pending profiles become
// batch tasks, their stored likes wait for the close), and one initial
// probe per page. It installs itself as p.sched before returning.
func newScheduler(p *Pipeline, pages []int64, emit func(int64, LikerProfile) error, cancel context.CancelFunc) *scheduler {
	s := &scheduler{
		p:      p,
		emit:   emit,
		cancel: cancel,
		pages:  make(map[int64]*pageState, len(pages)),
	}
	s.cond = sync.NewCond(&s.mu)

	// Seeding and installing happen in ONE emitMu critical section: a
	// concurrent Checkpoint sees either the pipeline's resumeWindows
	// (before) or the installed scheduler carrying those same windows
	// (after), never a gap with the in-flight windows in neither — the
	// "windows ride any Checkpoint" guarantee has no hole.
	p.emitMu.Lock()
	defer p.emitMu.Unlock()

	// Consume the resume windows once: group by page, discard windows
	// already covered by the page's cursor (a prior crawl closed them)
	// or belonging to pages outside this crawl (safe: their cursor
	// never advanced past them, so a later crawl refetches).
	restored := make(map[int64][]WindowState)
	for _, ws := range p.takeResumeWindows() {
		restored[ws.Page] = append(restored[ws.Page], ws)
	}

	s.mu.Lock()
	for _, page := range pages {
		if _, dup := s.pages[page]; dup {
			continue
		}
		ps := &pageState{probeCursor: p.cursorOf(page)}
		s.pages[page] = ps
		s.order = append(s.order, page)
		for _, ws := range restored[page] {
			if ws.Start < ps.probeCursor {
				continue // already covered
			}
			w := &window{page: page, start: ws.Start, next: ws.Next, likes: ws.Likes, pending: make(map[int64]bool)}
			var todo []int64
			p.mu.Lock()
			for _, id := range ws.Pending {
				if !p.crawled[id] && !w.pending[id] {
					w.pending[id] = true
					todo = append(todo, id)
				}
			}
			p.mu.Unlock()
			ps.open = append(ps.open, w)
			ps.probeCursor = ws.Next
			s.pushBatchesLocked(w, todo)
		}
		s.maybeProbeLocked(page, ps)
	}
	s.mu.Unlock()
	p.sched = s
	return s
}

// start folds restored windows that arrived already closable (every
// Pending user crawled before the checkpoint, e.g. via another page)
// and then closes the queue if there is nothing to do. Such a page may
// hold open windows yet have no batch task and — at the ProbeAhead
// cap — no probe either, so without this pass no queue task would ever
// reference it and its likes would never reach the sink. Runs before
// the workers, outside any lock.
func (s *scheduler) start(pages []int64) {
	for _, page := range pages {
		if err := s.drain(page); err != nil {
			s.fail(err)
			return
		}
	}
	s.mu.Lock()
	if s.outstanding == 0 && !s.closed {
		s.closed = true // nothing to do (empty pages, or all restored windows folded)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// pushLocked enqueues a task; the caller holds mu.
func (s *scheduler) pushLocked(t task) {
	s.tasks = append(s.tasks, t)
	s.outstanding++
	s.cond.Signal()
}

// pushBatchesLocked splits todo into BatchSize batch tasks for w; the
// caller holds mu.
func (s *scheduler) pushBatchesLocked(w *window, todo []int64) {
	for start := 0; start < len(todo); start += s.p.cfg.BatchSize {
		end := min(start+s.p.cfg.BatchSize, len(todo))
		w.batches++
		s.pushLocked(task{kind: taskBatch, page: w.page, win: w, ids: todo[start:end]})
	}
}

// maybeProbeLocked queues the page's next cursor probe when one is
// due: never more than one in flight, never past ProbeAhead open
// windows, and — once the tail has been sighted — only after every
// open window has closed. The caller holds mu.
func (s *scheduler) maybeProbeLocked(page int64, ps *pageState) {
	if ps.done || ps.probing {
		return
	}
	if len(ps.open) >= s.p.probeAhead() {
		return
	}
	if ps.atTail && len(ps.open) > 0 {
		return
	}
	ps.probing = true
	s.pushLocked(task{kind: taskProbe, page: page, cursor: ps.probeCursor})
}

// next blocks until a task is available or the queue is closed.
func (s *scheduler) next() (task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.tasks) == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return task{}, false
	}
	var t task
	if s.p.cfg.lifo {
		t = s.tasks[len(s.tasks)-1]
		s.tasks = s.tasks[:len(s.tasks)-1]
	} else {
		t = s.tasks[0]
		s.tasks = s.tasks[1:]
	}
	return t, true
}

// finish retires one task; the queue closes when the last task
// retires with nothing queued (tasks are only pushed by executing
// tasks, so outstanding == 0 means quiescent: every page is done).
func (s *scheduler) finish() {
	s.mu.Lock()
	s.outstanding--
	if s.outstanding == 0 && !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// fail records the first error, closes the queue, and cancels the
// crawl context so in-flight requests abort.
func (s *scheduler) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.cancel()
}

// worker is the queue consumer loop run by each pipeline worker.
func (s *scheduler) worker(ctx context.Context) {
	for {
		t, ok := s.next()
		if !ok {
			return
		}
		var err error
		switch t.kind {
		case taskProbe:
			err = s.runProbe(ctx, t)
		default:
			err = s.runBatch(ctx, t)
		}
		if err != nil {
			s.fail(err)
		}
		s.finish()
	}
}

// runProbe reads one like-stream window at the page's frontier. A
// non-empty window becomes an open window with its new likers queued
// as batch tasks; a full window keeps the probe frontier running ahead
// immediately, a short or empty one parks probing until the page's
// open windows drain (the happens-after tail check).
func (s *scheduler) runProbe(ctx context.Context, t task) error {
	likes, next, err := s.p.cl.PageLikesWindow(ctx, t.page, t.cursor)
	if err != nil {
		return err
	}

	if len(likes) == 0 {
		s.mu.Lock()
		ps := s.pages[t.page]
		ps.probing = false
		ps.atTail = true
		if len(ps.open) == 0 {
			ps.done = true
		}
		s.mu.Unlock()
		// The head window can already be closable here with no batch
		// task left to trigger the fold — a restored window whose
		// Pending users were all crawled elsewhere. Skipping the drain
		// would strand it: its likes never reach the sink, the cursor
		// never advances, and Crawl returns success anyway.
		return s.drain(t.page)
	}

	w := &window{page: t.page, start: t.cursor, next: next, likes: likes, pending: make(map[int64]bool)}
	var todo []int64
	s.p.mu.Lock()
	for _, lk := range likes {
		if !s.p.crawled[lk.User] && !w.pending[lk.User] {
			w.pending[lk.User] = true
			todo = append(todo, lk.User)
		}
	}
	s.p.mu.Unlock()

	s.mu.Lock()
	ps := s.pages[t.page]
	ps.probing = false
	ps.atTail = len(likes) < s.p.cl.cfg.PageSize
	ps.probeCursor = next
	ps.open = append(ps.open, w)
	s.pushBatchesLocked(w, todo)
	s.maybeProbeLocked(t.page, ps)
	s.mu.Unlock()

	// The window may already be closable (every liker known), and it
	// may have opened at the head.
	return s.drain(t.page)
}

// runBatch fetches one profile batch through the shared crawlBatch
// path (emit + sink + mark-crawled under emitMu, exactly as the
// sequential engine), then retires the batch from its window and
// closes whatever windows became closable.
func (s *scheduler) runBatch(ctx context.Context, t task) error {
	if err := s.p.crawlBatch(ctx, t.page, t.ids, s.emit); err != nil {
		return err
	}
	s.mu.Lock()
	t.win.batches--
	for _, id := range t.ids {
		delete(t.win.pending, id)
	}
	s.mu.Unlock()
	return s.drain(t.page)
}

// drain closes the page's closable windows in stream order — the head
// window once its last batch retires, then any successors already
// finished — and re-arms probing. closeMu makes the close sequence
// exclusive: per page the head is popped and folded in order, and
// OnCheckpoint is never called concurrently.
func (s *scheduler) drain(page int64) error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	for {
		s.mu.Lock()
		ps := s.pages[page]
		if len(ps.open) == 0 || ps.open[0].batches > 0 {
			s.maybeProbeLocked(page, ps)
			s.mu.Unlock()
			return nil
		}
		w := ps.open[0]
		s.mu.Unlock()
		if err := s.closeWindow(w); err != nil {
			return err
		}
	}
}

// closeWindow retires one fully crawled window: under emitMu the
// window's likes are folded into the sink, the page's cursor advances
// to the window's end, and the window leaves the open list — one
// atomic transition, so a Checkpoint snapshot sees either {window
// open, cursor before it} or {window gone, cursor past it}, never a
// torn state. Then the per-window checkpoint callback fires, exactly
// as the sequential engine's.
func (s *scheduler) closeWindow(w *window) error {
	p := s.p
	p.emitMu.Lock()
	if p.cfg.Sink != nil && len(w.likes) > 0 {
		if err := p.cfg.Sink.ObserveLikes(w.page, w.likes); err != nil {
			p.emitMu.Unlock()
			return err
		}
	}
	p.mu.Lock()
	p.cursors[w.page] = w.next
	p.mu.Unlock()
	s.mu.Lock()
	ps := s.pages[w.page]
	ps.open = ps.open[1:] // w is the head: drain holds closeMu and peeked it
	s.mu.Unlock()
	p.emitMu.Unlock()

	if p.cfg.OnCheckpoint != nil {
		ck := p.Checkpoint()
		if err := p.SnapshotErr(); err != nil {
			return err
		}
		p.cfg.OnCheckpoint(ck)
	}
	return nil
}

// snapshotWindows serializes the open windows for a checkpoint, sorted
// by (page, start). The caller holds emitMu, so the snapshot is
// consistent with the cursors and crawled set taken under the same
// lock.
func (s *scheduler) snapshotWindows() []WindowState {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []WindowState
	for _, page := range s.order {
		for _, w := range s.pages[page].open {
			ws := WindowState{Page: w.page, Start: w.start, Next: w.next, Likes: w.likes}
			for id := range w.pending {
				ws.Pending = append(ws.Pending, id)
			}
			slices.Sort(ws.Pending)
			out = append(out, ws)
		}
	}
	slices.SortFunc(out, func(a, b WindowState) int {
		if a.Page != b.Page {
			if a.Page < b.Page {
				return -1
			}
			return 1
		}
		return a.Start - b.Start
	})
	return out
}
