// Package crawler implements the study's data-collection client over the
// HTTP API — the stand-in for the paper's Selenium-driven crawl (§3). It
// is a polite crawler: a minimum interval between requests, bounded
// retries with exponential backoff on transient failures, pagination of
// like streams and friend lists, and graceful handling of private friend
// lists (most Facebook-campaign likers kept theirs private).
package crawler

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// Errors.
var (
	// ErrPrivate marks a friend list the owner has hidden.
	ErrPrivate = errors.New("crawler: friend list is private")
	// ErrNotFound marks a missing user or page.
	ErrNotFound = errors.New("crawler: not found")
)

// Config tunes the crawler's politeness.
type Config struct {
	// BaseURL is the API root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// BaseURLs optionally lists several API roots — read replicas of
	// one leader (DESIGN §15). Requests rotate round-robin across them,
	// and the rotation is per-ATTEMPT, not per-request: a retry after a
	// replica failure lands on the next replica, so one dead node
	// degrades throughput instead of stalling the crawl. When set,
	// BaseURLs takes precedence over BaseURL.
	BaseURLs []string
	// MinInterval is the minimum spacing between requests (politeness).
	MinInterval time.Duration
	// MaxRetries bounds retry attempts per request.
	MaxRetries int
	// Backoff is the initial retry backoff ceiling. The ceiling doubles
	// per attempt up to BackoffCap, and each sleep is drawn uniformly
	// from [0, ceiling] (full jitter), so concurrent workers hitting a
	// flapping server spread their retries instead of stampeding in
	// lockstep.
	Backoff time.Duration
	// BackoffCap bounds the backoff ceiling (0 = 2s). Without a cap the
	// doubled ceiling grows without limit — a few consecutive failures
	// and a worker sleeps for minutes.
	BackoffCap time.Duration
	// BackoffSeed seeds the jitter source (0 = a fixed default), making
	// retry schedules reproducible in tests.
	BackoffSeed int64
	// PageSize is the pagination window.
	PageSize int
	// RetryAfterCap bounds how long a server's Retry-After hint can
	// stall a retry (0 = 2s). Servers advertise delta-seconds or an
	// HTTP-date; a polite crawler honors both forms but never sleeps
	// unboundedly — a far-future date is clamped to the cap.
	RetryAfterCap time.Duration
	// Adaptive selects the AIMD politeness limiter instead of the
	// fixed MinInterval spacing (the default via DefaultConfig; the
	// fixed limiter remains the static fallback when false). The
	// spacing starts at MinInterval, shrinks additively by
	// AdaptiveStep per AdaptiveWindow consecutive successes toward
	// AdaptiveFloor, and stretches multiplicatively by
	// AdaptiveBackoff (clamped to AdaptiveCeil) on every 429 — the
	// crawl converges to the rate the server actually absorbs.
	// Retry-After hints keep their spent-exactly-once contract; the
	// controller reacts only to the 429 signal itself. Deterministic:
	// the schedule is a pure function of the outcome sequence.
	Adaptive bool
	// AdaptiveFloor is the fastest spacing the controller may reach
	// (0 = MinInterval: adaptivity only ever backs off from the
	// configured politeness and returns to it). Setting a floor below
	// MinInterval explicitly licenses the crawl to outrun it against
	// a demonstrably permissive server.
	AdaptiveFloor time.Duration
	// AdaptiveCeil is the slowest spacing a backoff may stretch to
	// (0 = 2s).
	AdaptiveCeil time.Duration
	// AdaptiveStep is the additive spacing shrink per success window
	// (0 = 1ms).
	AdaptiveStep time.Duration
	// AdaptiveBackoff is the multiplicative spacing stretch per 429
	// (0 = 2.0; values below 1 are invalid).
	AdaptiveBackoff float64
	// AdaptiveWindow is the number of consecutive successes that earn
	// one additive shrink (0 = 8).
	AdaptiveWindow int
	// AdminToken authorizes admin-report requests.
	AdminToken string
	// APIToken, when set, is sent as X-API-Token on every request — the
	// crawler's politeness identity. Servers running a per-client
	// throttle budget key on it, so N sharded crawl processes with
	// distinct tokens each get their own budget (the paper's N crawl
	// accounts) instead of tripping one shared limit.
	APIToken string
	// HTTPClient overrides the default client (tests, timeouts).
	HTTPClient *http.Client
}

// DefaultConfig returns a polite configuration for local use. The
// adaptive limiter is the default: with AdaptiveFloor unset it backs
// off from MinInterval under 429s and returns to it — never faster
// than the configured politeness unless a lower floor is granted.
func DefaultConfig(baseURL string) Config {
	return Config{
		BaseURL:     baseURL,
		MinInterval: 10 * time.Millisecond,
		MaxRetries:  3,
		Backoff:     50 * time.Millisecond,
		PageSize:    200,
		Adaptive:    true,
	}
}

// Validate checks the config.
func (c *Config) Validate() error {
	if c.BaseURL == "" && len(c.BaseURLs) == 0 {
		return errors.New("crawler: empty base URL")
	}
	for _, u := range c.BaseURLs {
		if u == "" {
			return errors.New("crawler: empty base URL in replica list")
		}
	}
	if c.MinInterval < 0 || c.Backoff < 0 || c.BackoffCap < 0 {
		return errors.New("crawler: negative intervals")
	}
	if c.AdaptiveFloor < 0 || c.AdaptiveCeil < 0 || c.AdaptiveStep < 0 {
		return errors.New("crawler: negative adaptive intervals")
	}
	if c.AdaptiveBackoff != 0 && c.AdaptiveBackoff < 1 {
		return errors.New("crawler: adaptive backoff factor below 1 would speed up on throttles")
	}
	if c.AdaptiveWindow < 0 {
		return errors.New("crawler: negative adaptive window")
	}
	if c.MaxRetries < 0 {
		return errors.New("crawler: negative retries")
	}
	if c.PageSize < 1 || c.PageSize > api.MaxPageSize {
		return fmt.Errorf("crawler: page size %d out of [1,%d]", c.PageSize, api.MaxPageSize)
	}
	return nil
}

// Client is the crawler. It is safe for concurrent use: the politeness
// limiter is shared across goroutines — N pipeline workers behind one
// Client still space their requests MinInterval apart in aggregate, the
// way the paper's single crawl account had one politeness budget no
// matter how its fetches were scheduled.
type Client struct {
	cfg  Config
	http *http.Client

	// mu guards last: the fixed politeness limiter's reservation
	// point. Callers reserve the next free send slot under the lock,
	// then sleep until their slot without holding it. With
	// cfg.Adaptive the reservation point lives in pace instead.
	mu   sync.Mutex
	last time.Time

	// paceMu guards the lazily built pace. Construction is deferred
	// to the first request so tests that adjust cfg.MinInterval after
	// New still seed the controller with the value they configured.
	paceMu sync.Mutex
	pace   *aimdPacer

	requests  atomic.Int64
	retries   atomic.Int64
	throttled atomic.Int64

	// rr is the round-robin cursor over cfg.BaseURLs.
	rr atomic.Int64

	// rngMu guards rng, the jitter source for retry backoff. Seeded
	// (deterministically by default) rather than global so tests can
	// reproduce a retry schedule exactly.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// New builds a crawler client.
func New(cfg Config) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	seed := cfg.BackoffSeed
	if seed == 0 {
		seed = 1
	}
	return &Client{cfg: cfg, http: hc, rng: rand.New(rand.NewSource(seed))}, nil
}

// Requests returns the number of HTTP requests issued so far.
func (c *Client) Requests() int { return int(c.requests.Load()) }

// Retries returns the number of retry attempts so far.
func (c *Client) Retries() int { return int(c.retries.Load()) }

// Throttled returns the number of 429 responses received so far.
// Throttles also count as retries (the request is re-attempted), but
// folding them into Retries alone hid the congestion signal the AIMD
// controller acts on — this counter makes its behavior observable.
func (c *Client) Throttled() int { return int(c.throttled.Load()) }

// Interval reports the current politeness spacing: the adaptive
// controller's live value when Adaptive is set, MinInterval otherwise.
func (c *Client) Interval() time.Duration {
	if c.cfg.Adaptive {
		return c.pacer().interval()
	}
	return c.cfg.MinInterval
}

// pacer returns the adaptive controller, building it on first use.
func (c *Client) pacer() *aimdPacer {
	c.paceMu.Lock()
	defer c.paceMu.Unlock()
	if c.pace == nil {
		c.pace = newAIMDPacer(c.cfg)
	}
	return c.pace
}

// noteOutcome feeds a request outcome to the adaptive controller, if
// one is configured.
func (c *Client) noteOutcome(success bool) {
	if c.cfg.Adaptive {
		c.pacer().outcome(success)
	}
}

// waitTurn reserves the next politeness slot and sleeps until it.
// Reserving under the lock and sleeping outside it gives concurrent
// callers distinct slots exactly one spacing apart — MinInterval for
// the fixed limiter, the AIMD controller's current value otherwise.
func (c *Client) waitTurn(ctx context.Context) error {
	var slot time.Time
	if c.cfg.Adaptive {
		slot = c.pacer().reserve(time.Now())
	} else {
		if c.cfg.MinInterval <= 0 {
			return nil
		}
		c.mu.Lock()
		now := time.Now()
		slot = c.last.Add(c.cfg.MinInterval)
		if slot.Before(now) {
			slot = now
		}
		c.last = slot
		c.mu.Unlock()
	}
	if wait := time.Until(slot); wait > 0 {
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// retryWait returns the sleep before retry attempt n (n >= 1): full
// jitter over an exponentially growing, capped ceiling. The ceiling is
// Backoff doubled per attempt, clamped to BackoffCap (default 2s); the
// wait is drawn uniformly from [0, ceiling]. Exponential-with-cap keeps
// a flapping server from inflating sleeps without bound, and the
// jitter decorrelates concurrent workers whose requests failed
// together and would otherwise all come back at the same instant.
func (c *Client) retryWait(attempt int) time.Duration {
	ceiling := c.cfg.Backoff
	if ceiling <= 0 {
		return 0
	}
	max := c.cfg.BackoffCap
	if max <= 0 {
		max = 2 * time.Second
	}
	for i := 1; i < attempt && ceiling < max; i++ {
		ceiling *= 2
	}
	if ceiling > max {
		ceiling = max
	}
	c.rngMu.Lock()
	wait := time.Duration(c.rng.Int63n(int64(ceiling) + 1))
	c.rngMu.Unlock()
	return wait
}

// parseRetryAfter interprets a Retry-After header value, which RFC
// 9110 allows in two forms: delta-seconds ("120") or an HTTP-date
// ("Fri, 31 Dec 1999 23:59:59 GMT"). It returns the wait relative to
// now and whether the value parsed at all. A past (or zero-delay)
// date means "retry now" — a zero wait, which is still a valid hint
// and distinct from an unparseable header.
func parseRetryAfter(ra string, now time.Time) (time.Duration, bool) {
	if secs, err := strconv.Atoi(ra); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(ra); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// baseURL picks the target root for one request attempt: the next
// replica in round-robin order when BaseURLs is set, the single
// BaseURL otherwise.
func (c *Client) baseURL() string {
	if len(c.cfg.BaseURLs) == 0 {
		return c.cfg.BaseURL
	}
	n := c.rr.Add(1) - 1
	return c.cfg.BaseURLs[int(uint64(n)%uint64(len(c.cfg.BaseURLs)))]
}

// get performs one polite, retrying GET and decodes JSON into out.
func (c *Client) get(ctx context.Context, path string, admin bool, out any) error {
	var lastErr error
	// hint is the server's most recent Retry-After suggestion (capped).
	// It replaces exactly one backoff sleep and is then cleared — it
	// never enters the exponential schedule, so a 1 s hint cannot
	// snowball into 2 s, 4 s, ... waits. hintSet distinguishes a
	// zero-duration hint (a past HTTP-date: retry immediately) from no
	// hint at all.
	var hint time.Duration
	var hintSet bool
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			wait := c.retryWait(attempt)
			if hintSet {
				wait, hint, hintSet = hint, 0, false
			}
			if wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}
		if err := c.waitTurn(ctx); err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL()+path, nil)
		if err != nil {
			return fmt.Errorf("crawler: %w", err)
		}
		if admin {
			req.Header.Set("X-Admin-Token", c.cfg.AdminToken)
		}
		if c.cfg.APIToken != "" {
			req.Header.Set("X-API-Token", c.cfg.APIToken)
		}
		// Explicit negotiation (instead of the transport's implicit
		// one) so compression also works through custom HTTPClients;
		// setting the header manually means decoding is ours too.
		req.Header.Set("Accept-Encoding", "gzip")
		c.requests.Add(1)
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = err
			continue // transient: retry
		}
		body, err := readBody(resp)
		resp.Body.Close()
		if errors.Is(err, errBodyTooLarge) {
			return fmt.Errorf("%w: %s", err, path)
		}
		if err != nil {
			lastErr = err
			continue
		}
		// Feed the adaptive controller: a 429 is the congestion signal
		// it multiplies the spacing on; any other sub-500 response is a
		// success signal (the server answered — 403/404 are healthy
		// answers). 5xx and transport errors are neutral: server
		// trouble, not congestion, and already the retry path's job.
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			c.throttled.Add(1)
			c.noteOutcome(false)
		case resp.StatusCode < 500:
			c.noteOutcome(true)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			if err := json.Unmarshal(body, out); err != nil {
				return fmt.Errorf("crawler: decode %s: %w", path, err)
			}
			return nil
		case resp.StatusCode == http.StatusForbidden:
			return fmt.Errorf("%w: %s", ErrPrivate, path)
		case resp.StatusCode == http.StatusNotFound:
			return fmt.Errorf("%w: %s", ErrNotFound, path)
		case resp.StatusCode == http.StatusTooManyRequests:
			// Honor the server's Retry-After hint when present — both
			// the delta-seconds and the HTTP-date form — capped. The
			// hint is held aside and spent on exactly the next sleep;
			// folding it into backoff would double it on every retry.
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if d, ok := parseRetryAfter(ra, time.Now()); ok {
					maxWait := c.cfg.RetryAfterCap
					if maxWait <= 0 {
						maxWait = 2 * time.Second
					}
					if d > maxWait {
						d = maxWait
					}
					hint, hintSet = d, true
				}
			}
			lastErr = fmt.Errorf("crawler: rate limited on %s", path)
			continue // retry after the hint (or backoff)
		case resp.StatusCode >= 500:
			lastErr = fmt.Errorf("crawler: server error %d on %s", resp.StatusCode, path)
			continue // retry
		default:
			return fmt.Errorf("crawler: status %d on %s", resp.StatusCode, path)
		}
	}
	return fmt.Errorf("crawler: giving up on %s after %d attempts: %w", path, c.cfg.MaxRetries+1, lastErr)
}

// maxBody bounds response bodies (compressed and decompressed alike):
// a misbehaving server cannot balloon the crawler's memory.
const maxBody = 16 << 20

// errBodyTooLarge reports a response over maxBody. It is final: the
// same request would fetch the same oversize body again.
var errBodyTooLarge = fmt.Errorf("crawler: response body exceeds %d MiB", maxBody>>20)

// gzipReaders recycles decompressors across responses; Reset gives a
// pooled reader the state of a fresh one, so a corrupt stream leaves
// nothing behind for the next response.
var gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}

// readBody drains a response, transparently gunzipping when the server
// took the client's Accept-Encoding offer. Both the wire bytes and the
// decoded bytes are read to one past maxBody, so an oversize body is
// reported as such instead of being cut off into a JSON syntax error.
func readBody(resp *http.Response) ([]byte, error) {
	wire := &io.LimitedReader{R: resp.Body, N: maxBody + 1}
	var r io.Reader = wire
	if strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip") {
		gz := gzipReaders.Get().(*gzip.Reader)
		defer gzipReaders.Put(gz)
		if err := gz.Reset(wire); err != nil {
			return nil, fmt.Errorf("crawler: gzip response: %w", err)
		}
		r = gz
	}
	body, err := io.ReadAll(io.LimitReader(r, maxBody+1))
	if wire.N == 0 || len(body) > maxBody {
		return nil, errBodyTooLarge
	}
	return body, err
}

// Page fetches a page view.
func (c *Client) Page(ctx context.Context, id int64) (api.PageDoc, error) {
	var doc api.PageDoc
	err := c.get(ctx, fmt.Sprintf("/api/page/%d", id), false, &doc)
	return doc, err
}

// PageLikes fetches the full like stream of a page by offset paging
// over the time-sorted view. Offset windows are only stable over a
// quiescent page — a like landing mid-crawl with an earlier timestamp
// shifts every later offset, duplicating or dropping likers — so this
// is a snapshot read; crawls that race live writes use PageLikesSince.
//
// Termination is on a short (or empty) window, never on the reported
// total: the total is a point-in-time value that goes stale the moment
// the list grows or shrinks, and trusting it can truncate the tail.
func (c *Client) PageLikes(ctx context.Context, id int64) ([]api.LikeDoc, error) {
	var out []api.LikeDoc
	offset := 0
	for {
		var doc api.PageLikesDoc
		path := fmt.Sprintf("/api/page/%d/likes?offset=%d&limit=%d", id, offset, c.cfg.PageSize)
		if err := c.get(ctx, path, false, &doc); err != nil {
			return nil, err
		}
		out = append(out, doc.Likes...)
		offset += len(doc.Likes)
		if len(doc.Likes) < c.cfg.PageSize {
			return out, nil
		}
	}
}

// PageLikesSince fetches the page's like events appended after cursor
// (0 = from the beginning; otherwise a value previously returned by
// this method), following cursor pagination until it reaches the live
// tail. It returns the likes and the cursor that resumes after them.
// Cursors index the page's append-only stream, so likes landing
// mid-crawl are delivered exactly once — on this call if the crawl
// hasn't passed them, on the next call otherwise.
func (c *Client) PageLikesSince(ctx context.Context, id int64, cursor int) ([]api.LikeDoc, int, error) {
	var out []api.LikeDoc
	for {
		var doc api.PageLikesDoc
		path := fmt.Sprintf("/api/page/%d/likes?cursor=%d&limit=%d", id, cursor, c.cfg.PageSize)
		if err := c.get(ctx, path, false, &doc); err != nil {
			return out, cursor, err
		}
		out = append(out, doc.Likes...)
		cursor = doc.NextCursor
		if len(doc.Likes) < c.cfg.PageSize {
			return out, cursor, nil
		}
	}
}

// PageLikesWindow fetches exactly one pagination window of the page's
// like stream starting at cursor, returning the window's likes and the
// cursor that resumes after them. It is the global work queue's probe
// primitive: one request per task, so a quiet page's tail probe costs
// one politeness slot and the scheduler decides when the next window
// is worth probing. An empty window means the cursor is at the live
// tail; a short non-empty window means the tail is near (the stream
// may still grow). PageLikesSince remains the drain-to-tail loop over
// this primitive.
func (c *Client) PageLikesWindow(ctx context.Context, id int64, cursor int) ([]api.LikeDoc, int, error) {
	var doc api.PageLikesDoc
	path := fmt.Sprintf("/api/page/%d/likes?cursor=%d&limit=%d", id, cursor, c.cfg.PageSize)
	if err := c.get(ctx, path, false, &doc); err != nil {
		return nil, cursor, err
	}
	return doc.Likes, doc.NextCursor, nil
}

// User fetches a public profile.
func (c *Client) User(ctx context.Context, id int64) (api.UserDoc, error) {
	var doc api.UserDoc
	err := c.get(ctx, fmt.Sprintf("/api/user/%d", id), false, &doc)
	return doc, err
}

// UserFriends fetches the full friend list; ErrPrivate when hidden.
// Pagination is cursor-first (keyset over the ID-sorted list): windows
// tile the ID space, so friends present when the crawl began are
// collected exactly once even if edges are inserted mid-crawl — offset
// windows would shift under an insert and duplicate or drop entries.
func (c *Client) UserFriends(ctx context.Context, id int64) ([]int64, error) {
	var out []int64
	var cursor int64
	for {
		var doc api.UserFriendsDoc
		path := fmt.Sprintf("/api/user/%d/friends?cursor=%d&limit=%d", id, cursor, c.cfg.PageSize)
		if err := c.get(ctx, path, false, &doc); err != nil {
			return nil, err
		}
		out = append(out, doc.Friends...)
		cursor = doc.NextCursor
		if len(doc.Friends) < c.cfg.PageSize {
			return out, nil
		}
	}
}

// UserLikes fetches the full page-like list of a user by cursor paging
// the user's append-only like stream to its live tail: a like landing
// mid-crawl only ever extends the tail, so the crawl sees every page
// exactly once (the same contract PageLikesSince gives page streams).
func (c *Client) UserLikes(ctx context.Context, id int64) ([]int64, error) {
	var out []int64
	cursor := 0
	for {
		var doc api.UserLikesDoc
		path := fmt.Sprintf("/api/user/%d/likes?cursor=%d&limit=%d", id, cursor, c.cfg.PageSize)
		if err := c.get(ctx, path, false, &doc); err != nil {
			return nil, err
		}
		out = append(out, doc.Pages...)
		cursor = doc.NextCursor
		if len(doc.Pages) < c.cfg.PageSize {
			return out, nil
		}
	}
}

// Users fetches up to api.MaxPageSize public profiles in one batched
// request. Unknown IDs are skipped by the server (a profile deleted
// mid-crawl is not an error), so the response may be shorter than ids.
func (c *Client) Users(ctx context.Context, ids []int64) ([]api.UserDoc, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	if len(ids) > api.MaxPageSize {
		return nil, fmt.Errorf("crawler: batch of %d ids exceeds %d", len(ids), api.MaxPageSize)
	}
	strs := make([]string, len(ids))
	for i, id := range ids {
		strs[i] = strconv.FormatInt(id, 10)
	}
	var doc api.UsersDoc
	if err := c.get(ctx, "/api/users?ids="+strings.Join(strs, ","), false, &doc); err != nil {
		return nil, err
	}
	return doc.Users, nil
}

// Directory fetches a window of the searchable directory.
func (c *Client) Directory(ctx context.Context, offset, limit int) (api.DirectoryDoc, error) {
	var doc api.DirectoryDoc
	err := c.get(ctx, fmt.Sprintf("/api/directory?offset=%d&limit=%d", offset, limit), false, &doc)
	return doc, err
}

// AdminReport fetches the page-admin aggregate report.
func (c *Client) AdminReport(ctx context.Context, page int64) (api.ReportDoc, error) {
	var doc api.ReportDoc
	err := c.get(ctx, fmt.Sprintf("/api/admin/report/%d", page), true, &doc)
	return doc, err
}

// LikerProfile is the per-liker crawl output: the §3 data collection
// unit (profile attributes, friend list when public, page-like list).
type LikerProfile struct {
	User          api.UserDoc
	Friends       []int64
	FriendsHidden bool
	PageLikes     []int64
}

// CrawlLikers crawls every liker of a page: profile, friend list (noting
// privacy), and page-like list.
func (c *Client) CrawlLikers(ctx context.Context, page int64) ([]LikerProfile, error) {
	likes, err := c.PageLikes(ctx, page)
	if err != nil {
		return nil, err
	}
	var out []LikerProfile
	for _, lk := range likes {
		u, err := c.User(ctx, lk.User)
		if err != nil {
			return nil, err
		}
		prof := LikerProfile{User: u}
		friends, err := c.UserFriends(ctx, lk.User)
		switch {
		case errors.Is(err, ErrPrivate):
			prof.FriendsHidden = true
		case err != nil:
			return nil, err
		default:
			prof.Friends = friends
		}
		pages, err := c.UserLikes(ctx, lk.User)
		if err != nil {
			return nil, err
		}
		prof.PageLikes = pages
		out = append(out, prof)
	}
	return out, nil
}
