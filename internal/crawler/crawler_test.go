package crawler

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/socialnet"
)

var t0 = time.Date(2014, 3, 12, 0, 0, 0, 0, time.UTC)

func testWorld(t *testing.T) (*httptest.Server, *socialnet.Store, socialnet.PageID, socialnet.UserID, socialnet.UserID) {
	t.Helper()
	st := socialnet.NewStore()
	pub := st.AddUser(socialnet.User{FriendsPublic: true, Searchable: true, Country: "USA", DeclaredFriends: 5})
	priv := st.AddUser(socialnet.User{FriendsPublic: false, Country: "Turkey"})
	for i := 0; i < 3; i++ {
		f := st.AddUser(socialnet.User{})
		_ = st.Friend(pub, f)
	}
	page, err := st.AddPage(socialnet.Page{Name: "hp", Honeypot: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = st.AddLike(pub, page, t0)
	_ = st.AddLike(priv, page, t0.Add(time.Hour))
	// Some extra page likes for pub.
	for i := 0; i < 450; i++ {
		p, _ := st.AddPage(socialnet.Page{Name: "x"})
		_ = st.AddLike(pub, p, t0.Add(time.Duration(i)*time.Minute))
	}
	srv := httptest.NewServer(api.NewServer(st, "tok"))
	t.Cleanup(srv.Close)
	return srv, st, page, pub, priv
}

func newClient(t *testing.T, srv *httptest.Server) *Client {
	t.Helper()
	cfg := DefaultConfig(srv.URL)
	cfg.MinInterval = 0
	cfg.AdminToken = "tok"
	cfg.PageSize = 100
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPageFetch(t *testing.T) {
	srv, _, page, _, _ := testWorld(t)
	c := newClient(t, srv)
	doc, err := c.Page(context.Background(), int64(page))
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Honeypot || doc.LikeCount != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if _, err := c.Page(context.Background(), 99999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing page err = %v", err)
	}
}

func TestUserLikesPaginated(t *testing.T) {
	srv, _, _, pub, _ := testWorld(t)
	c := newClient(t, srv)
	pages, err := c.UserLikes(context.Background(), int64(pub))
	if err != nil {
		t.Fatal(err)
	}
	// 450 covers + 1 honeypot.
	if len(pages) != 451 {
		t.Fatalf("user likes = %d, want 451", len(pages))
	}
	// Pagination required several requests.
	if c.Requests() < 5 {
		t.Fatalf("requests = %d, want >=5 for pagination", c.Requests())
	}
	seen := map[int64]bool{}
	for _, p := range pages {
		if seen[p] {
			t.Fatalf("duplicate page %d across pagination windows", p)
		}
		seen[p] = true
	}
}

func TestFriendPrivacy(t *testing.T) {
	srv, _, _, pub, priv := testWorld(t)
	c := newClient(t, srv)
	friends, err := c.UserFriends(context.Background(), int64(pub))
	if err != nil {
		t.Fatal(err)
	}
	if len(friends) != 3 {
		t.Fatalf("friends = %d", len(friends))
	}
	if _, err := c.UserFriends(context.Background(), int64(priv)); !errors.Is(err, ErrPrivate) {
		t.Fatalf("private list err = %v", err)
	}
}

func TestCrawlLikers(t *testing.T) {
	srv, _, page, _, _ := testWorld(t)
	c := newClient(t, srv)
	profiles, err := c.CrawlLikers(context.Background(), int64(page))
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 2 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	var pubProf, privProf *LikerProfile
	for i := range profiles {
		if profiles[i].User.Country == "USA" {
			pubProf = &profiles[i]
		} else {
			privProf = &profiles[i]
		}
	}
	if pubProf == nil || privProf == nil {
		t.Fatal("profiles missing")
	}
	if pubProf.FriendsHidden || len(pubProf.Friends) != 3 {
		t.Fatalf("public profile = %+v", pubProf)
	}
	if !privProf.FriendsHidden || len(privProf.Friends) != 0 {
		t.Fatalf("private profile = %+v", privProf)
	}
	if len(pubProf.PageLikes) != 451 {
		t.Fatalf("public page likes = %d", len(pubProf.PageLikes))
	}
}

func TestAdminReport(t *testing.T) {
	srv, _, page, _, _ := testWorld(t)
	c := newClient(t, srv)
	rep, err := c.AdminReport(context.Background(), int64(page))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalLikes != 2 {
		t.Fatalf("report = %+v", rep)
	}
	// Wrong token: error (401 is non-retryable).
	cfg := DefaultConfig(srv.URL)
	cfg.MinInterval = 0
	cfg.AdminToken = "wrong"
	bad, _ := New(cfg)
	if _, err := bad.AdminReport(context.Background(), int64(page)); err == nil {
		t.Fatal("wrong token accepted")
	}
}

func TestDirectory(t *testing.T) {
	srv, _, _, _, _ := testWorld(t)
	c := newClient(t, srv)
	doc, err := c.Directory(context.Background(), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Total != 1 {
		t.Fatalf("directory total = %d (only searchable)", doc.Total)
	}
}

func TestRetryOn500(t *testing.T) {
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":1,"name":"p","honeypot":false,"like_count":0}`))
	}))
	defer flaky.Close()
	cfg := DefaultConfig(flaky.URL)
	cfg.MinInterval = 0
	cfg.Backoff = time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c.Page(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "p" {
		t.Fatalf("doc = %+v", doc)
	}
	if c.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", c.Retries())
	}
}

func TestGivesUpAfterMaxRetries(t *testing.T) {
	always500 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer always500.Close()
	cfg := DefaultConfig(always500.URL)
	cfg.MinInterval = 0
	cfg.Backoff = time.Millisecond
	cfg.MaxRetries = 2
	c, _ := New(cfg)
	if _, err := c.Page(context.Background(), 1); err == nil {
		t.Fatal("should give up on persistent 500s")
	}
	if c.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", c.Retries())
	}
}

func TestContextCancellation(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	defer slow.Close()
	cfg := DefaultConfig(slow.URL)
	cfg.MinInterval = 0
	c, _ := New(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Page(ctx, 1); err == nil {
		t.Fatal("cancelled context should fail")
	}
}

func TestPolitenessSpacing(t *testing.T) {
	var stamps []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stamps = append(stamps, time.Now())
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":1,"name":"p","honeypot":false,"like_count":0}`))
	}))
	defer srv.Close()
	cfg := DefaultConfig(srv.URL)
	cfg.MinInterval = 30 * time.Millisecond
	c, _ := New(cfg)
	for i := 0; i < 3; i++ {
		if _, err := c.Page(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(stamps); i++ {
		if gap := stamps[i].Sub(stamps[i-1]); gap < 25*time.Millisecond {
			t.Fatalf("requests %d gap = %v, want >=30ms politeness", i, gap)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{BaseURL: "http://x", MinInterval: -1},
		{BaseURL: "http://x", MaxRetries: -1},
		{BaseURL: "http://x", PageSize: 0},
		{BaseURL: "http://x", PageSize: api.MaxPageSize + 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

// retryAfter429Server replies 429 with the given Retry-After header
// value once, then 200 with a minimal page doc.
func retryAfter429Server(t *testing.T, header func() string) *httptest.Server {
	t.Helper()
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			w.Header().Set("Retry-After", header())
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"rate limited"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":1,"name":"p","honeypot":false,"like_count":0}`))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestRetryAfterHTTPDatePast: a standards-compliant HTTP-date hint in
// the past means "retry now" — the retry must happen immediately, not
// fall through to exponential backoff (the bug: only delta-seconds
// parsed, so date hints were silently ignored).
func TestRetryAfterHTTPDatePast(t *testing.T) {
	srv := retryAfter429Server(t, func() string {
		return time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	})
	cfg := DefaultConfig(srv.URL)
	cfg.MinInterval = 0
	// A huge backoff proves the date hint (zero wait) was used: if the
	// hint fell through to backoff, the test would stall well past the
	// deadline below.
	cfg.Backoff = 10 * time.Second
	cfg.MaxRetries = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Page(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("past-date hint took %v, want an immediate retry", elapsed)
	}
}

// TestRetryAfterHTTPDateFutureCapped: a far-future HTTP-date is
// honored but clamped to RetryAfterCap, like an oversized
// delta-seconds value.
func TestRetryAfterHTTPDateFutureCapped(t *testing.T) {
	srv := retryAfter429Server(t, func() string {
		return time.Now().Add(time.Hour).UTC().Format(http.TimeFormat)
	})
	cfg := DefaultConfig(srv.URL)
	cfg.MinInterval = 0
	cfg.Backoff = time.Millisecond
	cfg.RetryAfterCap = 60 * time.Millisecond
	cfg.MaxRetries = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Page(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 50*time.Millisecond {
		t.Fatalf("future-date hint waited only %v, want >= ~RetryAfterCap", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("future-date hint waited %v, want clamped to RetryAfterCap", elapsed)
	}
}

// TestParseRetryAfter covers the header grammar directly.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2014, 3, 12, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"120", 120 * time.Second, true},
		{"0", 0, true},
		{"-3", 0, false},
		{"garbage", 0, false},
		{"", 0, false},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0, true},
	}
	for _, tc := range cases {
		got, ok := parseRetryAfter(tc.in, now)
		if ok != tc.ok || got != tc.want {
			t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// TestRetryWaitCapAndJitter: retryWait must (a) never exceed BackoffCap
// no matter how many attempts pile up — the old unjittered doubling
// overflowed into minutes-long sleeps — (b) draw full jitter from
// [0, ceiling] rather than sleeping in deterministic lockstep, and
// (c) be reproducible for a fixed BackoffSeed.
func TestRetryWaitCapAndJitter(t *testing.T) {
	cfg := DefaultConfig("http://crawl.test")
	cfg.Backoff = 10 * time.Millisecond
	cfg.BackoffCap = 40 * time.Millisecond
	cfg.BackoffSeed = 42
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var waits []time.Duration
	for attempt := 1; attempt <= 50; attempt++ {
		w := c.retryWait(attempt)
		if w < 0 || w > cfg.BackoffCap {
			t.Fatalf("attempt %d: wait %v outside [0, %v]", attempt, w, cfg.BackoffCap)
		}
		if attempt == 1 && w > cfg.Backoff {
			t.Fatalf("first retry waited %v, ceiling is base backoff %v", w, cfg.Backoff)
		}
		waits = append(waits, w)
	}
	allEqual := true
	for _, w := range waits[1:] {
		if w != waits[0] {
			allEqual = false
			break
		}
	}
	if allEqual {
		t.Fatal("50 jittered waits all identical — jitter is not being applied")
	}
	// Same seed, fresh client: identical sequence (deterministic tests).
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 50; attempt++ {
		if w := c2.retryWait(attempt); w != waits[attempt-1] {
			t.Fatalf("attempt %d: seed %d not reproducible: %v vs %v", attempt, cfg.BackoffSeed, w, waits[attempt-1])
		}
	}
}

// TestBackoffCapBoundsRetryLatency: with a tight cap, even a long retry
// chain against a dead endpoint finishes quickly. Under the old
// uncapped doubling, 8 retries at 200ms base would sleep ~51s.
func TestBackoffCapBoundsRetryLatency(t *testing.T) {
	always500 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer always500.Close()
	cfg := DefaultConfig(always500.URL)
	cfg.MinInterval = 0
	cfg.MaxRetries = 8
	cfg.Backoff = 200 * time.Millisecond
	cfg.BackoffCap = 5 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Page(context.Background(), 1); err == nil {
		t.Fatal("should give up on persistent 500s")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("8 capped retries took %v; BackoffCap is not bounding the sleeps", elapsed)
	}
}

// gzipped compresses p into one gzip member.
func gzipped(t *testing.T, p []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// fakeResponse wraps body as a response with the given Content-Encoding.
func fakeResponse(body []byte, encoding string) *http.Response {
	resp := &http.Response{Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(body))}
	if encoding != "" {
		resp.Header.Set("Content-Encoding", encoding)
	}
	return resp
}

// TestReadBodyLimit: bodies up to maxBody are read whole; one byte more,
// plain or once decompressed, is an explicit oversize error rather than
// a silently truncated body. A gzip stream whose wire bytes alone pass
// the bound is refused the same way, even when it decodes to nothing.
func TestReadBodyLimit(t *testing.T) {
	atLimit := make([]byte, maxBody)
	for _, enc := range []string{"", "gzip"} {
		body := atLimit
		if enc == "gzip" {
			body = gzipped(t, atLimit)
		}
		got, err := readBody(fakeResponse(body, enc))
		if err != nil || len(got) != maxBody {
			t.Fatalf("encoding %q: %d-byte body read as %d bytes, err %v", enc, maxBody, len(got), err)
		}
	}
	over := make([]byte, maxBody+1)
	emptyMember := gzipped(t, nil)
	for name, resp := range map[string]*http.Response{
		"plain":        fakeResponse(over, ""),
		"gzip":         fakeResponse(gzipped(t, over), "gzip"),
		"gzip on wire": fakeResponse(bytes.Repeat(emptyMember, maxBody/len(emptyMember)+1), "gzip"),
	} {
		if _, err := readBody(resp); !errors.Is(err, errBodyTooLarge) {
			t.Fatalf("%s: oversize body gave %v, want %v", name, err, errBodyTooLarge)
		}
	}
}

// TestOversizeBodyIsFinal: the client reports an oversize 200 as such,
// naming the bound, and does not retry a body it would only cut again.
func TestOversizeBodyIsFinal(t *testing.T) {
	var calls atomic.Int32
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(bytes.Repeat([]byte(" "), maxBody+1))
	}))
	defer big.Close()
	cfg := DefaultConfig(big.URL)
	cfg.MinInterval = 0
	cfg.Backoff = time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Page(context.Background(), 1)
	if !errors.Is(err, errBodyTooLarge) || !strings.Contains(err.Error(), "response body exceeds 16 MiB") {
		t.Fatalf("err = %v, want the explicit oversize error", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("oversize body fetched %d times, want 1", calls.Load())
	}
}

// TestGzipReaderPoolSurvivesCorruptStreams: a corrupt gzip header or a
// truncated stream fails its own response only; the pooled reader
// decodes the next response correctly.
func TestGzipReaderPoolSurvivesCorruptStreams(t *testing.T) {
	want := []byte(strings.Repeat(`{"pages":[1,2,3]}`, 200))
	good := gzipped(t, want)
	for i, bad := range [][]byte{
		[]byte("this is not a gzip header"),
		good[:len(good)/2],
	} {
		if _, err := readBody(fakeResponse(bad, "gzip")); err == nil {
			t.Fatalf("corrupt stream %d decoded without error", i)
		}
		got, err := readBody(fakeResponse(good, "gzip"))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("after corrupt stream %d: got %d bytes, err %v", i, len(got), err)
		}
	}
}
