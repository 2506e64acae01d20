package api

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/socialnet"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// gzipWorld serves a store with one page whose like stream is large
// enough to cross GzipMinSize.
func gzipWorld(t *testing.T) (*httptest.Server, socialnet.PageID) {
	t.Helper()
	st := socialnet.NewStore()
	page, err := st.AddPage(socialnet.Page{Name: "hp", Honeypot: true})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2014, 3, 12, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 200; i++ {
		u := st.AddUser(socialnet.User{Country: "USA"})
		_ = st.AddLike(u, page, at.Add(time.Duration(i)*time.Minute))
	}
	srv := httptest.NewServer(NewServer(st, ""))
	t.Cleanup(srv.Close)
	return srv, page
}

// rawGet performs a GET with transport auto-decompression disabled so
// the test sees the wire encoding.
func rawGet(t *testing.T, url, acceptEncoding string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acceptEncoding != "" {
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	tr := &http.Transport{DisableCompression: true}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestGzipLargeBody: a large like window is gzip-encoded when offered,
// decodes to the same JSON as the identity response, and carries Vary.
func TestGzipLargeBody(t *testing.T) {
	srv, page := gzipWorld(t)
	url := srv.URL + "/api/page/1/likes?cursor=0&limit=200"
	_ = page

	plain := rawGet(t, url, "")
	if enc := plain.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("identity request got Content-Encoding %q", enc)
	}
	plainBody, err := io.ReadAll(plain.Body)
	if err != nil {
		t.Fatal(err)
	}

	comp := rawGet(t, url, "gzip")
	if enc := comp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("gzip request got Content-Encoding %q, want gzip", enc)
	}
	if !strings.Contains(comp.Header.Get("Vary"), "Accept-Encoding") {
		t.Fatalf("compressed response missing Vary: Accept-Encoding (got %q)", comp.Header.Get("Vary"))
	}
	raw, err := io.ReadAll(comp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) >= len(plainBody) {
		t.Fatalf("compressed body (%d bytes) not smaller than plain (%d bytes)", len(raw), len(plainBody))
	}
	gz, err := gzip.NewReader(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	if string(decoded) != string(plainBody) {
		t.Fatal("gzip round-trip does not reproduce the identity body")
	}
	var doc PageLikesDoc
	if err := json.Unmarshal(decoded, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Likes) != 200 {
		t.Fatalf("decoded %d likes, want 200", len(doc.Likes))
	}
}

// TestGzipSkipsTinyBodies: responses under GzipMinSize stay identity
// even when the client offers gzip — framing overhead isn't worth it.
func TestGzipSkipsTinyBodies(t *testing.T) {
	srv, _ := gzipWorld(t)
	resp := rawGet(t, srv.URL+"/api/healthz", "gzip")
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("tiny body got Content-Encoding %q, want identity", enc)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("unexpected body %q", body)
	}
}

// TestGzipRespectsRefusal: gzip;q=0 is an explicit refusal.
func TestGzipRespectsRefusal(t *testing.T) {
	srv, _ := gzipWorld(t)
	resp := rawGet(t, srv.URL+"/api/page/1/likes?cursor=0&limit=200", "gzip;q=0")
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("refused gzip but got Content-Encoding %q", enc)
	}
}

// TestGzipErrorStatusPreserved: status codes pass through the
// buffering writer unchanged for small (error) bodies.
func TestGzipErrorStatusPreserved(t *testing.T) {
	srv, _ := gzipWorld(t)
	resp := rawGet(t, srv.URL+"/api/page/99999", "gzip")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// gzipSizes are the body sizes the wire-identity tests serve: one under
// GzipMinSize (identity), one exactly at it, and two that stream past
// the buffered prefix.
var gzipSizes = []int{512, 1 << 10, 4 << 10, 64 << 10}

// plainBody is a deterministic JSON-like body of n bytes: compressible,
// but varied enough that deflate emits matches and literals alike.
func plainBody(n int) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	var b bytes.Buffer
	for b.Len() < n {
		fmt.Fprintf(&b, `{"user":%d,"at":"2014-03-12T%02d:%02d:00Z"},`, rng.Intn(1<<20), rng.Intn(24), rng.Intn(60))
	}
	return b.Bytes()[:n]
}

// freshGzip compresses p with a newly built writer: the reference every
// pooled response must match byte for byte.
func freshGzip(p []byte) []byte {
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	_, _ = zw.Write(p)
	_ = zw.Close()
	return b.Bytes()
}

// gzipPoolServer serves /body?n=N (N plain bytes, written in uneven
// chunks), /panic (panics after crossing GzipMinSize) and /stream (an
// endless incompressible body). done receives once per /stream
// response after Gzip has finished with it.
func gzipPoolServer(t *testing.T) (srv *httptest.Server, done chan struct{}) {
	t.Helper()
	done = make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/body", func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		body := plainBody(n)
		for len(body) > 0 {
			k := min(len(body), 700)
			_, _ = w.Write(body[:k])
			body = body[k:]
		}
	})
	mux.HandleFunc("/panic", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(plainBody(4 << 10))
		panic("handler failed mid-body")
	})
	block := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(block)
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < 4096; i++ {
			if _, err := w.Write(block); err != nil {
				return
			}
		}
	})
	gz := Gzip(mux)
	srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stream" {
			defer func() { done <- struct{}{} }()
		}
		gz.ServeHTTP(w, r)
	}))
	srv.Config.ErrorLog = log.New(io.Discard, "", 0) // the /panic trace
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, done
}

// checkWireIdentity fetches every gzipSizes body and compares its wire
// bytes with the fresh-writer reference (or the plain bytes under
// GzipMinSize).
func checkWireIdentity(client *http.Client, base string) error {
	for _, n := range gzipSizes {
		req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/body?n=%d", base, n), nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		plain := plainBody(n)
		want, wantEnc := freshGzip(plain), "gzip"
		if n < GzipMinSize {
			want, wantEnc = plain, ""
		}
		if enc := resp.Header.Get("Content-Encoding"); enc != wantEnc {
			return fmt.Errorf("%d-byte body: Content-Encoding %q, want %q", n, enc, wantEnc)
		}
		if !bytes.Equal(raw, want) {
			return fmt.Errorf("%d-byte body: %d wire bytes differ from the %d-byte fresh-writer reference", n, len(raw), len(want))
		}
	}
	return nil
}

// TestGzipPooledWireIdentity: responses compressed by pooled, reset
// writers are byte-identical to a fresh gzip.NewWriter's output, served
// one after another and from 8 goroutines at once.
func TestGzipPooledWireIdentity(t *testing.T) {
	srv, _ := gzipPoolServer(t)
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	for round := 0; round < 3; round++ {
		if err := checkWireIdentity(client, srv.URL); err != nil {
			t.Fatalf("sequential round %d: %v", round, err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				if err := checkWireIdentity(client, srv.URL); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGzipPoolSurvivesPanicAndDisconnect: neither a handler panicking
// after the compressor was taken nor a client hanging up mid-body
// leaves a spoiled compressor behind for later responses.
func TestGzipPoolSurvivesPanicAndDisconnect(t *testing.T) {
	srv, done := gzipPoolServer(t)
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/panic", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	if resp, err := client.Do(req); err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Fatal("a handler panic mid-body must abort the response")
		}
	}
	if err := checkWireIdentity(client, srv.URL); err != nil {
		t.Fatalf("after a handler panic: %v", err)
	}

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /stream HTTP/1.1\r\nHost: x\r\nAccept-Encoding: gzip\r\n\r\n")
	if _, err := io.ReadFull(conn, make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the streaming handler never saw the client hang up")
	}
	if err := checkWireIdentity(client, srv.URL); err != nil {
		t.Fatalf("after a client disconnect: %v", err)
	}
}

// userLikesWorld serves a store whose one user likes enough pages that
// /api/user/1/likes is a crawl-sized gzipped window.
func userLikesWorld(t *testing.T) *httptest.Server {
	t.Helper()
	st := socialnet.NewStore()
	u := st.AddUser(socialnet.User{Country: "USA"})
	at := time.Date(2014, 3, 12, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 500; i++ {
		p, err := st.AddPage(socialnet.Page{Name: "p"})
		if err != nil {
			t.Fatal(err)
		}
		_ = st.AddLike(u, p, at.Add(time.Duration(i)*time.Minute))
	}
	srv := httptest.NewServer(NewServer(st, ""))
	t.Cleanup(srv.Close)
	return srv
}

// TestGzipResponseAllocations: a gzipped like window costs the whole
// client/server round trip well under 64 KiB of allocation. A
// compressor built per response costs ~800 KB alone.
func TestGzipResponseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	srv := userLikesWorld(t)
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	fetch := func() {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/api/user/1/likes?cursor=0&limit=500", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get("Content-Encoding") != "gzip" {
			t.Fatal("like window not gzipped; the guard measures nothing")
		}
	}
	for i := 0; i < 10; i++ {
		fetch() // warm the pool, the connection and the handler
	}
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fetch()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per gzipped response", per)
	if per >= 64<<10 {
		t.Fatalf("%d bytes allocated per gzipped response, want < 64 KiB", per)
	}
}

// discardResponseWriter is a ResponseWriter that drops the body, so the
// benchmark measures Gzip and the handler, not a growing buffer.
type discardResponseWriter struct{ h http.Header }

func (d *discardResponseWriter) Header() http.Header         { return d.h }
func (d *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponseWriter) WriteHeader(int)             {}

// BenchmarkGzipResponse: one gzipped 4 KiB response through Gzip.
func BenchmarkGzipResponse(b *testing.B) {
	body := plainBody(4 << 10)
	h := Gzip(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(body)
	}))
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	w := &discardResponseWriter{}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for b.Loop() {
		w.h = http.Header{}
		h.ServeHTTP(w, req)
	}
}
