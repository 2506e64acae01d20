package api

import (
	"compress/gzip"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// GzipMinSize is the body size below which responses are sent
// uncompressed: gzip framing costs ~25 bytes plus CPU on both ends,
// which tiny JSON documents (error bodies, single profiles) never earn
// back. Large like-stream and friend-list windows — the crawler's hot
// responses — compress to a fraction of their wire size.
const GzipMinSize = 1 << 10

// gzipWriters recycles compressors across responses. A level-6 flate
// writer carries ~800 KB of window and hash tables, so building one per
// response made allocation and GC the crawl path's main cost. Reset
// restores a pooled writer to the state of a fresh one, so the bytes on
// the wire are the same either way.
var gzipWriters = sync.Pool{New: func() any {
	p := new(pooledGzip)
	p.zw = gzip.NewWriter(p)
	return p
}}

// pooledGzip is a pooled compressor that writes through dst. Clearing
// dst is all it takes to keep the pool from holding a ResponseWriter
// alive; resetting the compressor onto nil instead would clear its
// ~640 KB of hash tables a second time per response.
type pooledGzip struct {
	zw  *gzip.Writer
	dst io.Writer
}

func (p *pooledGzip) Write(b []byte) (int, error) { return p.dst.Write(b) }

// Gzip wraps a handler with negotiated response compression: bodies of
// at least GzipMinSize are gzip-encoded when the request's
// Accept-Encoding offers gzip, everything else passes through
// untouched. Responses that already carry a Content-Encoding are never
// re-encoded, and every response gains Vary: Accept-Encoding so caches
// keep the two renderings apart.
func Gzip(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Vary goes on EVERY response, identity included: a shared cache
		// that stores an un-Varied identity response would serve it to
		// gzip-offering clients for its whole TTL.
		w.Header().Add("Vary", "Accept-Encoding")
		if !acceptsGzip(r) {
			next.ServeHTTP(w, r)
			return
		}
		gw := &gzipResponseWriter{rw: w, code: http.StatusOK}
		next.ServeHTTP(gw, r)
		if err := gw.finish(); err != nil {
			// The response is already partially on the wire; nothing
			// to report to the client beyond aborting it.
			return
		}
	})
}

// acceptsGzip reports whether the request offers gzip. A zero qvalue
// (q=0, q=0.0, ... — RFC 9110 §12.4.2) is an explicit refusal.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, weight, ok := strings.Cut(strings.TrimSpace(part), ";")
		if !strings.EqualFold(strings.TrimSpace(enc), "gzip") {
			continue
		}
		if ok {
			if qs, found := strings.CutPrefix(strings.TrimSpace(weight), "q="); found {
				if q, err := strconv.ParseFloat(qs, 64); err == nil && q <= 0 {
					return false
				}
			}
		}
		return true
	}
	return false
}

// gzipResponseWriter buffers the response until it either exceeds
// GzipMinSize (then switches to a streaming gzip writer) or completes
// small (then flushes the buffer uncompressed). Headers are withheld
// until the choice is made, because the choice decides
// Content-Encoding.
type gzipResponseWriter struct {
	rw   http.ResponseWriter
	code int

	buf     []byte
	started bool // headers sent; buf already flushed or handed to gz
	gz      *pooledGzip
}

// Header implements http.ResponseWriter.
func (g *gzipResponseWriter) Header() http.Header { return g.rw.Header() }

// WriteHeader implements http.ResponseWriter; the status is held back
// with the body prefix until the compression decision is made.
func (g *gzipResponseWriter) WriteHeader(code int) {
	if !g.started {
		g.code = code
	}
}

// Write implements http.ResponseWriter.
func (g *gzipResponseWriter) Write(p []byte) (int, error) {
	if g.started {
		if g.gz != nil {
			return g.gz.zw.Write(p)
		}
		return g.rw.Write(p)
	}
	g.buf = append(g.buf, p...)
	if len(g.buf) >= GzipMinSize {
		if err := g.start(true, false); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// start sends the headers and the buffered prefix, compressed or not.
// complete marks the buffered prefix as the entire body (the
// small-body path from finish); only then may an identity response
// claim a Content-Length — a mid-stream identity start (a handler that
// set its own Content-Encoding crossing the threshold) has more bytes
// coming.
func (g *gzipResponseWriter) start(compress, complete bool) error {
	g.started = true
	// A handler that already encoded its body keeps its encoding.
	if g.rw.Header().Get("Content-Encoding") != "" {
		compress = false
	}
	if compress {
		g.rw.Header().Set("Content-Encoding", "gzip")
		g.rw.Header().Del("Content-Length") // length of the plain body, now wrong
		g.rw.WriteHeader(g.code)
		g.gz = gzipWriters.Get().(*pooledGzip)
		g.gz.dst = g.rw
		g.gz.zw.Reset(g.gz)
		_, err := g.gz.zw.Write(g.buf)
		g.buf = nil
		return err
	}
	if complete && g.rw.Header().Get("Content-Length") == "" {
		g.rw.Header().Set("Content-Length", strconv.Itoa(len(g.buf)))
	}
	g.rw.WriteHeader(g.code)
	_, err := g.rw.Write(g.buf)
	g.buf = nil
	return err
}

// finish flushes whatever path the response took and hands the
// compressor back to the pool, detached from the ResponseWriter. A
// handler that panics never reaches finish; its compressor is left to
// the garbage collector rather than pooled in an unknown state.
func (g *gzipResponseWriter) finish() error {
	if !g.started {
		return g.start(false, true) // small body: uncompressed, complete
	}
	if g.gz == nil {
		return nil
	}
	err := g.gz.zw.Close()
	g.gz.dst = nil
	gzipWriters.Put(g.gz)
	g.gz = nil
	return err
}
