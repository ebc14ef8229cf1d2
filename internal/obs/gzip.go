package obs

import (
	"bytes"
	"compress/gzip"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// gzipPool recycles gzip writers across responses; compression level
// BestSpeed because the payloads (metrics text, history JSON) are
// highly repetitive and the win is bandwidth, not ratio.
var gzipPool = sync.Pool{
	New: func() any {
		zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
		return zw
	},
}

// GzipHandler wraps next with negotiated gzip response encoding:
// clients sending Accept-Encoding: gzip get a compressed body with
// Content-Encoding set, everyone else gets the handler's bytes
// untouched. Meant for the text- and JSON-heavy operational endpoints
// (/metrics, /debug/traces, /api/history, /api/slo) whose payloads
// compress 10-20x. Responses that already carry a Content-Encoding
// and bodyless statuses (204/304) pass through uncompressed.
func GzipHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !acceptsGzip(r) {
			next.ServeHTTP(w, r)
			return
		}
		w.Header().Add("Vary", "Accept-Encoding")
		gw := &gzipResponseWriter{ResponseWriter: w}
		defer gw.Close()
		next.ServeHTTP(gw, r)
	})
}

// acceptsGzip reports whether the request negotiates gzip. A zero q
// weight is an explicit refusal; any other mention (including
// weightless lists like "gzip, deflate") accepts.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if !strings.EqualFold(strings.TrimSpace(enc), "gzip") {
			continue
		}
		q := strings.TrimSpace(params)
		if val, ok := strings.CutPrefix(q, "q="); ok {
			if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil && f <= 0 {
				return false
			}
		}
		return true
	}
	return false
}

// Encoded is a response body held in plain and gzip form, for bodies
// memoised across requests: the compression is paid once, when the
// body is built, instead of on every request that negotiates gzip.
type Encoded struct {
	Plain, Gzip []byte
}

// Precompress returns body with its gzip form, compressed at the level
// GzipHandler uses.
func Precompress(body []byte) Encoded {
	var buf bytes.Buffer
	zw := gzipPool.Get().(*gzip.Writer)
	zw.Reset(&buf)
	zw.Write(body) // a bytes.Buffer write cannot fail
	zw.Close()
	zw.Reset(nil)
	gzipPool.Put(zw)
	return Encoded{Plain: body, Gzip: buf.Bytes()}
}

// WriteEncoded writes e as a contentType response negotiated the way
// GzipHandler negotiates: a client that accepts gzip gets e.Gzip with
// Content-Encoding: gzip and Vary: Accept-Encoding, any other client
// gets e.Plain. Under GzipHandler the Content-Encoding it sets makes
// the wrapper pass the bytes through, and the Vary the wrapper already
// added is not repeated.
func WriteEncoded(w http.ResponseWriter, r *http.Request, contentType string, e Encoded) error {
	h := w.Header()
	h.Set("Content-Type", contentType)
	body := e.Plain
	if acceptsGzip(r) {
		if !slices.Contains(h.Values("Vary"), "Accept-Encoding") {
			h.Add("Vary", "Accept-Encoding")
		}
		h.Set("Content-Encoding", "gzip")
		body = e.Gzip
	}
	_, err := w.Write(body)
	return err
}

// gzipResponseWriter defers the compress/no-compress decision to the
// first write, when the status and response headers are known.
type gzipResponseWriter struct {
	http.ResponseWriter
	zw          *gzip.Writer
	status      int
	wroteHeader bool
	skip        bool // pass through uncompressed
}

func (g *gzipResponseWriter) WriteHeader(code int) {
	if g.wroteHeader {
		return
	}
	g.wroteHeader = true
	g.status = code
	// No body to compress, the handler already encoded it itself, or
	// the payload is an opaque binary download (profile artifacts)
	// whose Content-Length clients rely on.
	if code == http.StatusNoContent || code == http.StatusNotModified ||
		g.Header().Get("Content-Encoding") != "" ||
		strings.HasPrefix(g.Header().Get("Content-Type"), "application/octet-stream") {
		g.skip = true
		g.ResponseWriter.WriteHeader(code)
		return
	}
	g.Header().Set("Content-Encoding", "gzip")
	// The compressed length is unknowable up front.
	g.Header().Del("Content-Length")
	g.ResponseWriter.WriteHeader(code)
}

func (g *gzipResponseWriter) Write(p []byte) (int, error) {
	if !g.wroteHeader {
		g.WriteHeader(http.StatusOK)
	}
	if g.skip {
		return g.ResponseWriter.Write(p)
	}
	if g.zw == nil {
		g.zw = gzipPool.Get().(*gzip.Writer)
		g.zw.Reset(g.ResponseWriter)
	}
	return g.zw.Write(p)
}

// Flush drains the compressor and passes http.Flusher through so
// streaming handlers keep working under compression.
func (g *gzipResponseWriter) Flush() {
	if g.zw != nil {
		g.zw.Flush()
	}
	if f, ok := g.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Close finishes the gzip stream and returns the writer to the pool.
func (g *gzipResponseWriter) Close() {
	if g.zw == nil {
		return
	}
	g.zw.Close()
	g.zw.Reset(nil)
	gzipPool.Put(g.zw)
	g.zw = nil
}
