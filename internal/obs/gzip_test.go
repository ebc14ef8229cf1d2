package obs

import (
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func gzipProbe(t *testing.T, h http.Handler, acceptEncoding string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	if acceptEncoding != "" {
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestGzipHandlerCompressesWhenAccepted(t *testing.T) {
	body := strings.Repeat("metrics exposition text\n", 100)
	h := GzipHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, body)
	}))

	rec := gzipProbe(t, h, "gzip")
	if got := rec.Header().Get("Content-Encoding"); got != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", got)
	}
	if got := rec.Header().Get("Vary"); !strings.Contains(got, "Accept-Encoding") {
		t.Errorf("Vary = %q, want Accept-Encoding", got)
	}
	if rec.Body.Len() >= len(body) {
		t.Errorf("compressed body (%d bytes) not smaller than plain (%d)", rec.Body.Len(), len(body))
	}
	zr, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != body {
		t.Error("round-tripped body differs from original")
	}
}

func TestGzipHandlerIdentityWithoutAccept(t *testing.T) {
	h := GzipHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "plain")
	}))
	for _, ae := range []string{"", "identity", "br", "gzip;q=0", "gzip;q=0.0"} {
		rec := gzipProbe(t, h, ae)
		if enc := rec.Header().Get("Content-Encoding"); enc != "" {
			t.Errorf("Accept-Encoding %q: Content-Encoding = %q, want none", ae, enc)
		}
		if rec.Body.String() != "plain" {
			t.Errorf("Accept-Encoding %q: body = %q", ae, rec.Body.String())
		}
	}
}

func TestGzipHandlerAcceptVariants(t *testing.T) {
	h := GzipHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "payload")
	}))
	for _, ae := range []string{"gzip", "gzip, deflate", "deflate, gzip;q=0.5", "GZIP", "gzip;q=1.0"} {
		rec := gzipProbe(t, h, ae)
		if enc := rec.Header().Get("Content-Encoding"); enc != "gzip" {
			t.Errorf("Accept-Encoding %q: Content-Encoding = %q, want gzip", ae, enc)
		}
	}
}

func TestGzipHandlerSkipsNoBodyStatuses(t *testing.T) {
	h := GzipHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	rec := gzipProbe(t, h, "gzip")
	if rec.Code != http.StatusNoContent {
		t.Fatalf("status = %d, want 204", rec.Code)
	}
	if enc := rec.Header().Get("Content-Encoding"); enc != "" {
		t.Errorf("204 got Content-Encoding %q", enc)
	}
}

func TestGzipHandlerRespectsPreEncoded(t *testing.T) {
	h := GzipHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Encoding", "br")
		io.WriteString(w, "already-encoded")
	}))
	rec := gzipProbe(t, h, "gzip")
	if enc := rec.Header().Get("Content-Encoding"); enc != "br" {
		t.Errorf("Content-Encoding = %q, want br preserved", enc)
	}
	if rec.Body.String() != "already-encoded" {
		t.Error("pre-encoded body was recompressed")
	}
}

func TestGzipHandlerDropsContentLength(t *testing.T) {
	h := GzipHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "5")
		io.WriteString(w, "hello")
	}))
	rec := gzipProbe(t, h, "gzip")
	if cl := rec.Header().Get("Content-Length"); cl != "" {
		t.Errorf("Content-Length = %q survived compression", cl)
	}
}

// TestWriteEncodedNegotiates: a precompressed body goes out as gzip,
// with one Vary, to clients that accept it, with or without
// GzipHandler around the writer, and as the plain bytes otherwise.
func TestWriteEncodedNegotiates(t *testing.T) {
	plain := []byte(strings.Repeat(`{"signal":"ASPIRIN+WARFARIN"},`, 50))
	e := Precompress(plain)
	write := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := WriteEncoded(w, r, "application/json", e); err != nil {
			t.Error(err)
		}
	})
	for name, h := range map[string]http.Handler{"bare": write, "under GzipHandler": GzipHandler(write)} {
		for _, ae := range []string{"", "gzip", "deflate, gzip;q=0.5", "gzip;q=0"} {
			rec := gzipProbe(t, h, ae)
			gz := ae == "gzip" || ae == "deflate, gzip;q=0.5"
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s %q: Content-Type %q", name, ae, ct)
			}
			body := rec.Body.Bytes()
			if !gz {
				if ce := rec.Header().Get("Content-Encoding"); ce != "" || string(body) != string(plain) {
					t.Errorf("%s %q: Content-Encoding %q, plain body %v", name, ae, ce, string(body) == string(plain))
				}
				continue
			}
			if ce, vary := rec.Header().Get("Content-Encoding"), rec.Header().Values("Vary"); ce != "gzip" || len(vary) != 1 || vary[0] != "Accept-Encoding" {
				t.Errorf("%s %q: Content-Encoding %q, Vary %q", name, ae, ce, vary)
				continue
			}
			zr, err := gzip.NewReader(rec.Body)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := io.ReadAll(zr); err != nil || string(got) != string(plain) {
				t.Errorf("%s %q: gunzipped body differs (%v)", name, ae, err)
			}
		}
	}
}
