package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"maras/internal/audit"
	"maras/internal/obs/prof"
)

// TestProfilesEndpointDisabled404s: without -prof-dir the route is
// mounted but answers 404 with the enabling hint.
func TestProfilesEndpoint404WhenDisabled(t *testing.T) {
	h, _ := testHandler(t) // captor nil
	rec := getMux(t, h, "/debug/profiles")
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "-prof-dir") {
		t.Errorf("/debug/profiles disabled = %d %q", rec.Code, rec.Body.String())
	}
}

// TestProfilesEndpointThroughMux: with a captor wired, the index and
// artifact download serve through the full server mux.
func TestProfilesEndpointThroughMux(t *testing.T) {
	h, d := testHandler(t, "-prof-dir", t.TempDir(), "-prof-cpu-window", "1ms", "-prof-interval", "0")

	arts, err := d.captor.CaptureCycle(context.Background(), prof.CauseScheduled, "")
	if err != nil {
		t.Fatal(err)
	}
	rec := getMux(t, h, "/debug/profiles")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), arts[0].ID) {
		t.Fatalf("/debug/profiles index = %d\n%s", rec.Code, rec.Body.String())
	}
	rec = getMux(t, h, "/debug/profiles/"+arts[0].ID)
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("artifact download = %d, %d bytes", rec.Code, rec.Body.Len())
	}

	// The store gauges are registered on the shared registry.
	metrics := getMux(t, h, "/metrics").Body.String()
	if !strings.Contains(metrics, "maras_prof_store_artifacts") {
		t.Error("/metrics missing maras_prof_store_artifacts")
	}
}

// TestBuildInfoExposed: the build-info gauge lands on /metrics and its
// fields echo on /healthz.
func TestBuildInfoExposed(t *testing.T) {
	h, _ := testHandler(t)
	metrics := getMux(t, h, "/metrics").Body.String()
	if !strings.Contains(metrics, "maras_build_info{") ||
		!strings.Contains(metrics, "go_version=") {
		t.Errorf("/metrics missing maras_build_info gauge:\n%s", metrics)
	}
	var health struct {
		GoVersion string `json:"go_version"`
		Revision  string `json:"revision"`
	}
	if err := json.Unmarshal(getMux(t, h, "/healthz").Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.GoVersion == "" || health.Revision == "" {
		t.Errorf("healthz build info = %+v", health)
	}
}

// TestAuditEndpointGzip: /debug/audit honors Accept-Encoding: gzip.
func TestAuditEndpointGzip(t *testing.T) {
	h, d := testHandler(t)
	d.auditor.Log.Record(audit.Event{Rule: "quality_gate", Severity: audit.SevWarn,
		Scope: "2014Q1", Message: "support floor grazed"})

	req := httptest.NewRequest(http.MethodGet, "/debug/audit", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/audit = %d", rec.Code)
	}
	if rec.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", rec.Header().Get("Content-Encoding"))
	}
	zr, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(zr); err != nil {
		t.Fatalf("gzip body unreadable: %v", err)
	}
}
