package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mtreescale/internal/experiments"
)

// testConfig is a small, deterministic config for handler-level tests.
func testConfig() config {
	cfg := defaultConfig()
	cfg.maxActive = 1
	cfg.maxWait = 0
	cfg.deadline = 30 * time.Second
	cfg.deadlineCeiling = time.Minute
	cfg.drainBudget = 5 * time.Second
	cfg.quarBase = time.Minute
	cfg.quarMax = time.Hour
	return cfg
}

// newTestServer builds a server plus an httptest front end for it.
func newTestServer(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.close() })
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// get fetches url and returns the response plus its fully-read body.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp, body
}

func TestHealthzAndReadyz(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d: %s", resp.StatusCode, body)
	}
	var health map[string]any
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz body is not JSON: %v\n%s", err, body)
	}
	if health["status"] != "ok" || health["draining"] != false {
		t.Fatalf("healthz = %v", health)
	}
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d: %s", resp.StatusCode, body)
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, body := get(t, ts.URL+"/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/experiments = %d: %s", resp.StatusCode, body)
	}
	var listing struct {
		Experiments []experiments.Info `json:"experiments"`
		Profiles    []string           `json:"profiles"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("bad /experiments body: %v\n%s", err, body)
	}
	found := false
	for _, e := range listing.Experiments {
		if e.ID == "fig1a" {
			found = true
			if e.Title == "" {
				t.Error("fig1a listed without a title")
			}
		}
	}
	if !found {
		t.Fatalf("fig1a missing from /experiments: %s", body)
	}
	if len(listing.Profiles) != 3 {
		t.Fatalf("profiles = %v", listing.Profiles)
	}
}

func TestCurveFreshThenCached(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	url := ts.URL + "/curve?experiment=fig8&profile=quick"

	resp, fresh := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh /curve = %d: %s", resp.StatusCode, fresh)
	}
	if src := resp.Header.Get("X-Mtsimd-Source"); src != "fresh" {
		t.Fatalf("X-Mtsimd-Source = %q, want fresh", src)
	}
	var res experiments.Result
	if err := json.Unmarshal(fresh, &res); err != nil || res.ID != "fig8" {
		t.Fatalf("body is not the fig8 Result (%v): %s", err, fresh)
	}

	resp, cached := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached /curve = %d: %s", resp.StatusCode, cached)
	}
	if src := resp.Header.Get("X-Mtsimd-Source"); src != "cache" {
		t.Fatalf("X-Mtsimd-Source = %q, want cache", src)
	}
	if !bytes.Equal(fresh, cached) {
		t.Fatalf("cached body differs from fresh body (%d vs %d bytes)", len(fresh), len(cached))
	}
	if resp.Header.Get("X-Mtsimd-Degraded") != "" {
		t.Fatal("healthy cache hit marked degraded")
	}
}

func TestCurveValidation(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	cases := []struct {
		query string
		want  int
	}{
		{"", http.StatusBadRequest},
		{"?experiment=", http.StatusBadRequest},
		{"?experiment=fig8&profile=gigantic", http.StatusBadRequest},
		{"?experiment=no-such-figure", http.StatusNotFound},
		{"?experiment=fig8&deadline=bogus", http.StatusBadRequest},
		{"?experiment=fig8&deadline=-5s", http.StatusBadRequest},
		{"?experiment=fig8&deadline=0s", http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := get(t, ts.URL+"/curve"+c.query)
		if resp.StatusCode != c.want {
			t.Errorf("/curve%s = %d, want %d (%s)", c.query, resp.StatusCode, c.want, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("/curve%s error body not JSON: %s", c.query, body)
		}
	}
}

func TestCurveMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, err := http.Post(ts.URL+"/curve?experiment=fig8", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /curve = %d, want 405", resp.StatusCode)
	}
}

func TestRunDaemonFlagAndListenErrors(t *testing.T) {
	if err := runDaemon(context.Background(), []string{"-maxheap", "12x"}, io.Discard); err == nil {
		t.Fatal("bad -maxheap accepted")
	}
	if err := runDaemon(context.Background(), []string{"-not-a-flag"}, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := runDaemon(context.Background(), []string{"-addr", "not-an-address"}, io.Discard); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}

// The full daemon entry point starts, serves, and drains cleanly when its
// context is already cancelled — the SIGTERM path without the signal.
func TestRunDaemonStartsAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var log bytes.Buffer
	if err := runDaemon(ctx, []string{"-addr", "127.0.0.1:0", "-drain", "2s"}, &log); err != nil {
		t.Fatalf("runDaemon: %v\n%s", err, log.String())
	}
	out := log.String()
	if !strings.Contains(out, "listening on") || !strings.Contains(out, "drained and stopped") {
		t.Fatalf("lifecycle log incomplete:\n%s", out)
	}
}

// A client-requested deadline above the ceiling is clamped, not rejected;
// a tiny deadline on a real experiment yields 504, and the budget is
// reported in the error.
func TestCurveDeadline(t *testing.T) {
	cfg := testConfig()
	_, ts := newTestServer(t, cfg)
	resp, body := get(t, ts.URL+"/curve?experiment=fig8&profile=quick&deadline=1ns")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("1ns deadline = %d, want 504 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline exceeded") {
		t.Fatalf("504 body does not explain the deadline: %s", body)
	}
}
