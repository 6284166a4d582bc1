package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mtreescale/internal/experiments"
)

// registerBlocking registers a test experiment that signals on started and
// then holds its compute slot until release is closed (or its context
// ends). Registration is global to the test binary, so every id must be
// unique.
func registerBlocking(t *testing.T, id string) (started chan struct{}, release chan struct{}) {
	t.Helper()
	started = make(chan struct{}, 16)
	release = make(chan struct{})
	err := experiments.Register(&experiments.Runner{
		ID:    id,
		Title: "test: blocks until released",
		Run: func(ctx context.Context, p experiments.Profile) (*experiments.Result, error) {
			started <- struct{}{}
			select {
			case <-release:
				return &experiments.Result{ID: id, Title: "blocking", Notes: []string{"released"}}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return started, release
}

// asyncGet fires a GET in a goroutine and delivers the outcome on a channel.
type getResult struct {
	resp *http.Response
	body []byte
	err  error
}

func asyncGet(url string) chan getResult {
	ch := make(chan getResult, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			ch <- getResult{err: err}
			return
		}
		body, err := readAll(resp)
		ch <- getResult{resp: resp, body: body, err: err}
	}()
	return ch
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// While one request holds the only compute slot, additional compute
// requests are shed with 429 + Retry-After, and /healthz answers in well
// under 100ms.
func TestSheddingAndHealthUnderSaturation(t *testing.T) {
	started, release := registerBlocking(t, "zz-shed-block")
	defer close(release)
	cfg := testConfig() // maxActive=1, maxWait=0
	_, ts := newTestServer(t, cfg)

	inflight := asyncGet(ts.URL + "/curve?experiment=zz-shed-block&profile=quick")
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("blocking experiment never started")
	}

	// The pool is saturated: an uncached compute request is shed.
	resp, body := get(t, ts.URL+"/curve?experiment=fig8&profile=quick")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated /curve = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}

	// Health stays fast: the acceptance bar is 100ms per probe while the
	// pool is saturated.
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		resp, _ := get(t, ts.URL+"/healthz")
		if d := time.Since(t0); d > 100*time.Millisecond {
			t.Fatalf("healthz probe %d took %s under saturation", i, d)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz = %d under saturation", resp.StatusCode)
		}
	}
	var health struct {
		Shed   uint64 `json:"shed"`
		Active int    `json:"active"`
	}
	_, hb := get(t, ts.URL+"/healthz")
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if health.Shed == 0 || health.Active != 1 {
		t.Fatalf("healthz counters shed=%d active=%d, want shed>0 active=1", health.Shed, health.Active)
	}

	// Releasing the slot lets the in-flight request finish normally.
	release <- struct{}{}
	r := <-inflight
	if r.err != nil || r.resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request after release: %v / %v", r.err, r.resp)
	}
}

// A panicking experiment answers 500 with an opaque incident id — the panic
// value never reaches the wire — the process survives, and the experiment is
// quarantined with a Retry-After on subsequent requests.
func TestPanicIsolatedAndQuarantined(t *testing.T) {
	err := experiments.Register(&experiments.Runner{
		ID:    "zz-panic-always",
		Title: "test: panics",
		Run: func(ctx context.Context, p experiments.Profile) (*experiments.Result, error) {
			panic("sekrit-internal-state-do-not-leak")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, testConfig())

	resp, body := get(t, ts.URL+"/curve?experiment=zz-panic-always&profile=quick")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking /curve = %d, want 500 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "incident") {
		t.Fatalf("500 body lacks an incident id: %s", body)
	}
	if strings.Contains(string(body), "sekrit") {
		t.Fatalf("panic value leaked to the client: %s", body)
	}

	// The process is fine: health and an unrelated computation still work.
	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatal("healthz broken after a panic")
	}
	resp, body = get(t, ts.URL+"/curve?experiment=fig8&profile=quick")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unrelated /curve after panic = %d (%s)", resp.StatusCode, body)
	}

	// The panicking experiment is quarantined: refused without re-running.
	resp, body = get(t, ts.URL+"/curve?experiment=zz-panic-always&profile=quick")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined /curve = %d, want 503 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quarantined 503 without Retry-After")
	}
	if !strings.Contains(string(body), "quarantined") {
		t.Fatalf("503 body does not say quarantined: %s", body)
	}

	// /experiments exposes the quarantine state.
	_, body = get(t, ts.URL+"/experiments")
	if !strings.Contains(string(body), "zz-panic-always") {
		t.Fatalf("/experiments does not list the quarantined id: %s", body)
	}
}

// Cached results keep being served — marked degraded — while the pool is
// saturated or the experiment quarantined.
func TestDegradedReadsFromCache(t *testing.T) {
	started, release := registerBlocking(t, "zz-degraded-block")
	defer close(release)
	s, ts := newTestServer(t, testConfig()) // maxActive=1, maxWait=0

	// Warm the cache while healthy.
	resp, fresh := get(t, ts.URL+"/curve?experiment=fig8&profile=quick")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up = %d", resp.StatusCode)
	}

	// Saturate the pool, then read the cached curve.
	inflight := asyncGet(ts.URL + "/curve?experiment=zz-degraded-block&profile=quick")
	<-started
	resp, cached := get(t, ts.URL+"/curve?experiment=fig8&profile=quick")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached read under saturation = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Mtsimd-Degraded"); got != "saturated" {
		t.Fatalf("X-Mtsimd-Degraded = %q, want saturated", got)
	}
	if !bytes.Equal(fresh, cached) {
		t.Fatal("degraded body differs from the fresh body")
	}
	release <- struct{}{}
	<-inflight

	// Quarantine the cached experiment: reads still answer, marked so.
	s.quar.Report("fig8", errors.New("forced for the test"))
	resp, cached = get(t, ts.URL+"/curve?experiment=fig8&profile=quick")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached read under quarantine = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Mtsimd-Degraded"); got != "quarantined" {
		t.Fatalf("X-Mtsimd-Degraded = %q, want quarantined", got)
	}
	if !bytes.Equal(fresh, cached) {
		t.Fatal("quarantine-degraded body differs from the fresh body")
	}
}

// SIGTERM mid-request: the daemon stops admitting new work, the in-flight
// request finishes inside the drain budget, the checkpoint journal is
// flushed with zero torn records, and the process exits cleanly.
func TestDrainFinishesInflightAndFlushesCheckpoint(t *testing.T) {
	started, release := registerBlocking(t, "zz-drain-slow")
	defer close(release)
	dir := t.TempDir()
	cfg := testConfig()
	cfg.dataDir = dir
	cfg.drainBudget = 10 * time.Second

	s, err := newServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serveDaemon(ctx, s, ln) }()
	base := "http://" + ln.Addr().String()

	inflight := asyncGet(base + "/curve?experiment=zz-drain-slow&profile=quick")
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never started")
	}

	cancel() // the SIGTERM

	// The daemon flips to draining: readyz goes 503 and new compute work is
	// refused, while the in-flight request keeps its slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusServiceUnavailable {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(base + "/curve?experiment=fig8&profile=quick")
	if err == nil {
		body, _ := readAll(resp)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("new work during drain = %d, want 503 (%s)", resp.StatusCode, body)
		}
	}

	// Let the in-flight request finish: it must complete with a full 200.
	release <- struct{}{}
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request torn by drain: %v", r.err)
	}
	if r.resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request = %d during drain (%s)", r.resp.StatusCode, r.body)
	}
	var res experiments.Result
	if err := json.Unmarshal(r.body, &res); err != nil || res.ID != "zz-drain-slow" {
		t.Fatalf("in-flight body truncated (%v): %s", err, r.body)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveDaemon: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveDaemon did not return after drain")
	}

	// Zero torn files: every journal line parses, and the in-flight result
	// was checkpointed before exit.
	raw, err := os.ReadFile(filepath.Join(dir, experiments.CheckpointFile))
	if err != nil {
		t.Fatalf("no checkpoint journal after drain: %v", err)
	}
	sawInflight := false
	for i, line := range bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n")) {
		rec, err := experiments.ParseCheckpointLine(line)
		if err != nil {
			t.Fatalf("journal line %d torn after drain: %v\n%s", i+1, err, line)
		}
		if rec.ID == "zz-drain-slow" {
			sawInflight = true
		}
	}
	if !sawInflight {
		t.Fatal("in-flight result missing from the flushed journal")
	}
}

// When the drain budget expires, stragglers are cancelled rather than
// awaited forever: the in-flight request gets a 503 and the daemon still
// exits cleanly.
func TestDrainBudgetCancelsStragglers(t *testing.T) {
	started, release := registerBlocking(t, "zz-drain-straggler")
	defer close(release)
	cfg := testConfig()
	cfg.drainBudget = 100 * time.Millisecond

	s, err := newServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveDaemon(ctx, s, ln) }()
	base := "http://" + ln.Addr().String()

	inflight := asyncGet(base + "/curve?experiment=zz-drain-straggler&profile=quick")
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("straggler never started")
	}

	t0 := time.Now()
	cancel()
	r := <-inflight
	if r.err == nil && r.resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cancelled straggler = %d, want 503 (%s)", r.resp.StatusCode, r.body)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveDaemon: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveDaemon hung past the drain budget")
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %s with a 100ms drain budget", elapsed)
	}
}

// Kill-then-restart: a second daemon pointed at the same data directory
// serves the same query byte-identically from the checkpoint journal.
func TestRestartServesByteIdenticalFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.dataDir = dir

	sA, err := newServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(sA.handler())
	resp, fresh := get(t, tsA.URL+"/curve?experiment=fig8&profile=quick")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Mtsimd-Source") != "fresh" {
		t.Fatalf("first run: %d / %s", resp.StatusCode, resp.Header.Get("X-Mtsimd-Source"))
	}
	tsA.Close()
	if err := sA.close(); err != nil {
		t.Fatal(err)
	}

	sB, err := newServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer sB.close()
	tsB := httptest.NewServer(sB.handler())
	defer tsB.Close()
	resp, replayed := get(t, tsB.URL+"/curve?experiment=fig8&profile=quick")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted daemon = %d", resp.StatusCode)
	}
	if src := resp.Header.Get("X-Mtsimd-Source"); src != "checkpoint" {
		t.Fatalf("X-Mtsimd-Source after restart = %q, want checkpoint", src)
	}
	if !bytes.Equal(fresh, replayed) {
		t.Fatalf("restarted answer differs from the original (%d vs %d bytes)", len(fresh), len(replayed))
	}
}

// A slow-loris connection — headers never finished — is cut off by the
// read-header timeout and never occupies a compute slot; the daemon keeps
// serving normally alongside it.
func TestSlowLorisConnectionIsDropped(t *testing.T) {
	cfg := testConfig()
	cfg.readHeaderTimeout = 100 * time.Millisecond

	s, err := newServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveDaemon(ctx, s, ln) }()
	base := "http://" + ln.Addr().String()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET /curve?experiment=fig8 HTTP/1.1\r\nHost: mtsimd\r\n"); err != nil {
		t.Fatal(err)
	}
	// ...and stall without the terminating CRLF.

	// The daemon is unaffected while the loris dangles.
	resp, _ := get(t, base+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatal("healthz failed with a slow-loris connection open")
	}

	// The server must cut the connection within the header timeout (plus
	// slack); a full HTTP response never arrives.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1024)
	n, rerr := conn.Read(buf)
	if rerr == nil && n > 0 {
		// Server may send nothing or a 408 before closing; keep reading to
		// confirm the close.
		_, rerr = conn.Read(buf)
	}
	if rerr == nil {
		t.Fatal("slow-loris connection still open after the read-header timeout")
	}
	if errors.Is(rerr, os.ErrDeadlineExceeded) {
		t.Fatal("server never closed the slow-loris connection")
	}

	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("serveDaemon did not stop")
	}
}
