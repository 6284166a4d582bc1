package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtreescale/internal/cluster"
	"mtreescale/internal/mcast"
)

// clusterGrid is a grid small enough for several full runs per test binary.
func clusterGrid() cluster.Grid {
	return cluster.Grid{
		Kind:      cluster.KindEnsemble,
		Topology:  "r100",
		Scale:     1,
		Sizes:     []int{1, 3, 10},
		Mode:      mcast.Distinct,
		NNetworks: 4,
		Protocol: mcast.Protocol{
			NSource: 3, NRcvr: 2, Seed: 11, Workers: 1, SPTCache: true,
		},
	}
}

func postShard(t *testing.T, url string, spec cluster.ShardSpec) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+cluster.ShardPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestResponsesCarryContentTypeAndWorkerHeader pins the response metadata
// contract: /curve answers declare application/json and every endpoint is
// stamped with the worker's identity.
func TestResponsesCarryContentTypeAndWorkerHeader(t *testing.T) {
	cfg := testConfig()
	cfg.workerID = "unit-worker"
	_, ts := newTestServer(t, cfg)

	for _, path := range []string{"/curve?experiment=fig3a&profile=quick", "/healthz", "/experiments"} {
		resp, _ := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("GET %s: Content-Type = %q, want application/json", path, ct)
		}
		if w := resp.Header.Get("X-Mtsimd-Worker"); w != "unit-worker" {
			t.Fatalf("GET %s: X-Mtsimd-Worker = %q, want %q", path, w, "unit-worker")
		}
	}

	// Errors carry the worker stamp too — attribution matters most when
	// something went wrong.
	resp, _ := get(t, ts.URL+"/curve?experiment=nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown experiment: status %d", resp.StatusCode)
	}
	if w := resp.Header.Get("X-Mtsimd-Worker"); w != "unit-worker" {
		t.Fatalf("error response X-Mtsimd-Worker = %q", w)
	}
}

func TestWorkerIDDefaultsToHostname(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, _ := get(t, ts.URL+"/healthz")
	if resp.Header.Get("X-Mtsimd-Worker") == "" {
		t.Fatal("X-Mtsimd-Worker empty with default config")
	}
}

// TestShardEndpoint exercises POST /shard directly: a valid spec returns
// the block's partial bound to the grid key, malformed and invalid specs
// answer 400, and the partial matches an in-process ExecuteClusterShard.
func TestShardEndpoint(t *testing.T) {
	cfg := testConfig()
	cfg.workerID = "unit-worker"
	_, ts := newTestServer(t, cfg)

	g := clusterGrid()
	spec := cluster.ShardSpec{Grid: g, Lo: 1, Hi: 3}
	resp, body := postShard(t, ts.URL, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /shard: status %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if w := resp.Header.Get("X-Mtsimd-Worker"); w != "unit-worker" {
		t.Fatalf("X-Mtsimd-Worker = %q", w)
	}
	var got cluster.Partial
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decoding partial: %v", err)
	}
	if got.Key != g.Key() || got.Lo != 1 || got.Hi != 3 || got.Ensemble == nil {
		t.Fatalf("partial = key %.12s [%d,%d), ensemble %v", got.Key, got.Lo, got.Hi, got.Ensemble != nil)
	}
	want, err := cluster.ExecuteShard(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatal("served partial differs from in-process ExecuteClusterShard")
	}

	// Invalid block and malformed body are client errors, not incidents.
	resp, _ = postShard(t, ts.URL, cluster.ShardSpec{Grid: g, Lo: 3, Hi: 99})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad block: status %d", resp.StatusCode)
	}
	hr, err := http.Post(ts.URL+cluster.ShardPath, "application/json", strings.NewReader("{torn"))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", hr.StatusCode)
	}
	// So is a grid asking for the removed compressed adjacency layout.
	large := g
	large.LargeGraph = true
	if wire, err := json.Marshal(large); err != nil || !bytes.Contains(wire, []byte(`"large_graph":true`)) {
		t.Fatalf("grid wire form %s (err %v) lacks \"large_graph\":true", wire, err)
	}
	resp, _ = postShard(t, ts.URL, cluster.ShardSpec{Grid: large, Lo: 1, Hi: 3})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("large_graph spec: status %d", resp.StatusCode)
	}
	gr, err := http.Get(ts.URL + cluster.ShardPath)
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusMethodNotAllowed && gr.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /shard: status %d", gr.StatusCode)
	}
}

// TestClusterSurvivesDaemonKillMidRun is the end-to-end resilience claim
// against real daemons: a coordinator fans a grid over two mtsimd servers,
// one is killed after its first completed shard, and the merged result is
// still byte-identical to a single-process run.
//
// The kill is deterministic: daemon-a answers its first shard at once and
// holds every later one until daemon-b has completed a shard, been killed,
// and had its next dispatch fail and requeue. Daemon-a can therefore never
// drain the grid first, and the failed-shard path always runs. Backoff
// paces daemon-b's retries against the shard left in the pool: 50 ms
// doubling per strike gives daemon-a about 0.75 s to take that shard
// before its budget of 4 retries runs out.
func TestClusterSurvivesDaemonKillMidRun(t *testing.T) {
	cfgA, cfgB := testConfig(), testConfig()
	cfgA.workerID, cfgB.workerID = "daemon-a", "daemon-b"
	sA, err := newServer(cfgA, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sA.close() })
	hA := sA.handler()
	release := make(chan struct{})
	var aShards atomic.Int32
	tsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cluster.ShardPath && aShards.Add(1) > 1 {
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
		}
		hA.ServeHTTP(w, r)
	}))
	t.Cleanup(tsA.Close)
	_, tsB := newTestServer(t, cfgB)

	var killed atomic.Bool
	var kill, unhold sync.Once
	onEvent := func(ev cluster.Event) {
		if ev.Worker != tsB.URL {
			return
		}
		switch ev.Kind {
		case "complete":
			kill.Do(func() {
				tsB.CloseClientConnections()
				tsB.Close()
				killed.Store(true)
			})
		case "requeue":
			unhold.Do(func() { close(release) })
		}
	}

	coord, err := cluster.New(
		[]string{tsA.URL, tsB.URL},
		cluster.Options{
			Retries: 4,
			Backoff: 50 * time.Millisecond,
			OnEvent: onEvent,
		})
	if err != nil {
		t.Fatal(err)
	}
	g := clusterGrid()
	merged, stats, err := coord.Run(t.Context(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Load() {
		t.Fatalf("daemon-b was never killed: %+v", stats)
	}
	if stats.Requeues == 0 {
		t.Fatalf("no shard failed on the killed daemon: %+v", stats)
	}
	if stats.PerWorker[tsA.URL] == 0 {
		t.Fatalf("survivor completed no shards: %+v", stats)
	}

	want, err := cluster.RunLocal(t.Context(), g)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(merged)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("merged result after worker kill differs:\n%s\n----\n%s", gotJSON, wantJSON)
	}
}

// TestShardAuthToken pins the worker-side auth contract: with -shard-token
// set, POST /shard answers 401 (with a WWW-Authenticate challenge) to
// missing or wrong credentials, 200 to the right ones — and /healthz stays
// open so an auth-fronted worker is never misread as dead by heartbeats.
func TestShardAuthToken(t *testing.T) {
	cfg := testConfig()
	cfg.shardToken = "s3cret"
	_, ts := newTestServer(t, cfg)

	g := clusterGrid()
	body, err := json.Marshal(cluster.ShardSpec{Grid: g, Lo: 0, Hi: 2})
	if err != nil {
		t.Fatal(err)
	}
	post := func(auth string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+cluster.ShardPath, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	for _, auth := range []string{"", "Bearer wrong", "Basic s3cret"} {
		resp := post(auth)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("auth %q: status %d, want 401", auth, resp.StatusCode)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Fatalf("auth %q: missing WWW-Authenticate challenge", auth)
		}
	}
	if resp := post("Bearer s3cret"); resp.StatusCode != http.StatusOK {
		t.Fatalf("correct token: status %d, want 200", resp.StatusCode)
	}

	hr, _ := get(t, ts.URL+"/healthz")
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/healthz behind shard auth: status %d, want 200 (open)", hr.StatusCode)
	}
}
