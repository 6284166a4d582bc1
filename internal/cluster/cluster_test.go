package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mtreescale/internal/mcast"
	"mtreescale/internal/serve"
)

// instant is the test Sleep: no waiting, still ctx-aware.
func instant(ctx context.Context, d time.Duration) error { return ctx.Err() }

func testGrid(kind Kind) Grid {
	g := Grid{
		Kind:     kind,
		Topology: "r100",
		Scale:    1,
		Sizes:    []int{1, 3, 10, 30},
		Mode:     mcast.Distinct,
		Protocol: mcast.Protocol{NSource: 7, NRcvr: 4, Seed: 12, Workers: 1},
	}
	if kind == KindEnsemble {
		g.NNetworks = 4
		g.Protocol.NSource = 3
	}
	if kind == KindShared {
		g.Strategy = mcast.CoreCenter
	}
	return g
}

func TestPlanTilesSpan(t *testing.T) {
	g := testGrid(KindCurve)
	for _, n := range []int{1, 2, 3, 7, 50} {
		plan, err := Plan(g, n)
		if err != nil {
			t.Fatal(err)
		}
		want := n
		if want > g.Span() {
			want = g.Span()
		}
		if len(plan) != want {
			t.Fatalf("Plan(%d) gave %d shards", n, len(plan))
		}
		next := 0
		for _, s := range plan {
			if s.Lo != next {
				t.Fatalf("gap at %d: %+v", next, s)
			}
			next = s.Hi
		}
		if next != g.Span() {
			t.Fatalf("plan covers [0, %d), want [0, %d)", next, g.Span())
		}
	}
	if _, err := Plan(g, 0); err == nil {
		t.Fatal("want error for 0 shards")
	}
}

// TestShardMergeMatchesLocal: ExecuteShard + Merge == RunLocal, byte for
// byte, for every grid kind.
func TestShardMergeMatchesLocal(t *testing.T) {
	for _, kind := range []Kind{KindCurve, KindShared, KindEnsemble} {
		t.Run(string(kind), func(t *testing.T) {
			g := testGrid(kind)
			want, err := RunLocal(nil, g)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Plan(g, 3)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([]*Partial, len(plan))
			for i, spec := range plan {
				if parts[i], err = ExecuteShard(nil, spec); err != nil {
					t.Fatal(err)
				}
			}
			got, err := Merge(g, parts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("merged != local:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestCoordinatorByteIdentical drives two real stub workers (computing
// shards in-process over real HTTP) and asserts the merged result equals
// the single-process run exactly.
func TestCoordinatorByteIdentical(t *testing.T) {
	for _, kind := range []Kind{KindCurve, KindShared, KindEnsemble} {
		t.Run(string(kind), func(t *testing.T) {
			g := testGrid(kind)
			want, err := RunLocal(nil, g)
			if err != nil {
				t.Fatal(err)
			}
			w1, err := StartStubWorker("w1", 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer w1.Close()
			w2, err := StartStubWorker("w2", 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			co, err := New([]string{w1.URL(), w2.URL()}, Options{Sleep: instant})
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := co.Run(nil, g, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("clustered != local:\n got %+v\nwant %+v", got, want)
			}
			if stats.Planned != 4 && stats.Planned != g.Span() {
				t.Fatalf("planned %d shards", stats.Planned)
			}
			total := 0
			for _, n := range stats.PerWorker {
				total += n
			}
			if total != stats.Planned {
				t.Fatalf("per-worker counts %v don't sum to %d", stats.PerWorker, stats.Planned)
			}
		})
	}
}

// TestCoordinatorSurvivesWorkerDeath kills one of two workers after its
// first completed shard; the dead worker's remaining shards must re-queue
// on the survivor and the merged output must stay byte-identical.
func TestCoordinatorSurvivesWorkerDeath(t *testing.T) {
	g := testGrid(KindCurve)
	want, err := RunLocal(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	var victimDone atomic.Int32
	victim, err := StartStubWorker("victim", 0, func(ctx context.Context, spec ShardSpec) (*Partial, error) {
		victimDone.Add(1)
		return ExecuteShard(ctx, spec)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	survivor, err := StartStubWorker("survivor", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()

	var killed atomic.Bool
	co, err := New([]string{victim.URL(), survivor.URL()}, Options{
		Sleep: instant,
		OnEvent: func(ev Event) {
			// Kill the victim as soon as it has completed one shard.
			if ev.Kind == "complete" && ev.Worker == victim.URL() && killed.CompareAndSwap(false, true) {
				victim.Close()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := co.Run(nil, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged after worker death != local:\n got %+v\nwant %+v", got, want)
	}
	if !killed.Load() {
		t.Fatal("victim was never killed — test exercised nothing")
	}
	if stats.PerWorker[survivor.URL()] == 0 {
		t.Fatal("survivor completed nothing")
	}
}

// TestCoordinatorBacksOffOn429 verifies a saturated worker is backpressure,
// not failure: the coordinator honors Retry-After, retries, and the shard
// succeeds without striking the worker's quarantine.
func TestCoordinatorBacksOffOn429(t *testing.T) {
	g := testGrid(KindCurve)
	want, err := RunLocal(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	var saturated atomic.Int32
	saturated.Store(3) // first three requests shed
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+ShardPath, func(w http.ResponseWriter, r *http.Request) {
		if saturated.Add(-1) >= 0 {
			serve.WriteJSONError(w, http.StatusTooManyRequests, "compute pool saturated", 2*time.Second)
			return
		}
		var spec ShardSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			serve.WriteJSONError(w, http.StatusBadRequest, err.Error(), 0)
			return
		}
		p, err := ExecuteShard(r.Context(), spec)
		if err != nil {
			serve.WriteJSONError(w, http.StatusInternalServerError, err.Error(), 0)
			return
		}
		json.NewEncoder(w).Encode(p)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var sleeps []time.Duration
	var quarantines atomic.Int32
	co, err := New([]string{srv.URL}, Options{
		Sleep: func(ctx context.Context, d time.Duration) error {
			sleeps = append(sleeps, d) // single worker, Inflight 1: no races
			return ctx.Err()
		},
		OnEvent: func(ev Event) {
			if ev.Kind == "quarantine" {
				quarantines.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := co.Run(nil, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("merged under saturation != local")
	}
	if stats.Backoffs429 != 3 {
		t.Fatalf("Backoffs429 = %d, want 3", stats.Backoffs429)
	}
	if stats.Requeues != 0 {
		t.Fatalf("429 counted as failure: Requeues = %d", stats.Requeues)
	}
	if n := quarantines.Load(); n != 0 {
		t.Fatalf("429 benched the worker %d times", n)
	}
	found := false
	for _, d := range sleeps {
		if d == 2*time.Second {
			found = true
		}
	}
	if !found {
		t.Fatalf("Retry-After not honored: slept %v", sleeps)
	}
}

// TestCoordinatorRejectsBadGridFast: a 400 from a worker is permanent — no
// retry storm, the run fails with the worker's message.
func TestCoordinatorRejectsBadGridFast(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		serve.WriteJSONError(w, http.StatusBadRequest, "no such topology", 0)
	}))
	defer srv.Close()
	co, err := New([]string{srv.URL}, Options{Sleep: instant})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = co.Run(nil, testGrid(KindCurve), 3)
	if err == nil {
		t.Fatal("want error")
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("retried a permanent rejection %d times", n)
	}
}

// TestCoordinatorResume: a journaled run killed partway resumes without
// recomputing finished shards, and the final merge is byte-identical.
func TestCoordinatorResume(t *testing.T) {
	g := testGrid(KindCurve)
	want, err := RunLocal(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "checkpoint.jsonl")

	// First run: cancel after two shards complete.
	w, err := StartStubWorker("w", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var completed atomic.Int32
	co, err := New([]string{w.URL()}, Options{
		JournalPath: journal,
		Sleep:       instant,
		OnEvent: func(ev Event) {
			if ev.Kind == "complete" && completed.Add(1) == 2 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err = co.Run(ctx, g, 7); err == nil {
		t.Fatal("cancelled run should error")
	}

	// Second run resumes: at least the journaled shards must not redispatch.
	co2, err := New([]string{w.URL()}, Options{
		JournalPath: journal,
		Resume:      true,
		Sleep:       instant,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := co2.Run(nil, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed < 2 {
		t.Fatalf("resumed %d shards, want >= 2", stats.Resumed)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed merge != local")
	}

	// Third run: everything is journaled now; no dispatch at all, and the
	// merge still matches even with no live workers.
	co3, err := New([]string{"http://127.0.0.1:1"}, Options{
		JournalPath: journal,
		Resume:      true,
		Sleep:       instant,
	})
	if err != nil {
		t.Fatal(err)
	}
	got3, stats3, err := co3.Run(nil, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	if stats3.Resumed != stats3.Planned || stats3.Attempts != 0 {
		t.Fatalf("full resume dispatched: %+v", stats3)
	}
	if !reflect.DeepEqual(got3, want) {
		t.Fatal("fully-resumed merge != local")
	}
}

// TestResumeReadsFencedJournal: journals written while coordinators fenced
// their journals still resume. Fence records carry no grid key and are
// skipped as foreign lines; the epoch stamped on each shard line is ignored,
// even on a line stamped below a later fence, because a partial is a
// deterministic function of its grid key and block whichever coordinator
// wrote it.
func TestResumeReadsFencedJournal(t *testing.T) {
	g := testGrid(KindCurve)
	want, err := RunLocal(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	shardLine := func(epoch int64, spec ShardSpec) string {
		p, err := ExecuteShard(nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(struct {
			Epoch int64 `json:"epoch"`
			*Partial
		}{epoch, p})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	fixture := strings.Join([]string{
		`{"fence_epoch":1,"fence_owner":"coordinator"}`,
		shardLine(1, plan[0]),
		`{"fence_epoch":2,"fence_owner":"coordinator"}`,
		shardLine(2, plan[1]),
		shardLine(1, plan[2]), // stamped below the epoch-2 fence above it
	}, "\n") + "\n"
	journal := filepath.Join(t.TempDir(), "checkpoint.jsonl")
	if err := os.WriteFile(journal, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}

	co, err := New([]string{"http://127.0.0.1:1"}, Options{
		JournalPath: journal,
		Resume:      true,
		Retries:     1,
		Sleep:       instant,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := co.Run(nil, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != stats.Planned || stats.Planned != 3 || stats.JournalSkipped != 0 || stats.Attempts != 0 {
		t.Fatalf("fenced journal not fully resumed: %+v", stats)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("merge resumed from a fenced journal != local")
	}
}

// TestCoordinatorFailsAfterRetryBudget: a worker that always 500s exhausts
// the shard's retry budget and the run fails rather than spinning.
func TestCoordinatorFailsAfterRetryBudget(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		serve.WriteJSONError(w, http.StatusInternalServerError, "boom", 0)
	}))
	defer srv.Close()
	co, err := New([]string{srv.URL}, Options{Retries: 2, Backoff: time.Nanosecond, Sleep: instant})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = co.Run(nil, testGrid(KindCurve), 1)
	if err == nil {
		t.Fatal("want error")
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("hit worker %d times, want 3 (1 + 2 retries)", n)
	}
}

func TestGridValidate(t *testing.T) {
	cases := []func(*Grid){
		func(g *Grid) { g.Kind = "nope" },
		func(g *Grid) { g.Topology = "nope" },
		func(g *Grid) { g.Scale = 0 },
		func(g *Grid) { g.Sizes = nil },
		func(g *Grid) { g.Protocol.NSource = 0 },
		func(g *Grid) { g.LargeGraph = true },
		func(g *Grid) { g.Protocol.Nested = true },
	}
	for i, mut := range cases {
		g := testGrid(KindCurve)
		mut(&g)
		if err := g.Validate(); err == nil {
			t.Fatalf("case %d: want error", i)
		}
	}
	g := testGrid(KindEnsemble)
	g.NNetworks = 0
	if err := g.Validate(); err == nil {
		t.Fatal("ensemble without NNetworks: want error")
	}
	if k1, k2 := testGrid(KindCurve).Key(), testGrid(KindShared).Key(); k1 == k2 {
		t.Fatal("distinct grids share a key")
	}
}
