package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtreescale/internal/chaos"
	"mtreescale/internal/valid"
)

// TestPartialSealVerify pins the integrity contract: a sealed partial
// verifies, any payload mutation breaks the seal, and the failure is
// retryable (NOT a permanent parameter error).
func TestPartialSealVerify(t *testing.T) {
	plan, err := Plan(testGrid(KindCurve), 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ExecuteShard(nil, plan[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Sum == "" {
		t.Fatal("ExecuteShard returned an unsealed partial")
	}
	if err := p.VerifySum(); err != nil {
		t.Fatalf("fresh seal does not verify: %v", err)
	}
	// A single mutated float — the bit-flip that still parses — must break
	// the seal, and the error must take the retryable path.
	p.Curve.RatioSum[0] += 1e-9
	err = p.VerifySum()
	if err == nil {
		t.Fatal("mutated payload still verifies")
	}
	if valid.IsParam(err) {
		t.Fatal("checksum mismatch is a permanent error — it would fail-fast instead of requeue")
	}
	p.Curve.RatioSum[0] -= 1e-9
	if err := p.VerifySum(); err != nil {
		t.Fatalf("restored payload does not verify: %v", err)
	}
	// Unsealed partials fail at trust boundaries.
	p.Sum = ""
	if err := p.VerifySum(); err == nil {
		t.Fatal("unsealed partial verifies")
	}
	// The seal survives a JSON round trip (shortest-round-trip floats).
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Partial
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.VerifySum(); err != nil {
		t.Fatalf("seal broken by JSON round trip: %v", err)
	}
}

// TestCoordinatorIntegrityRequeuesCorruptPayload flips one bit in the first
// shard response on the wire; the coordinator must reject it (checksum or
// decode failure), requeue, and still merge byte-identically.
func TestCoordinatorIntegrityRequeuesCorruptPayload(t *testing.T) {
	g := testGrid(KindCurve)
	want, err := RunLocal(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.Parse("shard.payload=bitflip#1", 42)
	if err != nil {
		t.Fatal(err)
	}
	chaos.Enable(plan)
	defer chaos.Disable()

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
	if len(plan.Events()) == 0 {
		t.Fatal("bit flip never fired — test exercised nothing")
	}
	if stats.Requeues < 1 {
		t.Fatalf("corrupted payload was not requeued: %+v", stats)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("merged after payload corruption != local")
	}
}

// TestJournalResumeSkipsDamagedLines covers the resume trust boundary: a
// journal holding one good line, one line whose block falls outside the
// grid's axis, one whose payload no longer matches its seal, and one for a
// different grid. Only the good line resumes; the two damaged ones are
// counted and surfaced as journal-skip events; the foreign one is silently
// ignored.
func TestJournalResumeSkipsDamagedLines(t *testing.T) {
	g := testGrid(KindCurve)
	want, err := RunLocal(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	good, err := ExecuteShard(nil, plan[0])
	if err != nil {
		t.Fatal(err)
	}
	// Sealed, then silently mutated: the post-hoc corruption a flipped disk
	// bit produces.
	damaged, err := ExecuteShard(nil, plan[1])
	if err != nil {
		t.Fatal(err)
	}
	damaged.Curve.RatioSum[0] *= 1.0000001
	// Key matches, bounds don't: a journal written under a different plan
	// width against a larger grid, or a spliced record.
	stale, err := ExecuteShard(nil, plan[2])
	if err != nil {
		t.Fatal(err)
	}
	stale.Hi = g.Span() + 5
	stale.Seal() // even a valid seal must not save out-of-plan bounds
	foreign := &Partial{Key: "not-this-grid", Lo: 0, Hi: 1}

	journal := filepath.Join(t.TempDir(), "j.jsonl")
	f, err := os.Create(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Partial{good, damaged, stale, foreign} {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(append(b, '\n'))
	}
	f.Close()

	w, err := StartStubWorker("w", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var skips atomic.Int32
	co, err := New([]string{w.URL()}, Options{
		JournalPath: journal,
		Resume:      true,
		Sleep:       instant,
		OnEvent: func(ev Event) {
			if ev.Kind == "journal-skip" {
				if ev.Err == nil {
					t.Error("journal-skip event without its cause")
				}
				skips.Add(1)
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
	if stats.Resumed != 1 {
		t.Fatalf("resumed %d shards, want exactly the 1 intact line", stats.Resumed)
	}
	if stats.JournalSkipped != 2 || skips.Load() != 2 {
		t.Fatalf("JournalSkipped = %d (events %d), want 2: damaged seal + stale bounds, foreign line silent",
			stats.JournalSkipped, skips.Load())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("merge after damaged-journal resume != local")
	}
}

// TestHeartbeatEvictsDeadWorker: a worker answering 503 on /healthz is
// evicted by the synchronous opening probes and never receives a shard.
func TestHeartbeatEvictsDeadWorker(t *testing.T) {
	g := testGrid(KindCurve)
	want, err := RunLocal(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	alive, err := StartStubWorker("alive", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alive.Close()
	dead, err := StartStubWorker("dead", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	dead.SetHealthy(false)

	co, err := New([]string{alive.URL(), dead.URL()}, Options{
		Heartbeat:      5 * time.Millisecond,
		HeartbeatFails: 2,
		Sleep:          instant,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := co.Run(nil, g, 7)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evictions < 1 {
		t.Fatalf("unhealthy worker not evicted: %+v", stats)
	}
	if stats.PerWorker[dead.URL()] != 0 {
		t.Fatalf("evicted worker completed %d shards", stats.PerWorker[dead.URL()])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("merged with evicted worker != local")
	}
}

// TestHeartbeatReadmitsRecoveredWorker: an evicted worker whose /healthz
// recovers is re-admitted by a later probe round within the same run.
func TestHeartbeatReadmitsRecoveredWorker(t *testing.T) {
	g := testGrid(KindCurve)
	want, err := RunLocal(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := StartStubWorker("slow", 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	flappy, err := StartStubWorker("flappy", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer flappy.Close()
	flappy.SetHealthy(false)

	var readmits atomic.Int32
	co, err := New([]string{slow.URL(), flappy.URL()}, Options{
		Heartbeat:      5 * time.Millisecond,
		HeartbeatFails: 2,
		Sleep:          instant,
		OnEvent: func(ev Event) {
			switch ev.Kind {
			case "evict":
				if ev.Worker == flappy.URL() {
					flappy.SetHealthy(true) // recover as soon as we're benched
				}
			case "readmit":
				readmits.Add(1)
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
	if stats.Evictions < 1 || stats.Readmissions < 1 || readmits.Load() < 1 {
		t.Fatalf("no evict/readmit cycle: %+v", stats)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("merged across a readmission != local")
	}
}

// TestSpeculationRescuesStraggler: one worker accepts shards and never
// answers. Without speculation the run would hang on its shard; with it, the
// shard races on the healthy worker, the straggler's eventual abort is
// dropped as stale, and the merge stays byte-identical. The healthy worker
// answers only once the straggler holds a shard: otherwise, on a loaded
// host, it could finish every shard before the straggler's slot dispatched
// one, and nothing would straggle.
func TestSpeculationRescuesStraggler(t *testing.T) {
	g := testGrid(KindCurve)
	want, err := RunLocal(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan struct{})
	var holding sync.Once
	straggler, err := StartStubWorker("straggler", 0, func(ctx context.Context, spec ShardSpec) (*Partial, error) {
		holding.Do(func() { close(held) })
		<-ctx.Done() // hold the shard until the coordinator hangs up
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer straggler.Close()
	healthy, err := StartStubWorker("healthy", 0, func(ctx context.Context, spec ShardSpec) (*Partial, error) {
		select {
		case <-held:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return ExecuteShard(ctx, spec)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	co, err := New([]string{straggler.URL(), healthy.URL()}, Options{
		SpecFactor: 2,
		SpecMin:    30 * time.Millisecond,
		Sleep:      instant,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := co.Run(nil, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Speculations < 1 {
		t.Fatalf("straggler never speculated: %+v", stats)
	}
	if stats.PerWorker[straggler.URL()] != 0 {
		t.Fatal("straggler somehow completed a shard")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("merged via speculation != local")
	}
}

// TestCoordinatorAuthToken: a token-gated worker rejects an unauthenticated
// coordinator permanently (fail-fast, no retry storm) and serves an
// authenticated one normally.
func TestCoordinatorAuthToken(t *testing.T) {
	g := testGrid(KindCurve)
	want, err := RunLocal(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	w, err := StartStubWorkerOpts(StubOptions{ID: "w", Token: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	noAuth, err := New([]string{w.URL()}, Options{Sleep: instant})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := noAuth.Run(nil, g, 3)
	if err == nil {
		t.Fatal("unauthenticated run succeeded against a token-gated worker")
	}
	if stats.Requeues != 0 {
		t.Fatalf("401 consumed retry budget: %+v", stats)
	}

	wrong, err := New([]string{w.URL()}, Options{Sleep: instant, Token: "s3cret-but-wrong"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := wrong.Run(nil, g, 3); err == nil {
		t.Fatal("wrong token accepted")
	}

	authed, err := New([]string{w.URL()}, Options{Sleep: instant, Token: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := authed.Run(nil, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("authenticated merge != local")
	}
}

// TestClusterChaosSoak is the in-process soak: three workers under a seeded
// multi-site fault schedule — injected 429s and 500s, a handler error, a
// corrupted payload, coordinator-side transport faults, a torn journal write
// — plus one worker killed outright mid-run, with heartbeats, speculation
// and a journal all on. The merged result must still be byte-identical to
// the single-process run. Runs under -race in the chaos-smoke target.
func TestClusterChaosSoak(t *testing.T) {
	g := testGrid(KindCurve)
	want, err := RunLocal(nil, g) // before chaos: the reference must be clean
	if err != nil {
		t.Fatal(err)
	}

	spec := "serve.handler.status=status:429#1;" +
		"serve.handler=error#2;" +
		"shard.payload=bitflip#1;" +
		"cluster.post=error@0.1#2;" +
		"journal.write=short#1"
	plan, err := chaos.Parse(spec, 1337)
	if err != nil {
		t.Fatal(err)
	}
	chaos.Enable(plan)
	defer chaos.Disable()

	var workers []*StubWorker
	var urls []string
	for _, id := range []string{"a", "b", "c"} {
		w, err := StartStubWorkerOpts(StubOptions{ID: id, Token: "soak"})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers = append(workers, w)
		urls = append(urls, w.URL())
	}

	journal := filepath.Join(t.TempDir(), "soak.jsonl")
	var killed atomic.Bool
	co, err := New(urls, Options{
		Token:          "soak",
		Retries:        10,
		JournalPath:    journal,
		Heartbeat:      10 * time.Millisecond,
		HeartbeatFails: 2,
		SpecFactor:     3,
		SpecMin:        50 * time.Millisecond,
		Sleep:          instant,
		OnEvent: func(ev Event) {
			if ev.Kind == "complete" && ev.Worker == urls[2] && killed.CompareAndSwap(false, true) {
				workers[2].Close()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := co.Run(nil, g, 7)
	if err != nil {
		t.Fatalf("soak run failed: %v (stats %+v)", err, stats)
	}
	if len(plan.Events()) == 0 {
		t.Fatal("no chaos fired — soak exercised nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("soak merge != local after %d injected faults", len(plan.Events()))
	}
	t.Logf("soak survived %d injected faults: %+v", len(plan.Events()), stats)
}

// newSlowHealthzServer serves a real /shard but answers /healthz only
// after delay — the kind of worker HeartbeatTimeout exists to classify.
func newSlowHealthzServer(t *testing.T, delay time.Duration) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+HealthzPath, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		}
		w.Write([]byte(`{"ok":true}` + "\n"))
	})
	mux.HandleFunc("POST "+ShardPath, func(w http.ResponseWriter, r *http.Request) {
		var spec ShardSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p, err := ExecuteShard(r.Context(), spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(p)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestMembershipHeartbeatTimeout: a worker whose /healthz answers slowly is
// evicted under a short HeartbeatTimeout and kept under a generous one —
// the probe deadline is policy, not a constant.
func TestMembershipHeartbeatTimeout(t *testing.T) {
	g := testGrid(KindCurve)
	want, err := RunLocal(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	// A stub whose healthz sleeps 60ms before answering 200.
	slow := newSlowHealthzServer(t, 60*time.Millisecond)
	fast, err := StartStubWorker("fast", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()

	run := func(timeout time.Duration) *Stats {
		co, err := New([]string{slow, fast.URL()}, Options{
			Heartbeat:        5 * time.Millisecond,
			HeartbeatFails:   1,
			HeartbeatTimeout: timeout,
			Sleep:            instant,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := co.Run(nil, g, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("merged != local")
		}
		return stats
	}

	impatient := run(25 * time.Millisecond)
	if impatient.Evictions < 1 || impatient.PerWorker[slow] != 0 {
		t.Fatalf("slow-healthz worker not evicted under a 25ms probe deadline: %+v", impatient)
	}
	patient := run(2 * time.Second)
	if patient.Evictions != 0 {
		t.Fatalf("slow-healthz worker evicted under a 2s probe deadline: %+v", patient)
	}
}

// TestMembershipSpeculationSkipsEvicted is the regression test for
// speculative re-execution against a dead fleet: with the only alternative
// worker evicted, the speculator must hold the shard's single backup copy
// (not burn it against an evicted target), then spend it when the worker is
// readmitted. Before the fix the budget was consumed while skipping, so the
// straggler's shard could never be rescued and the run hung.
func TestMembershipSpeculationSkipsEvicted(t *testing.T) {
	g := testGrid(KindCurve)
	want, err := RunLocal(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	straggler, err := StartStubWorker("straggler", 0, func(ctx context.Context, spec ShardSpec) (*Partial, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer straggler.Close()
	alt, err := StartStubWorker("alt", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alt.Close()
	alt.SetHealthy(false) // evicted by the opening probe round

	var evicted sync.Once
	co, err := New([]string{straggler.URL(), alt.URL()}, Options{
		Heartbeat:      5 * time.Millisecond,
		HeartbeatFails: 1,
		SpecFactor:     2,
		SpecMin:        20 * time.Millisecond,
		Sleep:          instant,
		OnEvent: func(ev Event) {
			if ev.Kind == "evict" && ev.Worker == alt.URL() {
				evicted.Do(func() {
					// Recover only after the speculator has had time to
					// consider (and correctly skip) the alternative-less
					// straggler.
					time.AfterFunc(60*time.Millisecond, func() { alt.SetHealthy(true) })
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, stats, err := co.Run(ctx, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evictions < 1 || stats.Readmissions < 1 {
		t.Fatalf("no evict/readmit cycle: %+v", stats)
	}
	if stats.Speculations < 1 {
		t.Fatalf("straggler never rescued: %+v", stats)
	}
	if stats.PerWorker[straggler.URL()] != 0 {
		t.Fatal("straggler somehow completed a shard")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("merged via deferred speculation != local")
	}
}
