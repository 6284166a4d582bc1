package affinity

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mtreescale/internal/rng"
	"mtreescale/internal/valid"
)

// fig9Betas is Figure 9's β sweep.
var fig9Betas = []float64{-10, -1, -0.1, 0, 0.1, 1, 10}

// sweep9Serial is the reference Sweep9: every (β, n) chain in turn, β-major,
// on the calling goroutine.
func sweep9Serial(ctx context.Context, m *TreeModel, betas []float64, ns []int, p Params) ([][]Estimate, error) {
	out := make([][]Estimate, len(betas))
	for bi, beta := range betas {
		out[bi] = make([]Estimate, len(ns))
		for ni, n := range ns {
			q := p
			q.Seed = rng.Split(p.Seed, int64(bi*1000003+ni))
			est, err := EstimateTreeSize(ctx, m, n, beta, q)
			if err != nil {
				return nil, err
			}
			out[bi][ni] = est
		}
	}
	return out, nil
}

// withProcs runs f with GOMAXPROCS set to procs, restoring it afterwards.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestSweep9MatchesSerial: the pooled sweep must return exactly the
// serial sweep's estimates whatever the worker count. The grid repeats a
// size (so the largest-first order has ties) and runs past the site count
// (receivers share sites), and Thin > 1 exercises the thinned sampling
// loop.
func TestSweep9MatchesSerial(t *testing.T) {
	p := Params{BurnInSweeps: 4, SampleSweeps: 6, Thin: 3, Seed: 17}
	for _, shape := range []struct{ k, depth int }{{2, 5}, {3, 3}} {
		m, err := NewTreeModel(shape.k, shape.depth)
		if err != nil {
			t.Fatal(err)
		}
		ns := []int{1, 3, 3, 12, m.Sites(), m.Sites() + 9, 12}
		want, err := sweep9Serial(context.Background(), m, fig9Betas, ns, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 7} {
			var got [][]Estimate
			withProcs(procs, func() {
				got, err = Sweep9(context.Background(), m, fig9Betas, ns, p)
			})
			if err != nil {
				t.Fatalf("K=%d D=%d GOMAXPROCS=%d: %v", shape.k, shape.depth, procs, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("K=%d D=%d GOMAXPROCS=%d: pooled sweep differs from the serial one", shape.k, shape.depth, procs)
			}
		}
	}
}

// TestSweep9CancelMidSweepWorkers: cancelling a pooled sweep mid-run
// returns context.Canceled within a bounded latency, and every worker and
// chain goroutine exits.
func TestSweep9CancelMidSweepWorkers(t *testing.T) {
	m, err := NewTreeModel(2, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Uncancelled, this sweep runs for minutes.
	ns := []int{10000, 5000, 2000, 1000, 100, 10}
	p := Params{BurnInSweeps: 100, SampleSweeps: 10000, Seed: 3}
	baseline := runtime.NumGoroutine()
	withProcs(4, func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() {
			_, err := Sweep9(ctx, m, fig9Betas, ns, p)
			done <- err
		}()
		time.Sleep(50 * time.Millisecond)
		cancel()
		cancelled := time.Now()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if lag := time.Since(cancelled); lag > 5*time.Second {
				t.Fatalf("sweep returned %v after cancel", lag)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("sweep did not return after cancel")
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after the cancelled sweep, %d before", n, baseline)
	}
}

// TestSweep9ParamErrorBeforeCancelledChains: a bad Params, β or n is
// rejected with valid.ErrParam before any chain starts, with the same error
// at every worker count. The context is already cancelled, so a chain that
// did start would report context.Canceled instead; the bad value sits last
// in its grid, behind chains that a serial sweep would run first.
func TestSweep9ParamErrorBeforeCancelledChains(t *testing.T) {
	m, err := NewTreeModel(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ns := []int{1, 4, 16}
	good := Params{BurnInSweeps: 2, SampleSweeps: 2, Seed: 5}
	cases := []struct {
		name  string
		betas []float64
		ns    []int
		p     Params
	}{
		{"n=0", fig9Betas, append(append([]int{}, ns...), 0), good},
		{"NaN beta", append(append([]float64{}, fig9Betas...), math.NaN()), ns, good},
		{"negative thinning", fig9Betas, ns, Params{Thin: -2, Seed: 5}},
	}
	for _, c := range cases {
		var msgs []string
		for _, procs := range []int{1, 4} {
			withProcs(procs, func() {
				_, err = Sweep9(ctx, m, c.betas, c.ns, c.p)
			})
			if !valid.IsParam(err) {
				t.Fatalf("%s, GOMAXPROCS=%d: err = %v, want valid.ErrParam", c.name, procs, err)
			}
			msgs = append(msgs, err.Error())
		}
		if msgs[0] != msgs[1] {
			t.Fatalf("%s: error depends on the worker count: %q vs %q", c.name, msgs[0], msgs[1])
		}
	}
}
