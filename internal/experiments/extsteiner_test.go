package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
	"mtreescale/internal/plot"
	"mtreescale/internal/rng"
	"mtreescale/internal/steiner"
	"mtreescale/internal/topology"
)

// serialSteinerMeans is ext-steiner's measurement loop as it ran before its
// cells fanned out: one (size, source) cell after another, a fresh sampler
// per cell, one solver, and float sums in sample order.
func serialSteinerMeans(ctx context.Context, g *graph.Graph, sizes []int, p Profile) (sptYs, kmbYs []float64, err error) {
	nSource := p.NSource/3 + 1
	nRcvr := p.NRcvr/3 + 1
	srcRand := rng.NewChild(p.Seed, -1)
	counter := mcast.NewTreeCounter(g.N())
	kmb := steiner.NewSolver(g, p.sptCache())
	for _, m := range sizes {
		var sptSum, kmbSum float64
		n := 0
		for si := 0; si < nSource; si++ {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			source := srcRand.Intn(g.N())
			get := g.BFS
			if p.SPTCache {
				get = func(s int) (*graph.SPT, error) { return graph.SharedSPTs.Get(g, s) }
			}
			spt, err := get(source)
			if err != nil {
				return nil, nil, err
			}
			smp, err := mcast.NewSampler(g.N(), source, rng.NewChild(p.Seed, int64(si*31+m)))
			if err != nil {
				return nil, nil, err
			}
			var recv []int32
			for rep := 0; rep < nRcvr; rep++ {
				recv, err = smp.Distinct(m, recv)
				if err != nil {
					return nil, nil, err
				}
				sptSum += float64(counter.TreeSize(spt, recv))
				k, err := kmb.TreeSize(source, recv)
				if err != nil {
					return nil, nil, err
				}
				kmbSum += float64(k)
				n++
			}
		}
		sptYs = append(sptYs, sptSum/float64(n))
		kmbYs = append(kmbYs, kmbSum/float64(n))
	}
	return sptYs, kmbYs, nil
}

// resultBytes renders a result's figure as CSV followed by its notes.
func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := plot.WriteCSV(&buf, res.Figure); err != nil {
		t.Fatal(err)
	}
	for _, note := range res.Notes {
		fmt.Fprintf(&buf, "%q\n", note)
	}
	return buf.Bytes()
}

// TestExtSteinerMatchesSerial: ext-steiner's fanned-out cells give the
// serial loop's output byte for byte, at one proc and at three, with the
// SPT cache on (prefilled, then read by every cell) and off (each KMB call
// computes its closure). Each run starts from an empty SPT cache.
func TestExtSteinerMatchesSerial(t *testing.T) {
	for _, cache := range []bool{true, false} {
		p := Quick()
		p.NSource, p.NRcvr = 14, 14 // 5 sources and 5 receiver sets per size
		p.SPTCache = cache
		g, err := topology.GenerateCachedOpt("ts1000", 0, p.Scale, p.LargeGraph)
		if err != nil {
			t.Fatal(err)
		}
		sizes := mcast.LogSpacedSizes(p.capSize(g.N()/2), p.GridPoints)
		graph.SharedSPTs.Clear()
		sptYs, kmbYs, err := serialSteinerMeans(context.Background(), g, sizes, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := steinerResult(g, sizes, sptYs, kmbYs)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 3} {
			graph.SharedSPTs.Clear()
			prev := runtime.GOMAXPROCS(procs)
			got, err := Run("ext-steiner", p)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("cache %v, GOMAXPROCS %d: %v", cache, procs, err)
			}
			if g, w := resultBytes(t, got), resultBytes(t, want); !bytes.Equal(g, w) {
				t.Fatalf("cache %v, GOMAXPROCS %d: output differs from the serial loop:\n%s\n---\n%s", cache, procs, g, w)
			}
		}
	}
}

// TestExtSteinerCancelMidRun cancels a paper-profile run at four procs soon
// after it starts. It returns context.Canceled, and every goroutine it
// started has exited by then.
func TestExtSteinerCancelMidRun(t *testing.T) {
	p := Paper()
	if _, err := topology.GenerateCachedOpt("ts1000", 0, p.Scale, p.LargeGraph); err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := time.AfterFunc(10*time.Millisecond, cancel)
	defer stop.Stop()
	_, err := RunCtx(ctx, "ext-steiner", p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The timer's goroutine may still be returning from cancel.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkExtSteiner runs ext-steiner in the shape of perfbench's steiner
// workload: ts1000 at half scale, 40 sources and 40 receiver sets (14 of
// each after ext-steiner's reduction), and cold topology and SPT caches
// each iteration, with the topology built untimed. Compare worker counts
// with -cpu 1,2.
func BenchmarkExtSteiner(b *testing.B) {
	p := Medium()
	p.Scale = 0.5
	p.NSource, p.NRcvr = 40, 40
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		topology.ResetCache()
		graph.SharedSPTs.Clear()
		if _, err := topology.GenerateCachedOpt("ts1000", 0, p.Scale, p.LargeGraph); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Run("ext-steiner", p); err != nil {
			b.Fatal(err)
		}
	}
}
