package mtreescale_test

// The large-graph benchmark suite: MS-BFS batch scaling at 1M/5M/10M nodes
// and the full S(r)/L(m) curve on a 10M-node streamed transit-stub. These
// take minutes each, so they are gated behind MTREESCALE_LARGE=1 and meant
// to run once per recorded point:
//
//	make bench-large          # records them into $(BENCH_JSON)
//	MTREESCALE_LARGE=1 go test -run '^$' -bench BenchmarkLarge -benchtime 1x .
//
// Ungated they skip, so `make bench-all` stays tractable. BENCH_6.json's
// large points were measured on the compressed adjacency layout, since
// removed; these now run on the one flat layout.

import (
	"fmt"
	"os"
	"testing"

	mtreescale "mtreescale"
)

func largeGraph(b *testing.B, n int) *mtreescale.Topology {
	b.Helper()
	if os.Getenv("MTREESCALE_LARGE") == "" {
		b.Skip("set MTREESCALE_LARGE=1 (or run `make bench-large`) to enable")
	}
	g, err := mtreescale.TransitStubStreamed(n, 4.0, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(g.MemBytes())/(1<<20), "graphMB")
	return g
}

// benchLargeBatch traverses 64 random sources through one MS-BFS batch — the
// kernel scaling ladder (wall clock should grow roughly linearly in edges).
func benchLargeBatch(b *testing.B, n int) {
	g := largeGraph(b, n)
	sources := make([]int, 64)
	r := int64(2)
	for i := range sources {
		// Cheap deterministic spread; the kernel cost is source-agnostic.
		r = r*6364136223846793005 + 1442695040888963407
		sources[i] = int(uint64(r) % uint64(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := mtreescale.BatchSPTs(g, sources)
		if err != nil {
			b.Fatal(err)
		}
		_ = batch
	}
}

func BenchmarkLargeBatchSPTs1M(b *testing.B)  { benchLargeBatch(b, 1_000_000) }
func BenchmarkLargeBatchSPTs5M(b *testing.B)  { benchLargeBatch(b, 5_000_000) }
func BenchmarkLargeBatchSPTs10M(b *testing.B) { benchLargeBatch(b, 10_000_000) }

// BenchmarkLargeCurve10M measures the full L(m)/ū normalized tree-size curve
// of the paper's §2 protocol on 10M nodes.
func BenchmarkLargeCurve10M(b *testing.B) {
	g := largeGraph(b, 10_000_000)
	sizes := mtreescale.LogSpacedSizes(1_000_000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := mtreescale.MeasureCurve(g, sizes, mtreescale.Distinct,
			mtreescale.Protocol{NSource: 4, NRcvr: 4, Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != len(sizes) || pts[len(pts)-1].MeanLinks <= 0 {
			b.Fatal(fmt.Errorf("degenerate curve %+v", pts))
		}
	}
}

// BenchmarkLargeReach10M measures S(r) averaged over 8 sources on 10M nodes
// — the §4 reachability histogram at Internet scale.
func BenchmarkLargeReach10M(b *testing.B) {
	g := largeGraph(b, 10_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rch, err := mtreescale.MeasureReachability(g, 8, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rch.S) == 0 {
			b.Fatal("empty S(r)")
		}
	}
}
