package mtreescale_test

// The benchmark harness: one Benchmark per paper table/figure (the
// regeneration entry points), plus end-to-end scaling benchmarks of the
// measurement engine itself. Each figure bench runs the full experiment at
// the quick profile; `go run ./cmd/mtsim -profile medium|paper` regenerates
// publication-scale data.
//
// Ablation benchmarks for the design choices listed in DESIGN.md §5 live
// next to the code they measure: internal/mcast and internal/affinity.

import (
	"testing"

	mtreescale "mtreescale"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	p := mtreescale.QuickProfile()
	for i := 0; i < b.N; i++ {
		res, err := mtreescale.RunExperiment(id, p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Figure == nil && len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// Table 1.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// Figure 1: Monte-Carlo normalized tree size vs the Chuang-Sirbu law.
func BenchmarkFig1a(b *testing.B) { benchExperiment(b, "fig1a") }
func BenchmarkFig1b(b *testing.B) { benchExperiment(b, "fig1b") }

// Figure 2: h(x) diagnostic.
func BenchmarkFig2a(b *testing.B) { benchExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B) { benchExperiment(b, "fig2b") }

// Figure 3: exact L̄(n)/n vs the asymptotic line, receivers at leaves.
func BenchmarkFig3a(b *testing.B) { benchExperiment(b, "fig3a") }
func BenchmarkFig3b(b *testing.B) { benchExperiment(b, "fig3b") }

// Figure 4: L(m) for k-ary trees vs m^0.8.
func BenchmarkFig4a(b *testing.B) { benchExperiment(b, "fig4a") }
func BenchmarkFig4b(b *testing.B) { benchExperiment(b, "fig4b") }

// Figure 5: receivers throughout the tree.
func BenchmarkFig5a(b *testing.B) { benchExperiment(b, "fig5a") }
func BenchmarkFig5b(b *testing.B) { benchExperiment(b, "fig5b") }

// Figure 6: Eq 30 curves from measured reachability.
func BenchmarkFig6a(b *testing.B) { benchExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B) { benchExperiment(b, "fig6b") }

// Figure 7: T(r) curves.
func BenchmarkFig7a(b *testing.B) { benchExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B) { benchExperiment(b, "fig7b") }

// Figure 8: synthetic reachability models.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// Figure 9: affinity MCMC sweeps.
func BenchmarkFig9a(b *testing.B) { benchExperiment(b, "fig9a") }
func BenchmarkFig9b(b *testing.B) { benchExperiment(b, "fig9b") }

// Extensions: shared trees, Steiner baseline, ensemble protocol.
func BenchmarkExtShared(b *testing.B)   { benchExperiment(b, "ext-shared") }
func BenchmarkExtSteiner(b *testing.B)  { benchExperiment(b, "ext-steiner") }
func BenchmarkExtEnsemble(b *testing.B) { benchExperiment(b, "ext-ensemble") }
func BenchmarkExtWeighted(b *testing.B) { benchExperiment(b, "ext-weighted") }
func BenchmarkExtAffinityGraph(b *testing.B) {
	benchExperiment(b, "ext-affinity-graph")
}

// BenchmarkSteinerTree measures one KMB construction (25 terminals, 1000
// nodes) — the per-sample cost of the near-optimal baseline.
func BenchmarkSteinerTree(b *testing.B) {
	g, err := mtreescale.TransitStubSized(1000, 3.6, 1)
	if err != nil {
		b.Fatal(err)
	}
	recv := make([]int32, 25)
	for i := range recv {
		recv[i] = int32(1 + i*37)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mtreescale.SteinerTreeSize(g, 0, recv); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine-scale benchmarks -------------------------------------------

// BenchmarkMeasureCurve benchmarks the §2 protocol end to end on one
// mid-size transit-stub network, at the default (medium) profile's grid
// density of 16 group sizes per curve.
func BenchmarkMeasureCurve(b *testing.B) {
	g, err := mtreescale.TransitStubSized(1000, 3.6, 1)
	if err != nil {
		b.Fatal(err)
	}
	sizes := mtreescale.LogSpacedSizes(500, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mtreescale.MeasureCurve(g, sizes, mtreescale.Distinct,
			mtreescale.Protocol{NSource: 10, NRcvr: 10, Seed: int64(i), BatchBFS: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureSharedCurve benchmarks the parallel shared-tree engine on
// the BenchmarkMeasureCurve workload: per-source core-rooted trees measured
// on every worker the host offers (Workers: 0).
func BenchmarkMeasureSharedCurve(b *testing.B) {
	g, err := mtreescale.TransitStubSized(1000, 3.6, 1)
	if err != nil {
		b.Fatal(err)
	}
	sizes := mtreescale.LogSpacedSizes(500, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mtreescale.MeasureSharedCurve(g, sizes, mtreescale.CoreRandom,
			mtreescale.Protocol{NSource: 10, NRcvr: 10, Seed: int64(i), BatchBFS: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureCurveCached benchmarks the BenchmarkMeasureCurve workload
// with the process-wide SPT cache enabled and a fixed seed, so every
// iteration past the first reuses the ten cached source trees — the steady
// state of a sweep that revisits one cached topology.
func BenchmarkMeasureCurveCached(b *testing.B) {
	g, err := mtreescale.TransitStubSized(1000, 3.6, 1)
	if err != nil {
		b.Fatal(err)
	}
	sizes := mtreescale.LogSpacedSizes(500, 16)
	mtreescale.ResetSPTCache()
	b.Cleanup(mtreescale.ResetSPTCache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mtreescale.MeasureCurve(g, sizes, mtreescale.Distinct,
			mtreescale.Protocol{NSource: 10, NRcvr: 10, Seed: 1, SPTCache: true, BatchBFS: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReachability benchmarks averaged S(r) measurement.
func BenchmarkReachability(b *testing.B) {
	g, err := mtreescale.TiersSized(5000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mtreescale.MeasureReachability(g, 20, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticCurve benchmarks a full exact Equation 4 curve of the
// size Figure 3 uses.
func BenchmarkAnalyticCurve(b *testing.B) {
	tr := mtreescale.AnalyticTree{K: 2, Depth: 17}
	M := tr.Leaves()
	for i := 0; i < b.N; i++ {
		for x := 1.0; x <= M; x *= 2 {
			if _, err := tr.LeafTreeSize(x); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAffinityChain benchmarks MCMC sweeps on the Figure 9(b) tree.
func BenchmarkAffinityChain(b *testing.B) {
	m, err := mtreescale.NewAffinityTreeModel(2, 12)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := mtreescale.EstimateAffinity(m, 100, 1, mtreescale.AffinityParams{
			BurnInSweeps: 10, SampleSweeps: 20, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyGeneration benchmarks the canonical standard topologies
// at quarter scale.
func BenchmarkTopologyGeneration(b *testing.B) {
	for _, name := range mtreescale.StandardTopologies() {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mtreescale.GenerateTopologySeeded(name, 0, 0.25); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
