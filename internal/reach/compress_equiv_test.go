package reach

import (
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/topology"
)

// The compressed CSR layout must leave S(r) byte-identical: the same sources
// are drawn (layout never changes N), and the BFS distances are equal
// node-for-node, so every histogram count matches exactly — serial, cached,
// or through the MS-BFS slab.
func TestMeasureAveragedCompressedByteIdentical(t *testing.T) {
	g, err := topology.TransitStubSized(400, 3.6, 8)
	if err != nil {
		t.Fatal(err)
	}
	const nSources, seed = 25, 917
	want, err := MeasureAveragedBatch(g, nSources, seed, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := g.Compress()
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []bool{false, true} {
		for _, spts := range []*graph.SPTCache{nil, graph.NewSPTCache(1 << 30)} {
			got, err := MeasureAveragedBatch(cg, nSources, seed, spts, batch)
			if err != nil {
				t.Fatalf("batch=%v: %v", batch, err)
			}
			if len(got.S) != len(want.S) {
				t.Fatalf("batch=%v: %d radii, want %d", batch, len(got.S), len(want.S))
			}
			for d := range want.S {
				if got.S[d] != want.S[d] {
					t.Fatalf("batch=%v cache=%v: S(%d) = %v, want %v",
						batch, spts != nil, d, got.S[d], want.S[d])
				}
			}
		}
	}
}
