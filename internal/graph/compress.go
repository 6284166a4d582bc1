package graph

import (
	"fmt"
	"math"
	"slices"
)

// This file implements the compressed-CSR layout behind the large-graph mode
// (ROADMAP: Internet-scale graphs): adjacency stored as varint deltas
// (adjcodec.go) in place of the flat int32 array, under the same vertex ids
// and the same offsets table. The traversal kernels read it through the one
// adjacency call both layouts share (Graph.adjInto), decoding each
// neighbor list into per-traversal scratch, so a compressed graph is
// observationally identical to its source — only MemBytes and traversal
// speed differ.
//
// An earlier generation also offered a degree-descending vertex relabeling
// on top of compression, with compressed copies of every kernel to traverse
// it. It cost 12 B/node, never shrank the paper's graphs and was slower on
// them (BENCH_6: BatchSPTs64Relabeled 108.7 ms vs 64.4 ms unrelabeled at
// 50k×64), so it was removed together with those copies.

// Compressed reports whether g stores its adjacency varint-delta encoded.
func (g *Graph) Compressed() bool { return g.cadj != nil }

// Compress returns a compressed copy of g: varint delta-encoded adjacency
// under the original vertex ids. Compressing an already-compressed graph
// returns it unchanged. The original graph is untouched; callers building
// large graphs should drop their reference to it after compressing,
// bringing peak RSS to roughly the uncompressed CSR plus the (smaller)
// compressed one.
func (g *Graph) Compress() (*Graph, error) {
	if g.cadj != nil {
		return g, nil
	}
	n := g.N()
	if n < 0 {
		n = 0
	}
	offsets := make([]int32, n+1)
	copy(offsets, g.offsets)
	coff := make([]uint32, n+1)
	// Seed capacity at ~1.25 B per directed entry; append growth covers the
	// rest.
	cadj := make([]byte, 0, len(g.adj)+len(g.adj)/4)
	var maxDeg int32
	for v := 0; v < n; v++ {
		neigh := g.adj[g.offsets[v]:g.offsets[v+1]]
		maxDeg = max(maxDeg, int32(len(neigh)))
		cadj = appendAdj(cadj, int32(v), neigh)
		if len(cadj) > math.MaxUint32 {
			return nil, fmt.Errorf("graph: compressed adjacency exceeds 4 GiB (%d directed entries)", len(g.adj))
		}
		coff[v+1] = uint32(len(cadj))
	}
	return &Graph{
		offsets: offsets,
		name:    g.name,
		cadj:    slices.Clip(cadj),
		coff:    coff,
		maxDeg:  maxDeg,
	}, nil
}

// MaxDegree returns the graph's maximum degree. For compressed graphs it is
// precomputed (kernels size their decode scratch with it); for flat graphs
// it is an O(N) scan.
func (g *Graph) MaxDegree() int {
	if g.cadj != nil {
		return int(g.maxDeg)
	}
	maxd := 0
	for v := 0; v < g.N(); v++ {
		maxd = max(maxd, g.Degree(v))
	}
	return maxd
}
