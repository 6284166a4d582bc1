// Package graph implements the undirected-graph substrate used by the
// multicast-tree simulator: a compact immutable adjacency representation,
// breadth-first shortest paths, shortest-path trees, connected components,
// topology metrics and a plain-text edge-list interchange format.
//
// The paper needs one thing from this layer: the canonical hop-count
// shortest-path tree of each source, of which every delivery tree is a
// subtree (§2, footnote 1). Two traversal kernels produce it: the serial
// level-synchronous BFSInto (bfs.go) and the 64-lane multi-source BFS group
// behind BatchSPTs (msbfs.go). Both emit the same lowest-index-parent tree,
// and both serve the flat and the compressed adjacency layout (compress.go)
// through one adjacency read, Graph.adjInto. Earlier generations also
// carried a direction-optimizing single-source kernel, a degree-descending
// relabeled layout and compressed copies of both kernels; they were removed
// because BFS is under 1% of a paper-scale curve run, and EXPERIMENTS.md
// keeps their measurements as history.
//
// Nodes are dense integers 0..N-1. All edges are unweighted and
// bidirectional; the paper ("All topologies were cleaned by removing
// duplicate edges and all remaining edges were then assumed to be
// bi-directional") counts hops only, never link weights.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is an immutable undirected graph in compressed-sparse-row form.
// Build one with a Builder (or BuildStreamed for large graphs). The zero
// value is an empty graph.
//
// A Graph has one of two adjacency layouts. The flat layout stores sorted
// int32 neighbor slices in adj. The compressed layout (see Compress) drops
// adj and stores varint delta-encoded neighbor bytes in cadj. Both keep the
// same vertex ids and the same offsets table, and every read of a neighbor
// list — public accessors and both traversal kernels alike — goes through
// adjInto, so the layout is invisible above this file.
type Graph struct {
	offsets []int32 // len N+1; degree of v is offsets[v+1]-offsets[v]
	adj     []int32 // flat layout: neighbors of v are adj[offsets[v]:offsets[v+1]]
	name    string

	// Compressed layout (nil in the flat layout). v's neighbors are
	// varint-decoded from cadj[coff[v]:coff[v+1]] (adjcodec.go).
	cadj []byte
	coff []uint32
	// maxDeg sizes the kernels' decode scratch (compressed layout only).
	maxDeg int32
}

// Builder accumulates edges for a Graph. Duplicate edges and self-loops are
// removed at Build time, mirroring the paper's topology cleaning step.
type Builder struct {
	n     int
	edges [][2]int32
	name  string
}

// NewBuilder returns a Builder for a graph with n nodes (0..n-1).
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n}
}

// SetName attaches a human-readable topology name (e.g. "ts1000").
func (b *Builder) SetName(name string) { b.name = name }

// N returns the number of nodes the builder was created with.
func (b *Builder) N() int { return b.n }

// AddEdge records an undirected edge between u and v. Out-of-range endpoints
// return an error; self-loops are silently dropped (they can never appear in
// a delivery tree). Duplicates are allowed here and removed by Build.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return nil
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
	return nil
}

// Grow extends the node range to at least n nodes.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// Build produces the immutable Graph. The builder may be reused afterwards.
func (b *Builder) Build() *Graph {
	// Deduplicate canonicalized edges.
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i][0] != b.edges[j][0] {
			return b.edges[i][0] < b.edges[j][0]
		}
		return b.edges[i][1] < b.edges[j][1]
	})
	uniq := b.edges[:0:len(b.edges)]
	var last [2]int32 = [2]int32{-1, -1}
	for _, e := range b.edges {
		if e != last {
			uniq = append(uniq, e)
			last = e
		}
	}

	deg := make([]int32, b.n)
	for _, e := range uniq {
		deg[e[0]]++
		deg[e[1]]++
	}
	offsets := make([]int32, b.n+1)
	for v := 0; v < b.n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]int32, offsets[b.n])
	cursor := make([]int32, b.n)
	copy(cursor, offsets[:b.n])
	for _, e := range uniq {
		adj[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		adj[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	return &Graph{offsets: offsets, adj: adj, name: b.name}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of (undirected) edges.
func (g *Graph) M() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return int(g.offsets[len(g.offsets)-1]) / 2
}

// Name returns the topology name, if any.
func (g *Graph) Name() string { return g.name }

// MemBytes estimates the heap footprint of the adjacency arrays — the
// accounting unit of the byte-budgeted caches. It covers both layouts:
// offsets and the flat adjacency for uncompressed graphs, offsets plus the
// encoded bytes and their byte offsets for compressed ones.
func (g *Graph) MemBytes() int64 {
	b := int64(cap(g.offsets)+cap(g.adj)) * 4
	b += int64(cap(g.cadj)) + int64(cap(g.coff))*4
	return b
}

// WithName returns a shallow copy of g carrying the given name.
func (g *Graph) WithName(name string) *Graph {
	cp := *g
	cp.name = name
	return &cp
}

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// adjInto returns v's strictly ascending neighbor list: a slice of the flat
// adjacency array, or v's encoded bytes decoded into *dec, which must have
// capacity >= Degree(v). It is the one adjacency read of the package: the
// serial and multi-source kernels call it with per-traversal scratch sized
// to MaxDegree, the public accessors below with a caller buffer. dec is a
// pointer so the per-node call in the kernels' hot loops carries one word
// rather than a three-word slice header.
func (g *Graph) adjInto(v int, dec *[]int32) []int32 {
	lo, hi := g.offsets[v], g.offsets[v+1]
	if g.cadj == nil {
		return g.adj[lo:hi]
	}
	return decodeAdjInto(g.cadj[g.coff[v]:g.coff[v+1]], int32(v), int(hi-lo), *dec)
}

// Neighbors returns the sorted adjacency of v. For flat graphs the slice
// aliases internal storage and must not be modified; for compressed graphs
// it is freshly decoded (and owned by the caller). Loops over many nodes
// should use NeighborsInto instead.
func (g *Graph) Neighbors(v int) []int32 { return g.NeighborsInto(v, nil) }

// NeighborsInto returns the sorted adjacency of v without allocating on the
// steady state: flat graphs return an alias of internal storage (buf is
// ignored and must not be written through), compressed graphs decode into
// buf, growing it only when cap(buf) is too small, and return the (possibly
// grown) buffer. Callers that keep the returned slice as their scratch for
// the next call amortize decode storage to zero allocations once the buffer
// has reached the graph's maximum degree.
func (g *Graph) NeighborsInto(v int, buf []int32) []int32 {
	if g.cadj != nil && cap(buf) < g.Degree(v) {
		buf = make([]int32, g.Degree(v))
	}
	return g.adjInto(v, &buf)
}

// HasEdge reports whether the edge (u,v) exists. Flat layout: binary search
// of the sorted adjacency. Compressed layout: an allocation-free streaming
// scan of u's encoded neighbor list.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return false
	}
	if g.cadj != nil {
		return scanAdjFor(g.cadj[g.coff[u]:g.coff[u+1]], int32(u), g.Degree(u), int32(v))
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= int32(v) })
	return i < len(ns) && ns[i] == int32(v)
}

// Edges calls fn once per undirected edge with u < v, ascending u then v —
// the same order in both layouts, so edge-list output is byte-identical
// regardless of compression.
func (g *Graph) Edges(fn func(u, v int)) {
	var buf []int32
	for u := 0; u < g.N(); u++ {
		buf = g.NeighborsInto(u, buf)
		for _, w := range buf {
			if int32(u) < w {
				fn(u, int(w))
			}
		}
	}
}

// AvgDegree returns 2M/N, the paper's Table 1 "average degree" column.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(g.N())
}

// Validate checks internal invariants (sorted adjacency, symmetric edges, no
// self-loops). It is used by tests and by topology generators in debug mode.
// Compressed graphs are validated through the decoded view, so the same
// invariants hold in both layouts.
func (g *Graph) Validate() error {
	if len(g.offsets) == 0 || g.offsets[0] != 0 {
		return errors.New("graph: bad offsets header")
	}
	var ns []int32
	for v := 0; v < g.N(); v++ {
		ns = g.NeighborsInto(v, ns)
		for i, w := range ns {
			if w < 0 || int(w) >= g.N() {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", v, w)
			}
			if int(w) == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && ns[i-1] >= w {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
			if !g.HasEdge(int(w), v) {
				return fmt.Errorf("graph: edge (%d,%d) not symmetric", v, w)
			}
		}
	}
	return nil
}

// String summarizes the graph.
func (g *Graph) String() string {
	name := g.name
	if name == "" {
		name = "graph"
	}
	return fmt.Sprintf("%s{N=%d M=%d degavg=%.2f}", name, g.N(), g.M(), g.AvgDegree())
}
