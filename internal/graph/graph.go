// Package graph implements the undirected-graph substrate used by the
// multicast-tree simulator: a compact immutable adjacency representation,
// breadth-first shortest paths, shortest-path trees, connected components,
// topology metrics and a plain-text edge-list interchange format.
//
// The paper needs one thing from this layer: the canonical hop-count
// shortest-path tree of each source, of which every delivery tree is a
// subtree (§2, footnote 1). Two traversal kernels produce it: the serial
// level-synchronous BFSInto (bfs.go) and the 64-lane multi-source BFS group
// behind BatchSPTs (msbfs.go). Both emit the same lowest-index-parent tree
// and read a neighbor list the one way the graph stores it,
// adj[offsets[v]:offsets[v+1]]. A measurement sweep gets its sources' trees
// from SweepSPTs (sweep.go), the one place that picks a kernel and the SPT
// cache for them. Earlier generations also carried a direction-optimizing
// single-source kernel, a degree-descending relabeled layout and a
// varint-compressed adjacency layout; they were removed because
// BFS is under 1% of a paper-scale curve run and the compressed layout saved
// at most 3% of a large curve's peak heap, and EXPERIMENTS.md keeps their
// measurements as history.
//
// Nodes are dense integers 0..N-1. All edges are unweighted and
// bidirectional; the paper ("All topologies were cleaned by removing
// duplicate edges and all remaining edges were then assumed to be
// bi-directional") counts hops only, never link weights. That cleaning step
// is Builder.Build (or BuildStreamed, stream.go, for graphs too large to
// hold an edge list). Neither sorts the whole edge list: both bucket edges
// into rows by counting, then sort and deduplicate each short row on its
// own, so a build costs about one pass over the edges.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is an immutable undirected graph in compressed-sparse-row form:
// the sorted neighbors of v are adj[offsets[v]:offsets[v+1]]. Build one with
// a Builder (or BuildStreamed for large graphs). The zero value is an empty
// graph.
type Graph struct {
	offsets []int32 // len N+1; degree of v is offsets[v+1]-offsets[v]
	adj     []int32
	name    string
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
//
// It sorts no edge list. A counting sort buckets each canonical edge (u<v)
// into u's forward row, and each short row is sorted and deduplicated on its
// own. The adjacency is then allocated at exactly 2·M, and both directions
// are scattered with u ascending, so every row comes out strictly ascending
// without a second sort: a row's smaller neighbors arrive, in order, before
// its own forward row is walked.
func (b *Builder) Build() *Graph {
	n := b.n
	// Count each forward row into start[u], take inclusive prefix sums (row
	// u ends at start[u]), then fill each row from its end, which leaves
	// start[u] at the row's first entry.
	start := make([]int32, n+1)
	for _, e := range b.edges {
		start[e[0]]++
	}
	for u := 1; u <= n; u++ {
		start[u] += start[u-1]
	}
	fwd := make([]int32, len(b.edges))
	for _, e := range b.edges {
		start[e[0]]--
		fwd[start[e[0]]] = e[1]
	}
	sortDedupRows(start, fwd)

	offsets := make([]int32, n+1)
	for u := 0; u < n; u++ {
		row := fwd[start[u]:start[u+1]]
		offsets[u+1] += int32(len(row))
		for _, w := range row {
			offsets[w+1]++
		}
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj := make([]int32, offsets[n])
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for u := 0; u < n; u++ {
		for _, w := range fwd[start[u]:start[u+1]] {
			adj[cursor[u]] = w
			cursor[u]++
			adj[cursor[w]] = int32(u)
			cursor[w]++
		}
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

// MemBytes estimates the heap footprint of the adjacency arrays (offsets
// and neighbors) — the accounting unit of the byte-budgeted caches.
func (g *Graph) MemBytes() int64 {
	return int64(cap(g.offsets)+cap(g.adj)) * 4
}

// WithName returns a shallow copy of g carrying the given name.
func (g *Graph) WithName(name string) *Graph {
	cp := *g
	cp.name = name
	return &cp
}

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// MaxDegree returns the graph's maximum degree, an O(N) scan.
func (g *Graph) MaxDegree() int {
	maxd := 0
	for v := 0; v < g.N(); v++ {
		maxd = max(maxd, g.Degree(v))
	}
	return maxd
}

// Neighbors returns the strictly ascending adjacency of v. The slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[g.offsets[v]:g.offsets[v+1]] }

// HasEdge reports whether the edge (u,v) exists, by binary search of u's
// sorted adjacency.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return false
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= int32(v) })
	return i < len(ns) && ns[i] == int32(v)
}

// Edges calls fn once per undirected edge with u < v, ascending u then v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
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
func (g *Graph) Validate() error {
	if len(g.offsets) == 0 || g.offsets[0] != 0 {
		return errors.New("graph: bad offsets header")
	}
	for v := 0; v < g.N(); v++ {
		ns := g.Neighbors(v)
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
