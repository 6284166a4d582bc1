// Package steiner implements the Kou-Markowsky-Berman (KMB) 2-approximation
// for Steiner trees on unweighted graphs. It is the cost-optimal baseline
// for multicast trees: the paper measures shortest-path (source-rooted)
// trees, which Wei-Estrin showed cost only slightly more than Steiner
// trees; this package lets the repository reproduce that comparison and
// test whether the Chuang-Sirbu exponent survives a near-optimal routing
// algorithm.
//
// KMB: (1) build the metric closure over the terminals, (2) take its
// minimum spanning tree, (3) expand MST edges into shortest paths, (4) take
// a spanning tree of the expanded subgraph, (5) prune non-terminal leaves.
// The result is within 2× (in fact 2−2/|Z|) of the optimal Steiner tree.
//
// The metric closure is the terminals' shortest-path trees, taken from a
// graph.SPTCache in one batched read (one lock hold for every lookup, the
// misses filled in 64-lane multi-source BFS groups), or, without a cache,
// computed in one pooled multi-source batch. Both give the canonical
// parents of graph.BFS, so a tree is a pure function of (graph, source,
// receivers) whichever source the closure came from. Prim's MST over the
// closure updates each unspanned terminal with a min and a select, which
// compile to conditional moves rather than branches.
package steiner

import (
	"fmt"
	"math"
	"slices"

	"mtreescale/internal/graph"
)

// MaxTerminals bounds the number of distinct terminals per tree; the metric
// closure holds one shortest-path tree (a distance and a parent row over
// every node) per terminal.
const MaxTerminals = 4096

// TreeSize returns the number of links in the KMB approximate Steiner tree
// spanning the source and all receivers. Duplicate receivers are fine. All
// terminals must be mutually reachable.
func TreeSize(g *graph.Graph, source int, receivers []int32) (int, error) {
	return NewSolver(g, nil).TreeSize(source, receivers)
}

// Edge is an undirected link with U < V.
type Edge struct{ U, V int32 }

// Tree returns the edge set of the KMB approximate Steiner tree spanning
// the source and all receivers, sorted by (U, V).
func Tree(g *graph.Graph, source int, receivers []int32) ([]Edge, error) {
	return NewSolver(g, nil).Tree(source, receivers)
}

// Solver computes KMB trees on one graph, keeping its scratch between
// calls. A Solver is not safe for concurrent use; solvers on different
// goroutines may share one SPT cache.
type Solver struct {
	g    *graph.Graph
	spts *graph.SPTCache

	// node is the per-node state of the current call. A node's terminal
	// mark counts only when it equals epoch, and its other fields only when
	// its union mark does, so starting a call is one increment rather than
	// a clear of every node.
	node  []nodeState
	epoch uint32

	terminals []int
	trees     []*graph.SPT // the cache's trees, indexed like terminals
	dist      [][]int32    // closure: terminal i's distance row
	parent    [][]int32    // closure: terminal i's canonical parent row
	cands     []candidate  // Prim's unspanned terminals, ascending idx
	keys      []uint64     // union edges, U<<32 | V, sorted and compacted
	nodes     []int32      // union nodes in first-touch order
	nbrs      []int32      // union adjacency, each node's run ascending
	order     []int32      // spanning-tree BFS order
}

// candidate is a terminal Prim's pass has not spanned yet: its node, its
// index in terminals, and its distance to the nearest spanned terminal and
// that terminal's index. bestDist is unsigned so that an Unreachable (−1)
// distance row entry, read as uint32, is never smaller.
type candidate struct {
	node     int32
	bestDist uint32
	bestFrom int32
	idx      int32
}

type nodeState struct {
	terminal uint32 // == epoch: a terminal of the current call
	union    uint32 // == epoch: on a union edge, and the fields below are set
	deg, end int32  // union neighbours are nbrs[end-deg : end]
	parent   int32  // spanning-tree parent, -1 until the BFS reaches the node
	keep     bool   // the node's spanning subtree holds a terminal
}

// NewSolver returns a solver for g. With spts non-nil the metric closure is
// read from that cache, filling it with the misses; with nil, every call
// computes its closure in one pooled multi-source batch.
func NewSolver(g *graph.Graph, spts *graph.SPTCache) *Solver {
	return &Solver{g: g, spts: spts, node: make([]nodeState, g.N())}
}

// TreeSize returns the number of links Tree would return, without building
// the edge list.
func (s *Solver) TreeSize(source int, receivers []int32) (int, error) {
	return s.solve(source, receivers)
}

// Tree returns the edge set of the KMB approximate Steiner tree spanning
// the source and all receivers, sorted by (U, V).
func (s *Solver) Tree(source int, receivers []int32) ([]Edge, error) {
	size, err := s.solve(source, receivers)
	if err != nil || size == 0 {
		return nil, err
	}
	// The kept tree edges are a subset of the sorted union keys, so emitting
	// them in key order needs no sort.
	out := make([]Edge, 0, size)
	for _, k := range s.keys {
		u, v := int32(k>>32), int32(uint32(k))
		if nu, nv := &s.node[u], &s.node[v]; nv.parent == u && nv.keep || nu.parent == v && nu.keep {
			out = append(out, Edge{u, v})
		}
	}
	return out, nil
}

// nextEpoch starts a call. On the wrap every mark is cleared: a mark left
// 2^32 calls ago would otherwise match again.
func (s *Solver) nextEpoch() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.node)
		s.epoch = 1
	}
}

// solve runs KMB and returns the tree's link count. The union keys and the
// node states stay valid for Tree until the next call.
func (s *Solver) solve(source int, receivers []int32) (int, error) {
	n := s.g.N()
	if source < 0 || source >= n {
		return 0, fmt.Errorf("steiner: source %d out of range [0,%d)", source, n)
	}
	s.nextEpoch()
	ep, node := s.epoch, s.node
	// Deduplicate terminals.
	node[source].terminal = ep
	s.terminals = append(s.terminals[:0], source)
	for _, r := range receivers {
		if r < 0 || int(r) >= n {
			return 0, fmt.Errorf("steiner: receiver %d out of range [0,%d)", r, n)
		}
		if node[r].terminal != ep {
			node[r].terminal = ep
			s.terminals = append(s.terminals, int(r))
		}
	}
	terms := s.terminals
	t := len(terms)
	if t > MaxTerminals {
		return 0, fmt.Errorf("steiner: %d terminals exceed limit %d", t, MaxTerminals)
	}
	if t == 1 {
		return 0, nil
	}

	// 1. Metric closure: every terminal's shortest-path tree. Rows from the
	// pooled batch are read only before this call returns it.
	s.dist = slices.Grow(s.dist[:0], t)[:t]
	s.parent = slices.Grow(s.parent[:0], t)[:t]
	if s.spts == nil {
		batch := graph.AcquireSPTBatch()
		defer graph.ReleaseSPTBatch(batch)
		if err := s.g.BatchSPTsInto(terms, batch); err != nil {
			return 0, err
		}
		for i := range terms {
			s.dist[i], s.parent[i] = batch.DistRow(i), batch.ParentRow(i)
		}
	} else {
		trees, err := s.spts.GetBatch(s.g, terms, s.trees)
		if err != nil {
			return 0, err
		}
		s.trees = trees
		for i, spt := range trees {
			s.dist[i], s.parent[i] = spt.Dist, spt.Parent
		}
	}
	for i := 1; i < t; i++ {
		if s.dist[i][source] == graph.Unreachable {
			return 0, fmt.Errorf("steiner: terminal %d unreachable from source", terms[i])
		}
	}

	// 2. Prim's MST over the terminal closure (O(t²)). One relax pass per
	// spanned terminal folds its distance row into the unspanned candidates
	// and picks the nearest. The candidates stay in ascending index and the
	// pick moves only on a strictly smaller distance, so a tie goes to the
	// lowest index. 3. Each MST edge is expanded into its shortest path in
	// the tree of the terminal already spanned, collecting the edge union.
	cands := s.cands[:0]
	for i := 1; i < t; i++ {
		cands = append(cands, candidate{node: int32(terms[i]), bestDist: math.MaxUint32, idx: int32(i)})
	}
	keys := s.keys[:0]
	for next := int32(0); len(cands) > 0; {
		pick, best := relax(cands, s.dist[next], next)
		if best == math.MaxUint32 {
			return 0, fmt.Errorf("steiner: terminals not mutually reachable")
		}
		c := cands[pick]
		par, root := s.parent[c.bestFrom], int32(terms[c.bestFrom])
		for v := c.node; v != root; {
			p := par[v]
			keys = append(keys, edgeKey(v, p))
			v = p
		}
		next = c.idx
		cands = append(cands[:pick], cands[pick+1:]...)
	}
	s.cands = cands
	slices.Sort(keys)
	keys = slices.Compact(keys)
	s.keys = keys

	// 4. Spanning tree of the union: BFS from the source, neighbours in
	// ascending order. Filling the adjacency from the sorted keys leaves
	// every node's run ascending: its lower neighbours arrive first, from
	// keys (u, v) in ascending u, then its higher ones in ascending v.
	s.nodes = s.nodes[:0]
	for _, k := range keys {
		for _, x := range [2]int32{int32(k >> 32), int32(uint32(k))} {
			if node[x].union != ep {
				node[x] = nodeState{terminal: node[x].terminal, union: ep, parent: -1}
				s.nodes = append(s.nodes, x)
			}
			node[x].deg++
		}
	}
	sum := int32(0)
	for _, x := range s.nodes {
		node[x].end = sum
		sum += node[x].deg
	}
	nbrs := slices.Grow(s.nbrs[:0], int(sum))[:sum]
	s.nbrs = nbrs
	for _, k := range keys {
		u, v := int32(k>>32), int32(uint32(k))
		nbrs[node[u].end] = v
		node[u].end++
		nbrs[node[v].end] = u
		node[v].end++
	}
	order := append(s.order[:0], int32(source))
	node[source].parent = int32(source)
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, w := range nbrs[node[u].end-node[u].deg : node[u].end] {
			if node[w].parent == -1 {
				node[w].parent = u
				order = append(order, w)
			}
		}
	}
	s.order = order

	// 5. Prune non-terminal leaves until none is left: a node stays exactly
	// when its spanning subtree holds a terminal, which one pass in reverse
	// BFS order (children before parents) decides.
	size := 0
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		if node[v].keep || node[v].terminal == ep {
			node[v].keep = true
			node[node[v].parent].keep = true
			size++
		}
	}
	return size, nil
}

// relax folds row, the distance row of the spanned terminal next, into the
// candidates and returns the position of the nearest one and its distance.
// A candidate's update is a min and a select, which compile to conditional
// moves.
func relax(cands []candidate, row []int32, next int32) (pick int, best uint32) {
	best = math.MaxUint32
	for j := range cands {
		c := &cands[j]
		d, from := c.bestDist, c.bestFrom
		if nd := uint32(row[c.node]); nd < d {
			d, from = nd, next
		}
		c.bestDist, c.bestFrom = d, from
		if d < best {
			pick, best = j, d
		}
	}
	return pick, best
}

// edgeKey packs the undirected edge {a, b} as U<<32 | V with U < V, so
// sorting keys sorts edges by (U, V).
func edgeKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// Validate checks that the edge list forms a tree spanning the source and
// every receiver using only edges of g. Tests and callers use it to audit
// Tree's output.
func Validate(g *graph.Graph, source int, receivers []int32, edges []Edge) error {
	adj := map[int32][]int32{}
	for _, e := range edges {
		if !g.HasEdge(int(e.U), int(e.V)) {
			return fmt.Errorf("steiner: edge (%d,%d) not in graph", e.U, e.V)
		}
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	// Connectivity from source over the edge set.
	visited := map[int32]bool{int32(source): true}
	stack := []int32{int32(source)}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[u] {
			if !visited[w] {
				visited[w] = true
				stack = append(stack, w)
			}
		}
	}
	for _, r := range receivers {
		if !visited[r] {
			return fmt.Errorf("steiner: receiver %d not spanned", r)
		}
	}
	// Tree check: |V| = |E| + 1 over touched nodes.
	nodes := map[int32]bool{}
	for _, e := range edges {
		nodes[e.U] = true
		nodes[e.V] = true
	}
	if len(edges) > 0 && len(nodes) != len(edges)+1 {
		return fmt.Errorf("steiner: %d nodes but %d edges — not a tree", len(nodes), len(edges))
	}
	return nil
}
