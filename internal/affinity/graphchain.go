package affinity

import (
	"fmt"

	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
	"mtreescale/internal/valid"
)

// MaxGraphChainNodes bounds the all-pairs distance matrix a GraphChain will
// precompute (N² int16 entries).
const MaxGraphChainNodes = 4096

// GraphChain is the general-graph Metropolis sampler for W_α(β). It
// precomputes all-pairs shortest-path distances (the affinity weight needs
// arbitrary inter-receiver distances, not just source-rooted ones), keeps the
// pairwise-distance sum incrementally (O(n) per move), and measures delivery
// trees against the source's shortest-path tree on demand.
//
// The paper only simulates k-ary trees (Figure 9); this chain extends the
// same model to any connected graph, which the examples use to study
// affinity on realistic topologies.
type GraphChain struct {
	g      *graph.Graph
	source int
	beta   float64
	n      int
	rand   randSource

	dist      [][]int16 // dist[u][v]: all-pairs hop distances
	spt       *graph.SPT
	counter   *mcast.TreeCounter
	positions []int32
	// sumTo[i] = Σ_j d(r_i, r_j): per-receiver distance load.
	sumTo []int64
	// pairSum = Σ_{i<j} d(r_i, r_j).
	pairSum int64

	accepted, proposed int64
}

// NewGraphChain builds a chain of n receivers on g with the given source.
// The graph must be connected and have at most MaxGraphChainNodes nodes.
func NewGraphChain(g *graph.Graph, source, n int, beta float64, r randSource) (*GraphChain, error) {
	return NewGraphChainCached(g, source, n, beta, r, nil)
}

// NewGraphChainCached is NewGraphChain with the all-pairs BFS pass routed
// through an SPT cache (nil disables caching). The pass is the chain's
// dominant cost — N full-graph BFS runs — and an affinity sweep builds one
// chain per (β, n) point on the SAME graph, so a shared cache collapses the
// sweep's BFS work to a single pass. The pass reads its trees as sweeps of
// 64 sources, one MS-BFS traversal each when they are computed.
func NewGraphChainCached(g *graph.Graph, source, n int, beta float64, r randSource, spts *graph.SPTCache) (*GraphChain, error) {
	if g.N() < 2 {
		return nil, valid.Badf("affinity: graph too small (N=%d)", g.N())
	}
	if g.N() > MaxGraphChainNodes {
		return nil, valid.Badf("affinity: graph has %d nodes, above the %d all-pairs limit", g.N(), MaxGraphChainNodes)
	}
	if source < 0 || source >= g.N() {
		return nil, valid.Badf("affinity: source %d out of range", source)
	}
	if err := checkGroupSize(n); err != nil {
		return nil, err
	}
	if err := checkBeta(beta); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, valid.Badf("affinity: chain needs a random source")
	}
	c := &GraphChain{
		g:       g,
		source:  source,
		beta:    beta,
		n:       n,
		rand:    r,
		dist:    make([][]int16, g.N()),
		counter: mcast.NewTreeCounter(g.N()),
	}
	srcs := make([]int, 0, 64)
	var buf graph.SPT
	for base := 0; base < g.N(); base += 64 {
		srcs = srcs[:0]
		for v := base; v < base+64 && v < g.N(); v++ {
			srcs = append(srcs, v)
		}
		if err := c.fillRows(srcs, spts, &buf); err != nil {
			return nil, err
		}
	}
	// The chain keeps its source's tree, so the tree is the cache's or its
	// own, never a lane of a released slab.
	var err error
	if spts != nil {
		c.spt, err = spts.Get(g, source)
	} else {
		c.spt, err = g.BFS(source)
	}
	if err != nil {
		return nil, err
	}
	// Initial placement: uniform over non-source nodes.
	c.positions = make([]int32, n)
	for i := range c.positions {
		c.positions[i] = c.randomSite()
	}
	c.recomputeSums()
	return c, nil
}

// fillRows fills the distance rows of srcs, read as one sweep, checking
// that each reaches every node.
func (c *GraphChain) fillRows(srcs []int, spts *graph.SPTCache, buf *graph.SPT) error {
	trees, err := graph.SweepSPTs(c.g, srcs, spts)
	if err != nil {
		return err
	}
	defer trees.Release()
	for i, v := range srcs {
		spt, err := trees.Tree(i, buf)
		if err != nil {
			return err
		}
		row := make([]int16, c.g.N())
		reached := 0
		for u, d := range spt.Dist {
			if d != graph.Unreachable {
				reached++
			}
			row[u] = int16(d)
		}
		if reached != c.g.N() {
			return fmt.Errorf("affinity: graph not connected (source %d reaches %d of %d)", v, reached, c.g.N())
		}
		c.dist[v] = row
	}
	return nil
}

func (c *GraphChain) randomSite() int32 {
	v := c.rand.Intn(c.g.N() - 1)
	if v >= c.source {
		v++
	}
	return int32(v)
}

func (c *GraphChain) recomputeSums() {
	c.sumTo = make([]int64, c.n)
	c.pairSum = 0
	for i := 0; i < c.n; i++ {
		var s int64
		ri := c.positions[i]
		for j := 0; j < c.n; j++ {
			if j != i {
				s += int64(c.dist[ri][c.positions[j]])
			}
		}
		c.sumTo[i] = s
	}
	for _, s := range c.sumTo {
		c.pairSum += s
	}
	c.pairSum /= 2
}

// AvgPairDist returns d̂(α); 0 when n < 2.
func (c *GraphChain) AvgPairDist() float64 {
	if c.n < 2 {
		return 0
	}
	pairs := int64(c.n) * int64(c.n-1) / 2
	return float64(c.pairSum) / float64(pairs)
}

// TreeSize measures the delivery-tree size of the current configuration.
func (c *GraphChain) TreeSize() int {
	return c.counter.TreeSize(c.spt, c.positions)
}

// AcceptanceRate returns the fraction of accepted proposals.
func (c *GraphChain) AcceptanceRate() float64 {
	if c.proposed == 0 {
		return 1
	}
	return float64(c.accepted) / float64(c.proposed)
}

// Step proposes one receiver move with Metropolis acceptance.
func (c *GraphChain) Step() {
	c.proposed++
	i := c.rand.Intn(c.n)
	from := c.positions[i]
	to := c.randomSite()
	if to == from {
		c.accepted++
		return
	}
	// Δ(Σ_j d(r_i, r_j)) when moving receiver i. The rows and slices are
	// read into locals once; indexed through c, each would be loaded and
	// bounds-checked again for every receiver.
	pos, rowTo := c.positions, c.dist[to]
	var newSum int64
	for j, p := range pos {
		if j != i {
			newSum += int64(rowTo[p])
		}
	}
	delta := newSum - c.sumTo[i]
	if !accepts(c.rand, c.beta, delta, c.n) {
		return
	}
	c.accepted++
	// Update sums: every other receiver's load changes by d(to,·)−d(from,·).
	rowFrom, sumTo := c.dist[from], c.sumTo[:len(pos)]
	for j, p := range pos {
		if j != i {
			sumTo[j] += int64(rowTo[p]) - int64(rowFrom[p])
		}
	}
	sumTo[i] = newSum
	c.pairSum += delta
	c.positions[i] = to
}

// Sweep performs n Steps.
func (c *GraphChain) Sweep() {
	for i := 0; i < c.n; i++ {
		c.Step()
	}
}

// CheckInvariants recomputes the distance bookkeeping from scratch.
func (c *GraphChain) CheckInvariants() error {
	oldPair := c.pairSum
	oldSum := append([]int64(nil), c.sumTo...)
	c.recomputeSums()
	if c.pairSum != oldPair {
		return fmt.Errorf("affinity: graph chain pairSum %d, recomputed %d", oldPair, c.pairSum)
	}
	for i := range oldSum {
		if oldSum[i] != c.sumTo[i] {
			return fmt.Errorf("affinity: graph chain sumTo[%d] %d, recomputed %d", i, oldSum[i], c.sumTo[i])
		}
	}
	return nil
}

// Positions returns a copy of the current placement.
func (c *GraphChain) Positions() []int32 {
	return append([]int32(nil), c.positions...)
}
