package topology

import (
	"fmt"
	"math"

	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
)

// TransitStubParams parametrizes the GT-ITM style transit-stub generator
// (Calvert, Doar, Zegura [1 in the paper]). The topology has a two-level
// hierarchy: a connected set of transit domains, each transit node anchoring
// several stub domains.
type TransitStubParams struct {
	// TransitDomains is the number of transit domains (>= 1).
	TransitDomains int
	// TransitNodes is the number of nodes per transit domain (>= 1).
	TransitNodes int
	// StubsPerTransitNode is the number of stub domains hanging off each
	// transit node (>= 0).
	StubsPerTransitNode int
	// StubNodes is the number of nodes per stub domain (>= 1).
	StubNodes int
	// TransitEdgeProb is the probability of an intra-transit-domain edge
	// beyond the spanning scaffold.
	TransitEdgeProb float64
	// StubEdgeProb is the probability of an intra-stub-domain edge beyond
	// the spanning scaffold.
	StubEdgeProb float64
	// ExtraTransitStubEdges adds this many random transit-to-stub shortcut
	// edges (GT-ITM's "ts" extra edges), raising average degree.
	ExtraTransitStubEdges int
	// ExtraStubStubEdges adds this many random stub-to-stub shortcut edges.
	ExtraStubStubEdges int
	// PaddedStubs gives the first PaddedStubs stub domains one extra node,
	// letting callers hit an exact total node count.
	PaddedStubs int
}

// Validate checks the parameter ranges.
func (p TransitStubParams) Validate() error {
	if p.TransitDomains < 1 || p.TransitNodes < 1 {
		return fmt.Errorf("topology: transit-stub needs >=1 transit domain and node (got %d, %d)", p.TransitDomains, p.TransitNodes)
	}
	if p.StubsPerTransitNode < 0 || p.StubNodes < 1 {
		return fmt.Errorf("topology: bad stub shape (%d stubs/node, %d nodes/stub)", p.StubsPerTransitNode, p.StubNodes)
	}
	if p.TransitEdgeProb < 0 || p.TransitEdgeProb > 1 || p.StubEdgeProb < 0 || p.StubEdgeProb > 1 {
		return fmt.Errorf("topology: edge probabilities must be in [0,1]")
	}
	if p.ExtraTransitStubEdges < 0 || p.ExtraStubStubEdges < 0 {
		return fmt.Errorf("topology: extra edge counts must be >= 0")
	}
	if p.PaddedStubs < 0 || p.PaddedStubs > p.TransitDomains*p.TransitNodes*p.StubsPerTransitNode {
		return fmt.Errorf("topology: PaddedStubs %d out of range", p.PaddedStubs)
	}
	return nil
}

// TotalNodes returns the node count the parameters produce.
func (p TransitStubParams) TotalNodes() int {
	transit := p.TransitDomains * p.TransitNodes
	return transit + transit*p.StubsPerTransitNode*p.StubNodes + p.PaddedStubs
}

// TransitStub generates a transit-stub topology. The construction follows
// GT-ITM's recipe: a connected random graph among transit domains, a
// connected random graph within each transit domain, a connected random
// graph within each stub domain, one edge from each stub domain to its
// anchor transit node, and optional extra shortcut edges. The result is
// connected by construction.
func TransitStub(p TransitStubParams, seed int64) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(seed)
	total := p.TotalNodes()
	b := graph.NewBuilder(total)
	b.SetName(fmt.Sprintf("ts%d", total))

	transitCount := p.TransitDomains * p.TransitNodes
	// Transit node ids: domain d occupies [d*TransitNodes, (d+1)*TransitNodes).
	transitID := func(domain, i int) int { return domain*p.TransitNodes + i }

	// 1. Connect domains: random tree over domains, realized by an edge
	// between random member nodes, plus one extra inter-domain edge per
	// domain pair adjacency in a ring for redundancy when >2 domains.
	for d := 1; d < p.TransitDomains; d++ {
		other := r.Intn(d)
		_ = b.AddEdge(transitID(d, r.Intn(p.TransitNodes)), transitID(other, r.Intn(p.TransitNodes)))
	}
	if p.TransitDomains > 2 {
		for d := 0; d < p.TransitDomains; d++ {
			e := (d + 1) % p.TransitDomains
			_ = b.AddEdge(transitID(d, r.Intn(p.TransitNodes)), transitID(e, r.Intn(p.TransitNodes)))
		}
	}

	// 2. Intra-transit-domain wiring: spanning scaffold + GNP extras.
	for d := 0; d < p.TransitDomains; d++ {
		connectedSubgraph(b, r, func(i int) int { return transitID(d, i) }, p.TransitNodes, p.TransitEdgeProb)
	}

	// 3. Stub domains. Stub s of transit node t occupies a contiguous block
	// after all transit nodes.
	next := transitCount
	stubIndex := 0
	for t := 0; t < transitCount; t++ {
		for s := 0; s < p.StubsPerTransitNode; s++ {
			size := p.StubNodes
			if stubIndex < p.PaddedStubs {
				size++ // absorb the node-count remainder
			}
			base := next
			next += size
			stubIndex++
			connectedSubgraph(b, r, func(i int) int { return base + i }, size, p.StubEdgeProb)
			// Anchor edge: stub gateway to its transit node.
			_ = b.AddEdge(base+r.Intn(size), t)
		}
	}

	// 4. Extra shortcut edges.
	stubTotal := total - transitCount
	for i := 0; i < p.ExtraTransitStubEdges && stubTotal > 0; i++ {
		_ = b.AddEdge(r.Intn(transitCount), transitCount+r.Intn(stubTotal))
	}
	for i := 0; i < p.ExtraStubStubEdges && stubTotal > 1; i++ {
		u := transitCount + r.Intn(stubTotal)
		v := transitCount + r.Intn(stubTotal)
		if u != v {
			_ = b.AddEdge(u, v)
		}
	}
	return b.Build(), nil
}

// connectedSubgraph wires nodes id(0..n-1) into a connected random subgraph:
// random recursive tree + GNP(p) extra edges.
func connectedSubgraph(b *graph.Builder, r rng.Source, id func(int) int, n int, p float64) {
	for v := 1; v < n; v++ {
		_ = b.AddEdge(id(v), id(r.Intn(v)))
	}
	if p <= 0 || n < 3 {
		return
	}
	// Small n inside domains: the O(n²) loop is fine.
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				_ = b.AddEdge(id(u), id(v))
			}
		}
	}
}

// TransitStubSized solves for parameters hitting exactly n nodes and
// approximately the requested average degree, mirroring the paper's ts1000
// (deg 3.6) and ts1008 (deg 7.5) topologies, and generates the graph, named
// "ts<n>". Its fixed shape (4 transit domains of 4 nodes, 3 stub domains per
// transit node) needs at least 16 transit nodes plus 48 one-node stubs.
func TransitStubSized(n int, avgDegree float64, seed int64) (*graph.Graph, error) {
	p := TransitStubParams{
		TransitDomains:      4,
		TransitNodes:        4,
		StubsPerTransitNode: 3,
	}
	transit := p.TransitDomains * p.TransitNodes
	stubDomains := transit * p.StubsPerTransitNode
	if minNodes := transit + stubDomains; n < minNodes {
		return nil, fmt.Errorf("topology: transit-stub wants n >= %d, got %d", minNodes, n)
	}
	p.StubNodes = (n - transit) / stubDomains
	p.PaddedStubs = n - p.TotalNodes() // < stubDomains: hit n exactly
	// Baseline edges: scaffold trees + anchors ≈ n-1; top up to the degree
	// target with stub-stub and transit-stub shortcuts plus intra-domain
	// density.
	target := int(math.Round(avgDegree * float64(n) / 2))
	baseline := n - 1 + p.TransitDomains // scaffold + ring
	extra := target - baseline
	if extra < 0 {
		extra = 0
	}
	p.TransitEdgeProb = 0.5
	p.StubEdgeProb = math.Min(1, float64(extra)/2/float64(stubDomains)/
		math.Max(1, float64(p.StubNodes*(p.StubNodes-1)/2)))
	p.ExtraTransitStubEdges = extra / 4
	p.ExtraStubStubEdges = extra / 4
	return TransitStub(p, seed)
}
