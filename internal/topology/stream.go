package topology

import (
	"fmt"
	"math"

	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
)

// This file implements streaming topology generation for large graphs: edge
// streams that graph.BuildStreamed replays twice (count pass,
// fill pass) so a 10M-node transit-stub or preferential-attachment graph
// never materializes an intermediate edge list. Each stream closure creates
// its RNG from the seed on every invocation, which is exactly the
// re-runnable determinism BuildStreamed requires.
//
// Two generator-side changes make the streams viable at 10M nodes where the
// Builder-based generators are not:
//
//   - GNP extras inside domains use geometric gap-skipping (draw the gap to
//     the next present edge from the geometric distribution) instead of a
//     Bernoulli trial per vertex pair, turning O(n²) per domain into
//     O(edges);
//   - the large transit-stub shape solver bounds stub-domain size and grows
//     the number of transit domains instead, so per-domain work stays small
//     while the hierarchy scales.

// TransitStubStream returns a re-runnable edge stream for a transit-stub
// topology with the given parameters. The emitted multiset of edges follows
// the same GT-ITM recipe as TransitStub (tree over transit domains + ring,
// scaffolded GNP inside every domain, stub anchor edges, extra shortcuts);
// the graph is connected by construction. The stream is deterministic in
// seed, so BuildStreamed can replay it.
//
// The edge sequence differs from what TransitStub feeds its Builder (the
// GNP extras are gap-skipped, consuming the RNG differently), so the two
// constructions agree in shape and degree law but are not the same graph
// instance for the same seed.
func TransitStubStream(p TransitStubParams, seed int64) (graph.EdgeStream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return func(emit func(u, v int32)) error {
		r := rng.New(seed)
		total := p.TotalNodes()
		transitCount := p.TransitDomains * p.TransitNodes
		transitID := func(domain, i int) int { return domain*p.TransitNodes + i }
		emitInt := func(u, v int) { emit(int32(u), int32(v)) }

		// 1. Inter-domain tree + redundancy ring (mirrors TransitStub).
		for d := 1; d < p.TransitDomains; d++ {
			other := r.Intn(d)
			emitInt(transitID(d, r.Intn(p.TransitNodes)), transitID(other, r.Intn(p.TransitNodes)))
		}
		if p.TransitDomains > 2 {
			for d := 0; d < p.TransitDomains; d++ {
				e := (d + 1) % p.TransitDomains
				emitInt(transitID(d, r.Intn(p.TransitNodes)), transitID(e, r.Intn(p.TransitNodes)))
			}
		}

		// 2. Intra-transit-domain wiring.
		for d := 0; d < p.TransitDomains; d++ {
			base := d * p.TransitNodes
			streamConnectedSubgraph(emitInt, r, base, p.TransitNodes, p.TransitEdgeProb)
		}

		// 3. Stub domains with anchor edges.
		next := transitCount
		stubIndex := 0
		for t := 0; t < transitCount; t++ {
			for s := 0; s < p.StubsPerTransitNode; s++ {
				size := p.StubNodes
				if stubIndex < p.PaddedStubs {
					size++
				}
				base := next
				next += size
				stubIndex++
				streamConnectedSubgraph(emitInt, r, base, size, p.StubEdgeProb)
				emitInt(base+r.Intn(size), t)
			}
		}

		// 4. Extra shortcut edges.
		stubTotal := total - transitCount
		for i := 0; i < p.ExtraTransitStubEdges && stubTotal > 0; i++ {
			emitInt(r.Intn(transitCount), transitCount+r.Intn(stubTotal))
		}
		for i := 0; i < p.ExtraStubStubEdges && stubTotal > 1; i++ {
			u := transitCount + r.Intn(stubTotal)
			v := transitCount + r.Intn(stubTotal)
			if u != v {
				emitInt(u, v)
			}
		}
		return nil
	}, nil
}

// streamConnectedSubgraph emits a connected random subgraph over the
// contiguous node block [base, base+n): random recursive tree plus
// gap-skipped GNP(prob) extras.
func streamConnectedSubgraph(emit func(u, v int), r rng.Source, base, n int, prob float64) {
	for v := 1; v < n; v++ {
		emit(base+v, base+r.Intn(v))
	}
	if prob <= 0 || n < 3 {
		return
	}
	if prob >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				emit(base+u, base+v)
			}
		}
		return
	}
	// Geometric gap-skipping over the linearized upper-triangle pair index
	// space: expected work O(prob · n²) = O(emitted edges) instead of one
	// Bernoulli draw per pair.
	total := int64(n) * int64(n-1) / 2
	lnq := math.Log1p(-prob)
	pos := int64(-1)
	for {
		// Gap ~ Geometric(prob): floor(ln(U)/ln(1-p)) with U in (0,1].
		u := 1 - r.Float64()
		skip := int64(math.Log(u) / lnq)
		if skip < 0 {
			skip = 0
		}
		pos += 1 + skip
		if pos >= total {
			return
		}
		i, j := pairFromIndex(pos, n)
		emit(base+i, base+j)
	}
}

// LargeTransitStubParams solves for a transit-stub shape that hits exactly n
// nodes with approximately the requested average degree, keeping stub
// domains small (≤ maxStubNodes) so the per-domain generators stay O(domain
// edges) regardless of total size. Unlike TransitStubSized's fixed 4×4×3
// shape — whose stub domains grow linearly with n and blow up the O(n²)
// domain wiring — this grows the number of transit domains instead.
func LargeTransitStubParams(n int, avgDegree float64) (TransitStubParams, error) {
	const (
		transitNodes = 8
		stubsPerNode = 4
		maxStubNodes = 512
	)
	if n < 64 {
		return TransitStubParams{}, fmt.Errorf("topology: large transit-stub wants n >= 64, got %d", n)
	}
	p := TransitStubParams{
		TransitNodes:        transitNodes,
		StubsPerTransitNode: stubsPerNode,
		StubNodes:           maxStubNodes,
	}
	// Nodes per transit domain ≈ transitNodes · (1 + stubsPerNode·stubNodes).
	perDomain := transitNodes * (1 + stubsPerNode*p.StubNodes)
	p.TransitDomains = n / perDomain
	if p.TransitDomains < 1 {
		p.TransitDomains = 1 // small n: the stub re-solve below shrinks stubs instead
	}
	transit := p.TransitDomains * p.TransitNodes
	stubDomains := transit * p.StubsPerTransitNode
	p.StubNodes = (n - transit) / stubDomains
	if p.StubNodes < 1 {
		p.StubNodes = 1
	}
	if rem := n - p.TotalNodes(); rem > 0 && rem <= stubDomains {
		p.PaddedStubs = rem
	}
	if p.TotalNodes() != n {
		return TransitStubParams{}, fmt.Errorf("topology: cannot hit %d nodes exactly (shape gives %d)", n, p.TotalNodes())
	}
	// Degree budget: scaffold trees + ring + anchors ≈ n-1+TransitDomains;
	// split the remainder between intra-stub density and shortcut edges,
	// mirroring TransitStubSized.
	target := int64(math.Round(avgDegree * float64(n) / 2))
	baseline := int64(n) - 1 + int64(p.TransitDomains)
	extra := target - baseline
	if extra < 0 {
		extra = 0
	}
	p.TransitEdgeProb = 0.5
	pairs := float64(p.StubNodes) * float64(p.StubNodes-1) / 2
	p.StubEdgeProb = math.Min(1, float64(extra)/2/float64(stubDomains)/math.Max(1, pairs))
	p.ExtraTransitStubEdges = int(extra / 4)
	p.ExtraStubStubEdges = int(extra / 4)
	return p, nil
}

// TransitStubStreamed generates an n-node transit-stub graph through the
// streaming path: shape solved by LargeTransitStubParams, edges streamed
// straight into the CSR builder. The result is connected by construction and
// named "tsL<n>".
func TransitStubStreamed(n int, avgDegree float64, seed int64) (*graph.Graph, error) {
	p, err := LargeTransitStubParams(n, avgDegree)
	if err != nil {
		return nil, err
	}
	stream, err := TransitStubStream(p, seed)
	if err != nil {
		return nil, err
	}
	return graph.BuildStreamed(n, fmt.Sprintf("tsL%d", n), stream)
}

// PreferentialAttachmentStream returns a re-runnable edge stream for the
// Barabási–Albert process of PreferentialAttachment. The stream keeps the
// degree-proportional target array (8 B/node·edgesPerNode) but no edge
// list, and the growth process guarantees connectivity, so no
// giant-component pass is needed. Deterministic in seed.
func PreferentialAttachmentStream(n, edgesPerNode, extraShortcuts int, seed int64) (graph.EdgeStream, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: preferential attachment needs n >= 2, got %d", n)
	}
	if edgesPerNode < 1 {
		return nil, fmt.Errorf("topology: preferential attachment needs edgesPerNode >= 1, got %d", edgesPerNode)
	}
	if extraShortcuts < 0 {
		return nil, fmt.Errorf("topology: extraShortcuts must be >= 0")
	}
	return func(emit func(u, v int32)) error {
		r := rng.New(seed)
		seedSize := edgesPerNode + 1
		if seedSize > n {
			seedSize = n
		}
		targets := make([]int32, 0, 2*(n*edgesPerNode+seedSize))
		for u := 0; u < seedSize; u++ {
			for v := u + 1; v < seedSize; v++ {
				emit(int32(u), int32(v))
				targets = append(targets, int32(u), int32(v))
			}
		}
		chosen := make(map[int32]bool, edgesPerNode)
		picks := make([]int32, 0, edgesPerNode)
		for v := seedSize; v < n; v++ {
			clear(chosen)
			attempts := 0
			for len(chosen) < edgesPerNode && attempts < 50*edgesPerNode {
				attempts++
				t := targets[r.Intn(len(targets))]
				if int(t) == v || chosen[t] {
					continue
				}
				chosen[t] = true
			}
			if len(chosen) == 0 {
				// Degenerate corner (n == seedSize == 1 target): chain to the
				// previous node to preserve connectivity.
				emit(int32(v), int32(v-1))
				targets = append(targets, int32(v), int32(v-1))
				continue
			}
			// Sorted drain keeps the stream deterministic (see
			// PreferentialAttachment).
			picks = picks[:0]
			for t := range chosen {
				picks = append(picks, t)
			}
			sortInt32(picks)
			for _, t := range picks {
				emit(int32(v), t)
				targets = append(targets, int32(v), t)
			}
		}
		for i := 0; i < extraShortcuts; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				emit(int32(u), int32(v))
			}
		}
		return nil
	}, nil
}

// sortInt32 is an insertion sort for the tiny per-node pick lists (a handful
// of elements; slices.Sort's dispatch overhead dominates at this size).
func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// PreferentialAttachmentStreamed generates an n-node power-law graph through
// the streaming path, named "paL<n>".
func PreferentialAttachmentStreamed(n, edgesPerNode, extraShortcuts int, seed int64) (*graph.Graph, error) {
	stream, err := PreferentialAttachmentStream(n, edgesPerNode, extraShortcuts, seed)
	if err != nil {
		return nil, err
	}
	return graph.BuildStreamed(n, fmt.Sprintf("paL%d", n), stream)
}
