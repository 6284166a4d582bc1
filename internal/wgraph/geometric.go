package wgraph

import (
	"context"
	"fmt"
	"math"

	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
	"mtreescale/internal/rng"
)

// GeoGraph is a graph whose nodes have plane coordinates and whose links
// are weighted by Euclidean length — the setting in which the paper's
// footnote 3 simplification (hop counts) can be tested against true
// length-weighted costs.
type GeoGraph struct {
	*WGraph
	X, Y []float64
}

// WaxmanGeo generates a Waxman graph on the unit square and weights every
// link by its Euclidean length. The giant component is returned.
func WaxmanGeo(n int, alpha, beta float64, seed int64) (*GeoGraph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wgraph: WaxmanGeo needs n > 0, got %d", n)
	}
	if alpha < 0 || alpha > 1 || beta <= 0 {
		return nil, fmt.Errorf("wgraph: WaxmanGeo needs alpha in [0,1], beta > 0 (got %v, %v)", alpha, beta)
	}
	r := rng.New(seed)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	lmax := math.Sqrt2
	b := graph.NewBuilder(n)
	b.SetName(fmt.Sprintf("waxman-geo-%d", n))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			d := math.Hypot(xs[u]-xs[v], ys[u]-ys[v])
			if r.Float64() < alpha*math.Exp(-d/(beta*lmax)) {
				_ = b.AddEdge(u, v)
			}
		}
	}
	g, oldIDs := b.Build().GiantComponent()
	gx := make([]float64, g.N())
	gy := make([]float64, g.N())
	for newID, oldID := range oldIDs {
		gx[newID] = xs[oldID]
		gy[newID] = ys[oldID]
	}
	wg, err := New(g, func(u, v int) float64 {
		return math.Hypot(gx[u]-gx[v], gy[u]-gy[v])
	})
	if err != nil {
		return nil, err
	}
	return &GeoGraph{WGraph: wg, X: gx, Y: gy}, nil
}

// WeightedPoint is one group size of a weighted-vs-hop comparison.
type WeightedPoint struct {
	Size int
	// MeanHopRatio is E[L/ū] counted in hops (the paper's quantity).
	MeanHopRatio float64
	// MeanCostRatio is E[cost(tree)/avg unicast cost] in Euclidean length.
	MeanCostRatio float64
	Samples       int
}

// MeasureWeightedCurve measures both the hop-count and the length-weighted
// normalized tree size on the same samples, drawing m distinct receivers
// per sample. Weighted trees use Dijkstra SPTs; hop trees use BFS SPTs.
func MeasureWeightedCurve(gg *GeoGraph, sizes []int, nSource, nRcvr int, seed int64) ([]WeightedPoint, error) {
	return MeasureWeightedCurveCtx(context.Background(), gg, sizes, nSource, nRcvr, seed)
}

// MeasureWeightedCurveCtx is MeasureWeightedCurve under a cancellation
// context, polled before each source and each group size: once ctx is done
// it abandons the sweep and returns ctx's error.
func MeasureWeightedCurveCtx(ctx context.Context, gg *GeoGraph, sizes []int, nSource, nRcvr int, seed int64) ([]WeightedPoint, error) {
	if nSource < 1 || nRcvr < 1 {
		return nil, fmt.Errorf("wgraph: need nSource, nRcvr >= 1 (got %d, %d)", nSource, nRcvr)
	}
	g := gg.G
	if g.N() < 2 {
		return nil, fmt.Errorf("wgraph: graph too small")
	}
	for _, s := range sizes {
		if s <= 0 || s > g.N()-1 {
			return nil, fmt.Errorf("wgraph: group size %d out of [1,%d]", s, g.N()-1)
		}
	}
	out := make([]WeightedPoint, len(sizes))
	for k := range out {
		out[k].Size = sizes[k]
	}
	srcRand := rng.NewChild(seed, -1)
	var bfs graph.SPT
	counter := mcast.NewTreeCounter(g.N())
	for si := 0; si < nSource; si++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		source := srcRand.Intn(g.N())
		if err := g.BFSInto(source, &bfs); err != nil {
			return nil, err
		}
		wspt, err := gg.Dijkstra(source)
		if err != nil {
			return nil, err
		}
		r := rng.NewChild(seed, int64(si))
		// Distinct sampling without the source.
		pop := make([]int32, 0, g.N()-1)
		for v := 0; v < g.N(); v++ {
			if v != source {
				pop = append(pop, int32(v))
			}
		}
		for k, size := range sizes {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for rep := 0; rep < nRcvr; rep++ {
				r.PermPrefix32(pop, size)
				recv := pop[:size]

				hops := counter.Measure(&bfs, recv)
				if hops.UnicastHops == 0 {
					continue
				}
				cost, _ := gg.TreeCost(wspt, recv)
				ucost, reach := gg.UnicastCost(wspt, recv)
				if reach == 0 || ucost == 0 {
					continue
				}
				out[k].MeanHopRatio += float64(hops.Links) / (float64(hops.UnicastHops) / float64(len(recv)))
				out[k].MeanCostRatio += cost / (ucost / float64(reach))
				out[k].Samples++
			}
		}
	}
	for k := range out {
		if out[k].Samples > 0 {
			out[k].MeanHopRatio /= float64(out[k].Samples)
			out[k].MeanCostRatio /= float64(out[k].Samples)
		}
	}
	return out, nil
}
