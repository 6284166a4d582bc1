package experiments

import (
	"context"
	"fmt"
	"math"

	"mtreescale/internal/core"
	"mtreescale/internal/mcast"
	"mtreescale/internal/plot"
	"mtreescale/internal/rng"
	"mtreescale/internal/topology"
)

func init() {
	mustRegister(&Runner{
		ID:          "fig1a",
		Title:       "Figure 1(a): ln(L/ū) vs ln m, generated topologies",
		Description: "Monte-Carlo §2 protocol on r100, ts1000, ts1008, ti5000; compares the normalized tree size against the m^0.8 law.",
		Run: func(ctx context.Context, p Profile) (*Result, error) {
			return runFig1(ctx, "fig1a", topology.GeneratedNames(), p)
		},
	})
	mustRegister(&Runner{
		ID:          "fig1b",
		Title:       "Figure 1(b): ln(L/ū) vs ln m, real topologies",
		Description: "Monte-Carlo §2 protocol on ARPA, MBone, Internet, AS substitutes; compares against the m^0.8 law.",
		Run: func(ctx context.Context, p Profile) (*Result, error) {
			return runFig1(ctx, "fig1b", topology.RealNames(), p)
		},
	})
}

func runFig1(ctx context.Context, id string, names []string, p Profile) (*Result, error) {
	graphs, err := buildTopologies(names, p)
	if err != nil {
		return nil, err
	}
	fig := &plot.Figure{
		ID:     id,
		Title:  "Normalized multicast tree size vs group size",
		XLabel: "m",
		YLabel: "L(m)/ū",
		XLog:   true,
		YLog:   true,
	}
	res := &Result{ID: id, Title: fig.Title, Figure: fig}
	maxM := 0
	for gi, g := range graphs {
		pop := p.capSize(g.N() - 1)
		sizes := mcast.LogSpacedSizes(pop, p.GridPoints)
		prot := mcast.Protocol{
			NSource: p.NSource, NRcvr: p.NRcvr,
			Seed:     rng.Split(p.Seed, int64(gi)),
			SPTCache: p.SPTCache,
			BatchBFS: p.BatchBFS,
		}
		pts, err := mcast.MeasureCurveCtx(ctx, g, sizes, mcast.Distinct, prot)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.Name(), err)
		}
		var xs, ys []float64
		for _, pt := range pts {
			xs = append(xs, float64(pt.Size))
			ys = append(ys, pt.MeanRatio)
		}
		if err := fig.AddXY(g.Name(), xs, ys); err != nil {
			return nil, err
		}
		if pop > maxM {
			maxM = pop
		}
		curve := core.FromPoints(pts)
		if fit, err := curve.FitChuangSirbu(); err == nil {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%s: fitted exponent %.3f (R²=%.3f), paper expects ≈0.8", g.Name(), fit.Exponent, fit.R2))
		}
	}
	// Reference m^0.8 line spanning the same m range.
	var rx, ry []float64
	for _, m := range mcast.LogSpacedSizes(maxM, p.GridPoints) {
		rx = append(rx, float64(m))
		ry = append(ry, float64(mPow08(m)))
	}
	if err := fig.AddXY("m^0.8", rx, ry); err != nil {
		return nil, err
	}
	return res, nil
}

func mPow08(m int) float64 {
	return math.Pow(float64(m), 0.8)
}
