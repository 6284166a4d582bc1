package experiments

import (
	"context"
	"fmt"
	"math"

	"mtreescale/internal/plot"
	"mtreescale/internal/reach"
	"mtreescale/internal/rng"
	"mtreescale/internal/topology"
)

func init() {
	mustRegister(&Runner{
		ID:          "fig6a",
		Title:       "Figure 6(a): L̄(n)/(n·C̄) vs ln n, generated topologies",
		Description: "Equation 30 evaluated on the measured reachability functions of r100, ts1000, ts1008, ti5000; exponential-growth networks give straight lines.",
		Run: func(ctx context.Context, p Profile) (*Result, error) {
			return runFig6(ctx, "fig6a", topology.GeneratedNames(), p)
		},
	})
	mustRegister(&Runner{
		ID:          "fig6b",
		Title:       "Figure 6(b): L̄(n)/(n·C̄) vs ln n, real topologies",
		Description: "Equation 30 on ARPA, MBone, Internet, AS substitutes.",
		Run: func(ctx context.Context, p Profile) (*Result, error) {
			return runFig6(ctx, "fig6b", topology.RealNames(), p)
		},
	})
	mustRegister(&Runner{
		ID:          "fig7a",
		Title:       "Figure 7(a): ln T(r) vs r, generated topologies",
		Description: "Measured cumulative reachability; transit-stub and random are exponential before saturation, TIERS is concave (sub-exponential).",
		Run: func(ctx context.Context, p Profile) (*Result, error) {
			return runFig7(ctx, "fig7a", topology.GeneratedNames(), p)
		},
	})
	mustRegister(&Runner{
		ID:          "fig7b",
		Title:       "Figure 7(b): ln T(r) vs r, real topologies",
		Description: "Measured cumulative reachability of the real-map substitutes; Internet and AS exponential, ARPA and MBone concave.",
		Run: func(ctx context.Context, p Profile) (*Result, error) {
			return runFig7(ctx, "fig7b", topology.RealNames(), p)
		},
	})
}

func runFig6(ctx context.Context, id string, names []string, p Profile) (*Result, error) {
	graphs, err := buildTopologies(ctx, names, p)
	if err != nil {
		return nil, err
	}
	fig := &plot.Figure{
		ID:     id,
		Title:  "Per-receiver normalized tree size from reachability (Eq 30)",
		XLabel: "n",
		YLabel: "L̄(n)/(n·C̄)",
		XLog:   true,
	}
	res := &Result{ID: id, Title: fig.Title, Figure: fig}
	for gi, g := range graphs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := reach.MeasureAveragedCached(ctx, g, p.NSource, rng.Split(p.Seed, int64(gi)), p.sptCache())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.Name(), err)
		}
		cbar := r.AvgDist()
		if cbar <= 0 {
			return nil, fmt.Errorf("%s: degenerate reachability", g.Name())
		}
		maxN := p.capSize(4 * g.N())
		var xs, ys []float64
		for _, n := range xGrid(1, float64(maxN), p.GridPoints*2) {
			l, err := r.ExpectedTreeThroughout(n)
			if err != nil {
				return nil, err
			}
			xs = append(xs, n)
			ys = append(ys, l/(n*cbar))
		}
		if err := fig.AddXY(g.Name(), xs, ys); err != nil {
			return nil, err
		}
		// Linearity diagnostic in ln n over the interior (paper's visual
		// judgment): compare slopes of the two interior halves.
		q1, q2, q3 := len(xs)/4, len(xs)/2, 3*len(xs)/4
		s1 := (ys[q2] - ys[q1]) / (math.Log(xs[q2]) - math.Log(xs[q1]))
		s2 := (ys[q3] - ys[q2]) / (math.Log(xs[q3]) - math.Log(xs[q2]))
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: interior slopes %.4f / %.4f (ratio %.2f; 1.0 = perfectly linear in ln n)",
			g.Name(), s1, s2, s2/s1))
	}
	return res, nil
}

func runFig7(ctx context.Context, id string, names []string, p Profile) (*Result, error) {
	graphs, err := buildTopologies(ctx, names, p)
	if err != nil {
		return nil, err
	}
	fig := &plot.Figure{
		ID:     id,
		Title:  "Cumulative reachability T(r)",
		XLabel: "r",
		YLabel: "T(r)",
		YLog:   true,
	}
	res := &Result{ID: id, Title: fig.Title, Figure: fig}
	for gi, g := range graphs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := reach.MeasureAveragedCached(ctx, g, p.NSource, rng.Split(p.Seed, int64(gi)), p.sptCache())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.Name(), err)
		}
		rs, ts := r.TCurve()
		xs := make([]float64, len(rs))
		for i, rr := range rs {
			xs[i] = float64(rr)
		}
		if err := fig.AddXY(g.Name(), xs, ts); err != nil {
			return nil, err
		}
		cls, err := r.Classify(0.5)
		clsStr := "unclassifiable"
		if err == nil {
			clsStr = cls.String()
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%s: T(r) growth %s, depth %d", g.Name(), clsStr, r.Depth()))
	}
	return res, nil
}
