package experiments

import (
	"context"
	"fmt"
	"math"

	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
	"mtreescale/internal/plot"
	"mtreescale/internal/stats"
	"mtreescale/internal/topology"
)

// The churn family drives the incremental delta-maintained tree engine
// (internal/mcast DynTree) with the Poisson join/leave workload and asks
// whether the Chuang-Sirbu L(m) ∝ m^0.8 law, measured by the paper over
// static snapshots, survives as a time average over a dynamic membership:
//
//   - churn-steady: steady-state time-averaged tree size L(m̄) against the
//     static snapshot curve at the same mean membership. By PASTA the two
//     should agree for exponential sessions; the figure shows both plus the
//     shared-tree and bounded-degree variants.
//   - churn-repair: the maintenance-cost side — links touched per
//     join/leave event and the degree pressure the bounded variant
//     (degree-capped grafting in the style of arXiv 0906.0379) trades it
//     against.
//
// Every run here is deterministic: the engine's only nondeterministic
// output (EventsPerSec, a wall-clock rate) is never consumed.

func init() {
	mustRegister(&Runner{
		ID:          "churn-steady",
		Title:       "Churn: steady-state L(m̄) under dynamic membership",
		Description: "Time-averaged delivery-tree size under Poisson join/leave for source, shared and degree-bounded trees, against the static-snapshot L(m) curve at the same mean membership.",
		Family:      "churn",
		Run:         runChurnSteady,
	})
	mustRegister(&Runner{
		ID:          "churn-repair",
		Title:       "Churn: repair cost and degree pressure per event",
		Description: "Mean links grafted/pruned per membership event for unbounded vs degree-capped trees, with the forced-graft and maximum-degree pressure the cap trades against.",
		Family:      "churn",
		Run:         runChurnRepair,
	})
}

// churnCommon resolves the shared pieces of both churn experiments: the
// standard ts1000 topology, the m̄ grid, the measurement protocol, and the
// profile's session-distribution and degree-cap knobs.
type churnCommon struct {
	g     *graph.Graph
	sizes []int
	dist  mcast.SessionDist
	prot  mcast.Protocol
	cap   int
}

func churnSetup(p Profile) (*churnCommon, error) {
	g, err := topology.GenerateCached("ts1000", 0, p.Scale)
	if err != nil {
		return nil, err
	}
	dist, err := mcast.ParseSessionDist(p.ChurnSession)
	if err != nil {
		return nil, err
	}
	// m̄ well below N keeps the steady state away from the saturated
	// all-nodes regime where every curve trivially flattens.
	maxM := p.capSize(g.N() / 4)
	if maxM < 2 {
		maxM = 2
	}
	return &churnCommon{
		g:     g,
		sizes: mcast.LogSpacedSizes(maxM, p.GridPoints),
		dist:  dist,
		prot: mcast.Protocol{
			NSource: p.NSource, NRcvr: p.NRcvr, Seed: p.Seed,
			SPTCache: p.SPTCache,
		},
		cap: p.ChurnCap,
	}, nil
}

func (c *churnCommon) config(variant mcast.ChurnVariant, m int) mcast.ChurnConfig {
	cfg := mcast.ChurnConfig{
		Variant:       variant,
		TargetMembers: m,
		Session:       c.dist,
	}
	if variant == mcast.ChurnBounded {
		cfg.DegreeCap = c.cap
	}
	if variant == mcast.ChurnShared {
		cfg.Core = mcast.CoreCenter
	}
	return cfg
}

// sweep runs one variant over the full m̄ grid and returns the per-point
// results, observing ctx between grid points.
func (c *churnCommon) sweep(ctx context.Context, variant mcast.ChurnVariant) ([]*mcast.ChurnResult, error) {
	out := make([]*mcast.ChurnResult, 0, len(c.sizes))
	for _, m := range c.sizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := mcast.MeasureChurnCtx(ctx, c.g, c.config(variant, m), c.prot)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

func runChurnSteady(ctx context.Context, p Profile) (*Result, error) {
	c, err := churnSetup(p)
	if err != nil {
		return nil, err
	}
	fig := &plot.Figure{
		ID:     "churn-steady",
		Title:  fmt.Sprintf("Steady-state tree size under churn on %s (%s sessions)", c.g.Name(), c.dist),
		XLabel: "mean membership m̄",
		YLabel: "time-averaged tree links",
		XLog:   true,
		YLog:   true,
	}
	res := &Result{ID: "churn-steady", Title: fig.Title, Figure: fig}

	xs := make([]float64, len(c.sizes))
	for i, m := range c.sizes {
		xs[i] = float64(m)
	}

	// Static snapshot reference: the paper's own L(m) protocol at the same
	// group sizes — the PASTA baseline the churn time average should match.
	static, err := mcast.MeasureCurveCtx(ctx, c.g, c.sizes, mcast.Distinct, c.prot)
	if err != nil {
		return nil, err
	}
	staticYs := make([]float64, len(static))
	for i, pt := range static {
		staticYs[i] = pt.MeanLinks
	}
	if err := fig.AddXY("static snapshot", xs, staticYs); err != nil {
		return nil, err
	}

	variantYs := map[mcast.ChurnVariant][]float64{}
	for _, variant := range []mcast.ChurnVariant{mcast.ChurnSPT, mcast.ChurnShared, mcast.ChurnBounded} {
		pts, err := c.sweep(ctx, variant)
		if err != nil {
			return nil, err
		}
		ys := make([]float64, len(pts))
		for i, pt := range pts {
			ys[i] = pt.MeanLinks
		}
		variantYs[variant] = ys
		if err := fig.AddXY("churn-"+variant.String(), xs, ys); err != nil {
			return nil, err
		}
	}

	fit, err := stats.PowerLaw(xs, variantYs[mcast.ChurnSPT])
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"churn-spt exponent %.3f over m̄∈[%d,%d] — the scaling law as a time average over dynamic membership",
		fit.Exponent, c.sizes[0], c.sizes[len(c.sizes)-1]))

	// PASTA check: mean absolute relative deviation of the churn time
	// average from the static snapshot mean at the same m̄.
	var dev float64
	for i, y := range variantYs[mcast.ChurnSPT] {
		if staticYs[i] > 0 {
			dev += math.Abs(y-staticYs[i]) / staticYs[i]
		}
	}
	dev /= float64(len(xs))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"PASTA deviation: churn-spt vs static snapshot differs by %.1f%% on average across the grid",
		100*dev))

	last := len(xs) - 1
	if free := variantYs[mcast.ChurnSPT][last]; free > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"degree cap %d overhead at m̄=%d: bounded/unbounded link ratio %.3f",
			c.cap, c.sizes[last], variantYs[mcast.ChurnBounded][last]/free))
	}
	return res, nil
}

func runChurnRepair(ctx context.Context, p Profile) (*Result, error) {
	c, err := churnSetup(p)
	if err != nil {
		return nil, err
	}
	fig := &plot.Figure{
		ID:     "churn-repair",
		Title:  fmt.Sprintf("Repair cost per membership event on %s (%s sessions)", c.g.Name(), c.dist),
		XLabel: "mean membership m̄",
		YLabel: "mean links grafted/pruned per event",
		XLog:   true,
	}
	res := &Result{ID: "churn-repair", Title: fig.Title, Figure: fig}

	xs := make([]float64, len(c.sizes))
	for i, m := range c.sizes {
		xs[i] = float64(m)
	}

	free, err := c.sweep(ctx, mcast.ChurnSPT)
	if err != nil {
		return nil, err
	}
	bounded, err := c.sweep(ctx, mcast.ChurnBounded)
	if err != nil {
		return nil, err
	}
	freeYs := make([]float64, len(free))
	boundedYs := make([]float64, len(bounded))
	for i := range free {
		freeYs[i] = free[i].MeanRepair
		boundedYs[i] = bounded[i].MeanRepair
	}
	if err := fig.AddXY("unbounded", xs, freeYs); err != nil {
		return nil, err
	}
	if err := fig.AddXY(fmt.Sprintf("degree cap %d", c.cap), xs, boundedYs); err != nil {
		return nil, err
	}

	last := len(c.sizes) - 1
	res.Notes = append(res.Notes,
		fmt.Sprintf("repair cost at m̄=%d: %.2f links/event unbounded vs %.2f capped — O(path) maintenance, not O(tree)",
			c.sizes[last], freeYs[last], boundedYs[last]),
		fmt.Sprintf("degree pressure at m̄=%d: mean max degree %.1f unbounded vs %.1f capped (cap %d, %d forced grafts)",
			c.sizes[last], free[last].MeanMaxDegree, bounded[last].MeanMaxDegree, c.cap, bounded[last].Forced))
	return res, nil
}
