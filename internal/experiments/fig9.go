package experiments

import (
	"context"
	"fmt"
	"math"

	"mtreescale/internal/affinity"
	"mtreescale/internal/mcast"
	"mtreescale/internal/plot"
	"mtreescale/internal/rng"
)

func init() {
	mustRegister(&Runner{
		ID:          "fig9a",
		Title:       "Figure 9(a): L̄_β(n)/n for a binary tree, D=10",
		Description: "Metropolis sampling of the affinity model W_α(β) ∝ exp(−β·d̂) for β ∈ {−10,−1,−0.1,0,0.1,1,10}; receivers at all sites.",
		Run:         func(ctx context.Context, p Profile) (*Result, error) { return runFig9(ctx, "fig9a", 10, p) },
	})
	mustRegister(&Runner{
		ID:          "fig9b",
		Title:       "Figure 9(b): L̄_β(n)/n for a binary tree, D=12",
		Description: "Same sweep at 4× network size: the β effect at fixed n is roughly size-independent, supporting the paper's §5.4 conjecture.",
		Run:         func(ctx context.Context, p Profile) (*Result, error) { return runFig9(ctx, "fig9b", 12, p) },
	})
}

// fig9Betas is the paper's β sweep.
var fig9Betas = []float64{-10, -1, -0.1, 0, 0.1, 1, 10}

func runFig9(ctx context.Context, id string, depth int, p Profile) (*Result, error) {
	// The quick profile shrinks depth to keep MCMC cheap.
	if p.Scale < 0.2 {
		depth -= 4
	} else if p.Scale < 0.75 {
		depth -= 2
	}
	if depth < 4 {
		depth = 4
	}
	m, err := affinity.NewTreeModel(2, depth)
	if err != nil {
		return nil, err
	}
	maxN := p.capSize(10000)
	ns := mcast.LogSpacedSizes(maxN, p.GridPoints)
	params := affinity.Params{
		BurnInSweeps: p.MCMCBurnIn,
		SampleSweeps: p.MCMCSamples,
		Seed:         rng.Split(p.Seed, int64(depth)),
	}
	ests, err := affinity.Sweep9(ctx, m, fig9Betas, ns, params)
	if err != nil {
		return nil, err
	}
	fig := &plot.Figure{
		ID:     id,
		Title:  fmt.Sprintf("Affinity-weighted tree size, binary tree D=%d", depth),
		XLabel: "n",
		YLabel: "L̄_β(n)/n",
		XLog:   true,
	}
	res := &Result{ID: id, Title: fig.Title, Figure: fig}
	for bi, beta := range fig9Betas {
		var xs, ys []float64
		for ni, n := range ns {
			xs = append(xs, float64(n))
			ys = append(ys, ests[bi][ni].MeanTreeSize/float64(n))
		}
		if err := fig.AddXY(fmt.Sprintf("β=%g", beta), xs, ys); err != nil {
			return nil, err
		}
	}
	// The β effect is strongest for moderate n (paper: "the effects are most
	// obvious for smaller n") and washes out at saturation. Report the
	// spread in the pre-saturation band and at the top of the grid.
	sites := m.Sites()
	bestIdx, bestRatio := -1, 1.0
	for idx, n := range ns {
		if n < 2 || n > sites/2 {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for bi := range fig9Betas {
			v := ests[bi][idx].MeanTreeSize
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if r := hi / lo; r > bestRatio {
			bestRatio, bestIdx = r, idx
		}
	}
	if bestIdx >= 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"D=%d: strongest β effect at n=%d, L̄ max/min ratio %.2f across β∈[-10,10]",
			depth, ns[bestIdx], bestRatio))
	}
	last := len(ns) - 1
	lo, hi := math.Inf(1), math.Inf(-1)
	for bi := range fig9Betas {
		v := ests[bi][last].MeanTreeSize
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"D=%d n=%d (saturation): L̄ ratio %.3f — β effect washes out, per §5.4",
		depth, ns[last], hi/lo))
	return res, nil
}
