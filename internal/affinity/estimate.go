package affinity

import (
	"context"
	"math"
	"runtime"
	"sort"

	"mtreescale/internal/panicsafe"
	"mtreescale/internal/rng"
	"mtreescale/internal/stats"
	"mtreescale/internal/valid"
)

// Estimate is the Monte-Carlo estimate of L̄_β(n) for one (β, n) pair.
type Estimate struct {
	Beta float64
	N    int
	// MeanTreeSize is the weighted-average delivery-tree size L̄_β(n).
	MeanTreeSize float64
	// StdErr is a naive (autocorrelation-ignoring) standard error of
	// MeanTreeSize; use it for trend checks only.
	StdErr float64
	// MeanPairDist is the average d̂ over sampled configurations.
	MeanPairDist float64
	// AcceptanceRate is the chain's overall Metropolis acceptance rate.
	AcceptanceRate float64
	// Samples is the number of post-burn-in samples.
	Samples int
}

// Params controls the sampler.
type Params struct {
	// BurnInSweeps discarded before measuring. Default 50.
	BurnInSweeps int
	// SampleSweeps measured. Default 200.
	SampleSweeps int
	// Thin takes one sample every Thin sweeps. Default 1.
	Thin int
	// Seed drives the chain deterministically.
	Seed int64
}

func (p *Params) normalize() error {
	if p.BurnInSweeps == 0 {
		p.BurnInSweeps = 50
	}
	if p.SampleSweeps == 0 {
		p.SampleSweeps = 200
	}
	if p.Thin == 0 {
		p.Thin = 1
	}
	if p.BurnInSweeps < 0 || p.SampleSweeps < 1 || p.Thin < 1 {
		return valid.Badf("affinity: invalid sampler params %+v", *p)
	}
	return nil
}

// checkBeta rejects the affinity strengths no chain can sample: NaN poisons
// every Metropolis acceptance ratio (comparisons with NaN are all false, so
// the chain silently freezes), and ±Inf overflows exp() in the acceptance
// rule. Finite β of either sign is legal — negative β is the dispersion
// regime.
func checkBeta(beta float64) error {
	if math.IsNaN(beta) {
		return valid.Badf("affinity: beta is NaN")
	}
	if math.IsInf(beta, 0) {
		return valid.Badf("affinity: beta is infinite (%v)", beta)
	}
	return nil
}

// checkGroupSize rejects a receiver count no chain can hold.
func checkGroupSize(n int) error {
	if n < 1 {
		return valid.Badf("affinity: chain needs n >= 1, got %d", n)
	}
	return nil
}

// EstimateTreeSize samples L̄_β(n) on a k-ary tree with receivers at all
// non-root sites (Figure 9's setup). It polls ctx once per sweep and returns
// ctx's error promptly after cancellation.
func EstimateTreeSize(ctx context.Context, m *TreeModel, n int, beta float64, p Params) (Estimate, error) {
	if err := p.normalize(); err != nil {
		return Estimate{}, err
	}
	chain, err := m.NewChain(n, beta, rng.New(p.Seed))
	if err != nil {
		return Estimate{}, err
	}
	sweep := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		chain.Sweep()
		return nil
	}
	for i := 0; i < p.BurnInSweeps; i++ {
		if err := sweep(); err != nil {
			return Estimate{}, err
		}
	}
	var sizeW, distW stats.Welford
	for i := 0; i < p.SampleSweeps; i++ {
		for t := 0; t < p.Thin; t++ {
			if err := sweep(); err != nil {
				return Estimate{}, err
			}
		}
		sizeW.Add(float64(chain.TreeSize()))
		distW.Add(chain.AvgPairDist())
	}
	if err := chain.CheckInvariants(); err != nil {
		return Estimate{}, err
	}
	return Estimate{
		Beta:           beta,
		N:              n,
		MeanTreeSize:   sizeW.Mean(),
		StdErr:         sizeW.StdErr(),
		MeanPairDist:   distW.Mean(),
		AcceptanceRate: chain.AcceptanceRate(),
		Samples:        sizeW.N(),
	}, nil
}

// Sweep9 runs the Figure 9 protocol: for each β and each group size n,
// estimate L̄_β(n)/n. Returns estimates indexed [beta][n].
//
// It validates p, every β and every n before any chain starts, then runs
// the len(betas)·len(ns) chains on panicsafe.RunJobs with GOMAXPROCS
// workers, the curve engines' default. Every (β, n) chain has its own seed,
// so the estimates do not depend on the schedule. A chain costs ∝ n·depth
// per sweep, so the largest groups go first and the short chains fill in
// behind them. Every chain polls ctx once per sweep, so cancellation stops
// the whole protocol within one sweep's work.
func Sweep9(ctx context.Context, m *TreeModel, betas []float64, ns []int, p Params) ([][]Estimate, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	for _, beta := range betas {
		if err := checkBeta(beta); err != nil {
			return nil, err
		}
	}
	for _, n := range ns {
		if err := checkGroupSize(n); err != nil {
			return nil, err
		}
	}
	type chain struct{ bi, ni int }
	chains := make([]chain, 0, len(betas)*len(ns))
	for bi := range betas {
		for ni := range ns {
			chains = append(chains, chain{bi, ni})
		}
	}
	sort.SliceStable(chains, func(a, b int) bool { return ns[chains[a].ni] > ns[chains[b].ni] })
	out := make([][]Estimate, len(betas))
	for bi := range out {
		out[bi] = make([]Estimate, len(ns))
	}
	err := panicsafe.RunJobs(ctx, runtime.GOMAXPROCS(0), len(chains), func(j int) error {
		bi, ni := chains[j].bi, chains[j].ni
		q := p
		q.Seed = rng.Split(p.Seed, int64(bi*1000003+ni))
		est, err := EstimateTreeSize(ctx, m, ns[ni], betas[bi], q)
		if err != nil {
			return err
		}
		out[bi][ni] = est
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
