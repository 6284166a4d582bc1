package mcast

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"mtreescale/internal/graph"
	"mtreescale/internal/panicsafe"
	"mtreescale/internal/rng"
)

// MeasureEnsemble runs the original Chuang-Sirbu protocol variant the paper
// notes in footnote 4: for generated topologies, [3] additionally averages
// over N_network independent creations of each network. gen must build one
// topology instance from a seed; the protocol then averages MeasureCurve
// results across nNetworks instances, weighting each instance's point by
// its sample count.
//
// Networks are generated and measured concurrently — gen must therefore be
// safe to call from multiple goroutines (the standard generators are). The
// protocol's Workers budget is split between the network level and each
// inner MeasureCurve, and the reduction runs in network order, so results
// are deterministic and identical to a sequential run.
func MeasureEnsemble(gen func(seed int64) (*graph.Graph, error), nNetworks int, sizes []int, mode Mode, p Protocol) ([]Point, error) {
	return MeasureEnsembleCtx(context.Background(), gen, nNetworks, sizes, mode, p)
}

// MeasureEnsembleCtx is MeasureEnsemble under a cancellation context: the
// network workers observe ctx before each generation and propagate it into
// every inner MeasureCurveCtx, which polls it at grid-point granularity. A
// panic in gen or in a measurement worker surfaces as an error instead of
// killing the process. A nil ctx means Background. The sweep is the partial
// engine over the network block [0, nNetworks), reduced in network order.
func MeasureEnsembleCtx(ctx context.Context, gen func(seed int64) (*graph.Graph, error), nNetworks int, sizes []int, mode Mode, p Protocol) ([]Point, error) {
	part, err := MeasureEnsemblePartialCtx(ctx, gen, nNetworks, sizes, mode, p, 0, nNetworks)
	if err != nil {
		return nil, err
	}
	return reduceEnsemble(sizes, part.PerNet), nil
}

// measureEnsembleNets generates and measures the network instances
// [netLo, netHi) of an ensemble sweep, returning their per-network curves
// indexed net - netLo. Each network's generation and measurement seeds are
// derived from its global index, so an instance's curve is identical however
// the ensemble is split into blocks — the property the cluster layer's
// topology-ensemble sharding rests on.
func measureEnsembleNets(ctx context.Context, gen func(seed int64) (*graph.Graph, error), netLo, netHi int, sizes []int, mode Mode, p Protocol) ([][]Point, error) {
	nNets := netHi - netLo
	budget := p.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	inner := max(budget/min(budget, nNets), 1)
	perNet := make([][]Point, nNets)
	err := panicsafe.RunJobs(ctx, budget, nNets, func(i int) error {
		net := netLo + i
		g, err := gen(rng.Split(p.Seed, int64(net)))
		if err != nil {
			return fmt.Errorf("mcast: generating network %d: %w", net, err)
		}
		q := p
		q.Seed = rng.Split(p.Seed, int64(1000000+net))
		q.Workers = inner
		// Ensemble networks are transient: caching their SPTs would pin
		// dead topologies in the process-wide cache.
		q.SPTCache = false
		pts, err := MeasureCurveCtx(ctx, g, sizes, mode, q)
		if err != nil {
			return fmt.Errorf("mcast: measuring network %d: %w", net, err)
		}
		perNet[i] = pts
		return nil
	})
	if err != nil {
		return nil, err
	}
	return perNet, nil
}

// reduceEnsemble folds per-network curves into one, weighting each network's
// point by its sample count, in network order: the deterministic float
// reduction shared by the full engine and ReduceEnsemblePartials.
func reduceEnsemble(sizes []int, perNet [][]Point) []Point {
	acc := make([]Point, len(sizes))
	for k := range acc {
		acc[k].Size = sizes[k]
	}
	for net := range perNet {
		for k, pt := range perNet[net] {
			w := float64(pt.Samples)
			acc[k].MeanRatio += pt.MeanRatio * w
			acc[k].MeanLinks += pt.MeanLinks * w
			acc[k].MeanUnicast += pt.MeanUnicast * w
			// Pool the per-network standard errors conservatively.
			acc[k].RatioStdErr += pt.RatioStdErr * pt.RatioStdErr * w * w
			acc[k].Samples += pt.Samples
		}
	}
	for k := range acc {
		if acc[k].Samples > 0 {
			n := float64(acc[k].Samples)
			acc[k].MeanRatio /= n
			acc[k].MeanLinks /= n
			acc[k].MeanUnicast /= n
			acc[k].RatioStdErr = sqrtNonNeg(acc[k].RatioStdErr) / n
		}
	}
	return acc
}

func sqrtNonNeg(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
