package mcast

import (
	"fmt"

	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
)

// Increments is the empirical counterpart of the paper's §3 derivative
// analysis: E[ΔL(j)] — the expected number of links the j-th receiver adds
// to the delivery tree — measured by growing receiver sets one site at a
// time.
type Increments struct {
	// Delta[j] = E[L(j+1) − L(j)] for j = 0..len-1 (Delta[0] is the first
	// receiver's path length).
	Delta []float64
	// Samples is the number of growth sequences averaged.
	Samples int
}

// Delta2 returns the second difference Δ²L(j) = ΔL(j+1) − ΔL(j), the
// quantity Equations 6-12 analyze. Its length is len(Delta)-1.
func (inc *Increments) Delta2() []float64 {
	if len(inc.Delta) < 2 {
		return nil
	}
	out := make([]float64, len(inc.Delta)-1)
	for j := range out {
		out[j] = inc.Delta[j+1] - inc.Delta[j]
	}
	return out
}

// CumulativeL returns L̄(j) for j = 0..len(Delta): the running sum of the
// increments (L(0) = 0).
func (inc *Increments) CumulativeL() []float64 {
	out := make([]float64, len(inc.Delta)+1)
	for j, d := range inc.Delta {
		out[j+1] = out[j] + d
	}
	return out
}

// MeasureIncrements grows maxM-receiver groups one uniformly-drawn distinct
// site at a time and records the mean link increment at each step, averaged
// over the protocol's sources and repetitions. Receivers exclude the source.
func MeasureIncrements(g *graph.Graph, maxM int, p Protocol) (*Increments, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if g.N() < 2 {
		return nil, fmt.Errorf("mcast: graph too small (N=%d)", g.N())
	}
	if maxM < 1 || maxM > g.N()-1 {
		return nil, fmt.Errorf("mcast: maxM %d out of [1, %d]", maxM, g.N()-1)
	}
	inc := &Increments{Delta: make([]float64, maxM)}
	sources := drawSources(g, p)
	trees, err := graph.SweepSPTs(g, sources, p.sptCache())
	if err != nil {
		return nil, err
	}
	defer trees.Release()
	counter := NewTreeCounter(g.N())
	var sptBuf graph.SPT
	var order []int32
	for si, source := range sources {
		spt, err := trees.Tree(si, &sptBuf)
		if err != nil {
			return nil, err
		}
		smp, err := NewSampler(g.N(), source, rng.NewChild(p.Seed, int64(si)))
		if err != nil {
			return nil, err
		}
		for rep := 0; rep < p.NRcvr; rep++ {
			order, err = smp.Distinct(maxM, order)
			if err != nil {
				return nil, err
			}
			counter.Begin(spt)
			for j := 0; j < maxM; j++ {
				inc.Delta[j] += float64(counter.Add(spt, order[j]))
			}
			inc.Samples++
		}
	}
	if inc.Samples > 0 {
		for j := range inc.Delta {
			inc.Delta[j] /= float64(inc.Samples)
		}
	}
	return inc, nil
}
