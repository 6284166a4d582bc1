package mcast

import (
	"context"
	"fmt"
	"math"

	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
)

// This file implements shared-tree (core-based) multicast as a comparison
// baseline. The paper restricts itself to source-specific shortest-path
// trees (footnote 1: "we do not address the efficiency of shared tree
// multicast algorithms. See [12] for one such comparison"); this extension
// provides exactly that comparison, following Wei-Estrin's center-based
// tree model: all group traffic flows over one tree rooted at a core,
// which is the union of the shortest paths from the core to the source and
// to every receiver.

// CoreStrategy selects a shared-tree core for a group.
type CoreStrategy int

const (
	// CoreRandom picks a uniformly random core (CBT with unmanaged core
	// placement).
	CoreRandom CoreStrategy = iota
	// CoreSource places the core at the source: the shared tree then
	// coincides with the source-based tree (useful as a consistency check).
	CoreSource
	// CoreCenter places the core at a low-eccentricity node (managed core
	// placement, approximating the topology center).
	CoreCenter
)

// String implements fmt.Stringer.
func (s CoreStrategy) String() string {
	switch s {
	case CoreRandom:
		return "random-core"
	case CoreSource:
		return "source-core"
	case CoreCenter:
		return "center-core"
	default:
		return fmt.Sprintf("CoreStrategy(%d)", int(s))
	}
}

// SharedTreeSize returns the number of links in the core-based shared tree
// for the given source and receivers: the union of the core-rooted
// shortest-tree paths to every group member (source included — senders must
// reach the core).
func (c *TreeCounter) SharedTreeSize(coreSPT *graph.SPT, source int32, receivers []int32) int {
	// Reuse TreeSize with the source appended conceptually: climb from the
	// source too. TreeSize ignores duplicates, so just measure with an
	// extended receiver view. To avoid allocating, climb source first, then
	// receivers, under one epoch.
	if len(coreSPT.Parent) > len(c.visited) {
		c.visited = make([]int32, len(coreSPT.Parent))
		c.epoch = 0
	}
	c.epoch++
	links := 0
	c.visited[coreSPT.Source] = c.epoch
	climb := func(v int32) {
		if v < 0 || int(v) >= len(coreSPT.Parent) || coreSPT.Dist[v] == graph.Unreachable {
			return
		}
		for c.visited[v] != c.epoch {
			c.visited[v] = c.epoch
			links++
			v = coreSPT.Parent[v]
		}
	}
	climb(source)
	for _, r := range receivers {
		climb(r)
	}
	return links
}

// SharedPoint aggregates one group size of a shared-vs-source comparison.
type SharedPoint struct {
	Size int
	// MeanSourceTree is E[L] for the source-rooted shortest-path tree.
	MeanSourceTree float64
	// MeanSharedTree is E[L] for the core-based shared tree.
	MeanSharedTree float64
	// MeanOverhead is E[shared/source], the per-sample cost ratio
	// (Wei-Estrin report ≈1.0-1.4 for center-based vs source trees).
	MeanOverhead float64
	Samples      int
}

// MeasureSharedCurve runs the §2 protocol measuring both the source-based
// and the shared (core-based) delivery tree on the same receiver samples.
//
// The computation parallelizes over sources through the same worker pool as
// MeasureCurve; per-(source, size) partial sums live in contiguous slabs and
// are reduced in source order, so the float result is identical for any
// Workers setting. Source and core draws come from independent pre-drawn RNG
// streams, matching the sequential engine's sequences exactly.
func MeasureSharedCurve(g *graph.Graph, sizes []int, strategy CoreStrategy, p Protocol) ([]SharedPoint, error) {
	return MeasureSharedCurveCtx(context.Background(), g, sizes, strategy, p)
}

// MeasureSharedCurveCtx is MeasureSharedCurve under a cancellation context:
// the worker pool observes ctx at grid-point granularity and returns its
// error promptly after cancellation. A nil ctx means Background. Like
// MeasureCurveCtx, it is the partial engine over [0, NSource) reduced in
// place.
func MeasureSharedCurveCtx(ctx context.Context, g *graph.Graph, sizes []int, strategy CoreStrategy, p Protocol) ([]SharedPoint, error) {
	part, err := MeasureSharedCurvePartialCtx(ctx, g, sizes, strategy, p, 0, p.NSource)
	if err != nil {
		return nil, err
	}
	return part.reduce(sizes), nil
}

// validateSharedArgs is the argument check shared by the full and partial
// shared-curve engines.
func validateSharedArgs(g *graph.Graph, sizes []int, p Protocol) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if g.N() < 2 {
		return fmt.Errorf("mcast: graph too small (N=%d)", g.N())
	}
	maxPop := g.N() - 1
	for _, s := range sizes {
		if s <= 0 || s > maxPop {
			return fmt.Errorf("mcast: group size %d out of [1, %d]", s, maxPop)
		}
	}
	return nil
}

// drawSharedPairs pre-draws the full per-source (source, core) sequence for
// the protocol. The two streams are independent children of the protocol
// seed, so draining each in source order reproduces the sequences the
// sequential loop consumed; a partial engine draws the full sequence and
// slices its block, which keeps every source's identity independent of how
// the sweep is sharded.
func drawSharedPairs(g *graph.Graph, strategy CoreStrategy, p Protocol) (sources, cores []int, err error) {
	var center int
	if strategy == CoreCenter {
		center, err = approxCenter(g, p.Seed)
		if err != nil {
			return nil, nil, err
		}
	}
	srcRand := rng.NewChild(p.Seed, -1)
	coreRand := rng.NewChild(p.Seed, -2)
	sources = make([]int, p.NSource)
	cores = make([]int, p.NSource)
	for si := range sources {
		sources[si] = srcRand.Intn(g.N())
		switch strategy {
		case CoreRandom:
			cores[si] = coreRand.Intn(g.N())
		case CoreSource:
			cores[si] = sources[si]
		default:
			cores[si] = center
		}
	}
	return sources, cores, nil
}

// newSharedPartial allocates the shared-curve accumulator of the source
// block [srcLo, srcHi), in the same lock-free slab layout as
// newCurvePartial: distinct sources never share a cell.
func newSharedPartial(nSource, k, srcLo, srcHi int) *SharedPartial {
	cells := (srcHi - srcLo) * k
	slab := make([]float64, 3*cells)
	return &SharedPartial{
		NSource: nSource, K: k, SrcLo: srcLo, SrcHi: srcHi,
		SrcSum:  slab[0:cells],
		ShrSum:  slab[cells : 2*cells],
		OvhSum:  slab[2*cells : 3*cells],
		Samples: make([]int, cells),
	}
}

func (a *SharedPartial) add(lane, k int, src, shr, overhead float64) {
	i := lane*a.K + k
	a.SrcSum[i] += src
	a.ShrSum[i] += shr
	a.OvhSum[i] += overhead
	a.Samples[i]++
}

// reduce aggregates the slabs in source order for a scheduling-independent
// float result.
func (a *SharedPartial) reduce(sizes []int) []SharedPoint {
	nSource := len(a.Samples) / a.K
	out := make([]SharedPoint, len(sizes))
	for k := range out {
		out[k].Size = sizes[k]
		for si := 0; si < nSource; si++ {
			i := si*a.K + k
			out[k].MeanSourceTree += a.SrcSum[i]
			out[k].MeanSharedTree += a.ShrSum[i]
			out[k].MeanOverhead += a.OvhSum[i]
			out[k].Samples += a.Samples[i]
		}
		if out[k].Samples > 0 {
			n := float64(out[k].Samples)
			out[k].MeanSourceTree /= n
			out[k].MeanSharedTree /= n
			out[k].MeanOverhead /= n
		}
	}
	return out
}

// measureSourceShared runs the shared-curve inner loop for one source: the
// source's and the core's trees read from the sweep's trees, packed, then
// every (size, rep) sample measured against each through the fused
// counters, chosen once per grid point as in measureSourceIndependent: a
// swept batch marks each set on both trees and sweeps each tree once, and a
// grid point the size of the whole population is marked on both trees,
// swept and added NRcvr times, with its draws left owed. ctx is polled at
// every grid point.
//
// si is the global source index (RNG identity); lane is the source's slot
// in the sweep's trees and the accumulator (lane == si for a full sweep);
// laneCount is the number of source trees, after which the core trees
// start (p.NSource for a full sweep, the block size for a partial one).
func measureSourceShared(ctx context.Context, g *graph.Graph, si, lane, laneCount int, sizes []int, p Protocol, trees *graph.SweepTrees, acc *SharedPartial) error {
	sc := getScratch(g.N())
	defer scratchPool.Put(sc)
	srcSPT, err := trees.Tree(lane, &sc.spt)
	if err != nil {
		return err
	}
	coreSPT, err := trees.Tree(laneCount+lane, &sc.spt2)
	if err != nil {
		return err
	}
	source := srcSPT.Source
	sc.pd = packTree(srcSPT, sc.growPacked(sc.pd, len(srcSPT.Parent)))
	sc.pd2 = packTree(coreSPT, sc.growPacked(sc.pd2, len(coreSPT.Parent)))
	sc.rows.use(srcSPT)
	sc.rows2.use(coreSPT)
	// Receivers always exclude the source here (the shared-tree comparison
	// keeps the paper's receiver model regardless of IncludeSource).
	if err := sc.smp.Reset(g.N(), source, rng.NewChild(p.Seed, int64(si))); err != nil {
		return err
	}
	perSweep := min(p.NRcvr, sweepLanes)
	var srcMs, shrMs [sweepLanes]Measurement
	for k, size := range sizes {
		if err := ctx.Err(); err != nil {
			return err
		}
		if size == sc.smp.Population() {
			all := sc.smp.whole(p.NRcvr)
			sc.rows.markSet(0, -1, all)
			sc.rows2.markSet(0, int32(source), all)
			sc.rows.sweep(srcMs[:1])
			sc.rows2.sweep(shrMs[:1])
			src, shr := srcMs[0].Links, shrMs[0].Links
			for rep := 0; rep < p.NRcvr && src > 0; rep++ {
				acc.add(lane, k, float64(src), float64(shr), float64(shr)/float64(src))
			}
			continue
		}
		swept := dense(size, perSweep, len(sc.pd))
		for rep := 0; rep < p.NRcvr; rep += perSweep {
			b := min(perSweep, p.NRcvr-rep)
			for j := 0; j < b; j++ {
				if err := sc.draw(Distinct, size); err != nil {
					return err
				}
				if swept {
					sc.rows.markSet(j, -1, sc.recv)
					sc.rows2.markSet(j, int32(source), sc.recv)
				} else {
					srcMs[j].Links = sc.counter.treeSizeClimb(int32(srcSPT.Source), sc.pd, sc.recv)
					shrMs[j].Links = sc.counter.sharedTreeSizeClimb(int32(coreSPT.Source), sc.pd2, int32(source), sc.recv)
				}
			}
			if swept {
				sc.rows.sweep(srcMs[:b])
				sc.rows2.sweep(shrMs[:b])
			}
			for j := 0; j < b; j++ {
				src, shr := srcMs[j].Links, shrMs[j].Links
				if src == 0 {
					continue
				}
				acc.add(lane, k, float64(src), float64(shr), float64(shr)/float64(src))
			}
		}
	}
	return nil
}

// approxCenter returns a node with approximately minimum eccentricity by
// sampling BFS sources and picking the node minimizing the max distance to
// the sampled sources — a cheap 2-approximation-flavor heuristic adequate
// for core placement. The sampled trees are a sweep of their own, outside
// the SPT cache.
func approxCenter(g *graph.Graph, seed int64) (int, error) {
	if g.N() == 0 {
		return 0, fmt.Errorf("mcast: empty graph")
	}
	r := rng.NewChild(seed, -3)
	samples := 8
	if samples > g.N() {
		samples = g.N()
	}
	srcs := make([]int, samples)
	for i := range srcs {
		srcs[i] = r.Intn(g.N())
	}
	trees, err := graph.SweepSPTs(g, srcs, nil)
	if err != nil {
		return 0, err
	}
	defer trees.Release()
	maxDist := make([]int32, g.N())
	var buf graph.SPT
	for i := range srcs {
		spt, err := trees.Tree(i, &buf)
		if err != nil {
			return 0, err
		}
		for v, d := range spt.Dist {
			if d == graph.Unreachable {
				d = math.MaxInt32
			}
			if d > maxDist[v] {
				maxDist[v] = d
			}
		}
	}
	best := 0
	for v := 1; v < g.N(); v++ {
		if maxDist[v] < maxDist[best] {
			best = v
		}
	}
	return best, nil
}
