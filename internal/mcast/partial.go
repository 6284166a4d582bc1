package mcast

import (
	"context"
	"sort"

	"mtreescale/internal/graph"
	"mtreescale/internal/valid"
)

// This file holds the partial engines: the one drive loop behind every
// curve, shared-curve and ensemble sweep. A partial engine measures a source
// block [SrcLo, SrcHi) — or, for ensembles, a network block [NetLo, NetHi) —
// into per-(source, size) partial sums in contiguous slabs. The
// single-process engines (MeasureCurveCtx, MeasureSharedCurveCtx,
// MeasureEnsembleCtx) run it over the whole block [0, N) and reduce its
// slabs in place, in source (or network) order, so a sweep's float result
// never depends on worker scheduling. The cluster layer runs it per shard,
// serializes the partials as JSON, and merges sibling blocks with the
// Reduce*Partials functions, which replay the exact same reduction. Merged
// results are therefore byte-identical to an unsharded run, which the
// partial_test.go equivalence matrix asserts.
//
// Two sharding axes are NOT offered, deliberately:
//
//   - curve segments (splitting the sizes grid): a source's sampler stream
//     is consumed across the whole grid in order, so a later segment would
//     observe different draws than the unsharded run — not byte-identical;
//   - repetition blocks: same argument, per (source, size).

// CurvePartial carries the per-(source, size) partial sums of a curve sweep
// for the global source block [SrcLo, SrcHi). Slabs are indexed
// [(si-SrcLo)*K + k]; all float values survive a JSON round trip exactly
// (encoding/json emits shortest-round-trip float64), so a partial shipped
// over HTTP merges byte-identically to one kept in memory.
type CurvePartial struct {
	// NSource and K pin the protocol shape the partial was measured under;
	// ReduceCurvePartials rejects mismatched partials.
	NSource int `json:"n_source"`
	K       int `json:"k"`
	// SrcLo and SrcHi delimit the global source block, 0 <= lo < hi <= NSource.
	SrcLo int `json:"src_lo"`
	SrcHi int `json:"src_hi"`

	RatioSum   []float64 `json:"ratio_sum"`
	RatioSq    []float64 `json:"ratio_sq"`
	LinkSum    []float64 `json:"link_sum"`
	UnicastSum []float64 `json:"unicast_sum"`
	Samples    []int     `json:"samples"`
}

// validateBlock checks a shard's [lo, hi) block against the population n.
func validateBlock(lo, hi, n int, what string) error {
	if lo < 0 || hi > n || lo >= hi {
		return valid.Badf("mcast: %s block [%d, %d) out of [0, %d)", what, lo, hi, n)
	}
	return nil
}

// MeasureCurvePartialCtx measures the source block [srcLo, srcHi) of the
// curve sweep MeasureCurveCtx(ctx, g, sizes, mode, p) would run. The full
// source sequence is drawn and sliced — not re-drawn per block — and each
// source keeps its global RNG stream, so the block's partial sums are
// exactly the cells the unsharded engine would produce for those sources.
func MeasureCurvePartialCtx(ctx context.Context, g *graph.Graph, sizes []int, mode Mode, p Protocol, srcLo, srcHi int) (*CurvePartial, error) {
	ctx = orBackground(ctx)
	if err := validateCurveArgs(g, sizes, mode, p); err != nil {
		return nil, err
	}
	if err := validateBlock(srcLo, srcHi, p.NSource, "source"); err != nil {
		return nil, err
	}
	sources := drawSources(g, p)
	trees, err := graph.SweepSPTs(g, sources[srcLo:srcHi], p.sptCache())
	if err != nil {
		return nil, err
	}
	defer trees.Release()
	nBlock := srcHi - srcLo
	acc := newCurvePartial(p.NSource, len(sizes), srcLo, srcHi)
	err = runWorkersN(ctx, p.EffectiveWorkers(), nBlock, func(lane int) error {
		return measureSourceIndependent(ctx, g, srcLo+lane, lane, sizes, mode, p, trees, acc)
	})
	if err != nil {
		return nil, err
	}
	return acc, nil
}

// ReduceCurvePartials merges source-block partials into the final curve by
// replaying the engine's source-order reduction. The partials must tile
// [0, NSource) exactly — contiguous, non-overlapping, complete — and agree
// on the protocol shape; order of the argument slice does not matter. The
// result is byte-identical to the unsharded engine's: every slab cell is
// the cell the full accumulator would hold, and the fold visits them in the
// same source order.
func ReduceCurvePartials(sizes []int, parts []*CurvePartial) ([]Point, error) {
	if len(parts) == 0 {
		return nil, valid.Badf("mcast: no curve partials to reduce")
	}
	ordered := make([]*CurvePartial, len(parts))
	copy(ordered, parts)
	for _, pt := range ordered {
		if pt == nil {
			return nil, valid.Badf("mcast: nil curve partial")
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].SrcLo < ordered[j].SrcLo })
	nSource, k := ordered[0].NSource, ordered[0].K
	if k != len(sizes) {
		return nil, valid.Badf("mcast: partial has K=%d, want %d grid points", k, len(sizes))
	}
	acc := newCurvePartial(nSource, k, 0, nSource)
	next := 0
	for _, pt := range ordered {
		if pt.NSource != nSource || pt.K != k {
			return nil, valid.Badf("mcast: mismatched curve partial shape (NSource %d vs %d, K %d vs %d)", pt.NSource, nSource, pt.K, k)
		}
		if pt.SrcLo != next {
			return nil, valid.Badf("mcast: source blocks do not tile: want block starting at %d, got [%d, %d)", next, pt.SrcLo, pt.SrcHi)
		}
		if err := validateBlock(pt.SrcLo, pt.SrcHi, nSource, "source"); err != nil {
			return nil, err
		}
		cells := (pt.SrcHi - pt.SrcLo) * k
		if len(pt.RatioSum) != cells || len(pt.RatioSq) != cells ||
			len(pt.LinkSum) != cells || len(pt.UnicastSum) != cells || len(pt.Samples) != cells {
			return nil, valid.Badf("mcast: curve partial [%d, %d) has wrong slab size", pt.SrcLo, pt.SrcHi)
		}
		off := pt.SrcLo * k
		copy(acc.RatioSum[off:], pt.RatioSum)
		copy(acc.RatioSq[off:], pt.RatioSq)
		copy(acc.LinkSum[off:], pt.LinkSum)
		copy(acc.UnicastSum[off:], pt.UnicastSum)
		copy(acc.Samples[off:], pt.Samples)
		next = pt.SrcHi
	}
	if next != nSource {
		return nil, valid.Badf("mcast: source blocks cover [0, %d), want [0, %d)", next, nSource)
	}
	return acc.reduce(sizes), nil
}

// SharedPartial is CurvePartial's shape for the shared-tree comparison
// engine: per-(source, size) partial sums of source-tree size, shared-tree
// size and the per-sample overhead ratio for the block [SrcLo, SrcHi).
type SharedPartial struct {
	NSource int `json:"n_source"`
	K       int `json:"k"`
	SrcLo   int `json:"src_lo"`
	SrcHi   int `json:"src_hi"`

	SrcSum  []float64 `json:"src_sum"`
	ShrSum  []float64 `json:"shr_sum"`
	OvhSum  []float64 `json:"ovh_sum"`
	Samples []int     `json:"samples"`
}

// MeasureSharedCurvePartialCtx measures the source block [srcLo, srcHi) of
// MeasureSharedCurveCtx's sweep. The full (source, core) pair sequence is
// drawn and sliced, and a CoreCenter strategy recomputes the same
// deterministic center on every shard, so block results are exactly the
// unsharded engine's cells.
func MeasureSharedCurvePartialCtx(ctx context.Context, g *graph.Graph, sizes []int, strategy CoreStrategy, p Protocol, srcLo, srcHi int) (*SharedPartial, error) {
	ctx = orBackground(ctx)
	if err := validateSharedArgs(g, sizes, p); err != nil {
		return nil, err
	}
	if err := validateBlock(srcLo, srcHi, p.NSource, "source"); err != nil {
		return nil, err
	}
	sources, cores, err := drawSharedPairs(g, strategy, p)
	if err != nil {
		return nil, err
	}
	nBlock := srcHi - srcLo
	combined := make([]int, 0, 2*nBlock)
	combined = append(combined, sources[srcLo:srcHi]...)
	combined = append(combined, cores[srcLo:srcHi]...)
	trees, err := graph.SweepSPTs(g, combined, p.sptCache())
	if err != nil {
		return nil, err
	}
	defer trees.Release()
	acc := newSharedPartial(p.NSource, len(sizes), srcLo, srcHi)
	err = runWorkersN(ctx, p.EffectiveWorkers(), nBlock, func(lane int) error {
		return measureSourceShared(ctx, g, srcLo+lane, lane, nBlock, sizes, p, trees, acc)
	})
	if err != nil {
		return nil, err
	}
	return acc, nil
}

// ReduceSharedPartials merges shared-curve source blocks, replaying the
// engine's source-order reduction; the same tiling rules as
// ReduceCurvePartials apply.
func ReduceSharedPartials(sizes []int, parts []*SharedPartial) ([]SharedPoint, error) {
	if len(parts) == 0 {
		return nil, valid.Badf("mcast: no shared partials to reduce")
	}
	ordered := make([]*SharedPartial, len(parts))
	copy(ordered, parts)
	for _, pt := range ordered {
		if pt == nil {
			return nil, valid.Badf("mcast: nil partial")
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].SrcLo < ordered[j].SrcLo })
	nSource, k := ordered[0].NSource, ordered[0].K
	if k != len(sizes) {
		return nil, valid.Badf("mcast: partial has K=%d, want %d grid points", k, len(sizes))
	}
	acc := newSharedPartial(nSource, k, 0, nSource)
	next := 0
	for _, pt := range ordered {
		if pt.NSource != nSource || pt.K != k {
			return nil, valid.Badf("mcast: mismatched shared partial shape (NSource %d vs %d, K %d vs %d)", pt.NSource, nSource, pt.K, k)
		}
		if pt.SrcLo != next {
			return nil, valid.Badf("mcast: source blocks do not tile: want block starting at %d, got [%d, %d)", next, pt.SrcLo, pt.SrcHi)
		}
		if err := validateBlock(pt.SrcLo, pt.SrcHi, nSource, "source"); err != nil {
			return nil, err
		}
		cells := (pt.SrcHi - pt.SrcLo) * k
		if len(pt.SrcSum) != cells || len(pt.ShrSum) != cells ||
			len(pt.OvhSum) != cells || len(pt.Samples) != cells {
			return nil, valid.Badf("mcast: shared partial [%d, %d) has wrong slab size", pt.SrcLo, pt.SrcHi)
		}
		off := pt.SrcLo * k
		copy(acc.SrcSum[off:], pt.SrcSum)
		copy(acc.ShrSum[off:], pt.ShrSum)
		copy(acc.OvhSum[off:], pt.OvhSum)
		copy(acc.Samples[off:], pt.Samples)
		next = pt.SrcHi
	}
	if next != nSource {
		return nil, valid.Badf("mcast: source blocks cover [0, %d), want [0, %d)", next, nSource)
	}
	return acc.reduce(sizes), nil
}

// EnsemblePartial carries the per-network curves of the topology-ensemble
// block [NetLo, NetHi): PerNet[i] is the full curve of network NetLo+i.
// Ensembles shard at network granularity — each instance derives its
// generation and measurement seeds from its global index — so a block's
// curves are identical to the unsharded engine's.
type EnsemblePartial struct {
	NNetworks int `json:"n_networks"`
	NetLo     int `json:"net_lo"`
	NetHi     int `json:"net_hi"`

	PerNet [][]Point `json:"per_net"`
}

// MeasureEnsemblePartialCtx measures the network block [netLo, netHi) of
// MeasureEnsembleCtx's sweep.
func MeasureEnsemblePartialCtx(ctx context.Context, gen func(seed int64) (*graph.Graph, error), nNetworks int, sizes []int, mode Mode, p Protocol, netLo, netHi int) (*EnsemblePartial, error) {
	ctx = orBackground(ctx)
	if gen == nil {
		return nil, valid.Badf("mcast: nil generator")
	}
	if nNetworks < 1 {
		return nil, valid.Badf("mcast: nNetworks must be >= 1, got %d", nNetworks)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := validateBlock(netLo, netHi, nNetworks, "network"); err != nil {
		return nil, err
	}
	perNet, err := measureEnsembleNets(ctx, gen, netLo, netHi, sizes, mode, p)
	if err != nil {
		return nil, err
	}
	return &EnsemblePartial{NNetworks: nNetworks, NetLo: netLo, NetHi: netHi, PerNet: perNet}, nil
}

// ReduceEnsemblePartials merges network-block partials by replaying the
// engine's network-order weighted reduction; the blocks must tile
// [0, NNetworks) exactly.
func ReduceEnsemblePartials(sizes []int, parts []*EnsemblePartial) ([]Point, error) {
	if len(parts) == 0 {
		return nil, valid.Badf("mcast: no ensemble partials to reduce")
	}
	ordered := make([]*EnsemblePartial, len(parts))
	copy(ordered, parts)
	for _, pt := range ordered {
		if pt == nil {
			return nil, valid.Badf("mcast: nil partial")
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].NetLo < ordered[j].NetLo })
	nNetworks := ordered[0].NNetworks
	perNet := make([][]Point, 0, nNetworks)
	next := 0
	for _, pt := range ordered {
		if pt.NNetworks != nNetworks {
			return nil, valid.Badf("mcast: mismatched ensemble size (%d vs %d)", pt.NNetworks, nNetworks)
		}
		if pt.NetLo != next {
			return nil, valid.Badf("mcast: network blocks do not tile: want block starting at %d, got [%d, %d)", next, pt.NetLo, pt.NetHi)
		}
		if err := validateBlock(pt.NetLo, pt.NetHi, nNetworks, "network"); err != nil {
			return nil, err
		}
		if len(pt.PerNet) != pt.NetHi-pt.NetLo {
			return nil, valid.Badf("mcast: ensemble partial [%d, %d) has %d curves", pt.NetLo, pt.NetHi, len(pt.PerNet))
		}
		for i, pts := range pt.PerNet {
			if len(pts) != len(sizes) {
				return nil, valid.Badf("mcast: network %d curve has %d points, want %d", pt.NetLo+i, len(pts), len(sizes))
			}
		}
		perNet = append(perNet, pt.PerNet...)
		next = pt.NetHi
	}
	if next != nNetworks {
		return nil, valid.Badf("mcast: network blocks cover [0, %d), want [0, %d)", next, nNetworks)
	}
	return reduceEnsemble(sizes, perNet), nil
}
