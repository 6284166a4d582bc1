package mcast

import (
	"context"
	"sort"

	"mtreescale/internal/graph"
)

// MeasureCurveNested is the incremental fast path of the §2 protocol: where
// MeasureCurve draws an independent receiver set for every (source, size,
// repetition) triple, the nested engine draws ONE receiver sequence per
// (source, repetition), grows the delivery tree receiver by receiver with
// TreeCounter.Add (the paper's ΔL machinery, Eqs 5-6), and reads L, ū and
// the ratio off at every grid size as the growth front passes it.
//
// Soundness: in Distinct mode the sequence is a uniform random ordering of a
// uniform distinct maxM-subset (Sampler.Permutation), so every prefix of
// length m is itself a uniform distinct m-sample; in WithReplacement mode
// the sequence is i.i.d., so every prefix of length n is a valid n-draw.
// Per-size means are therefore unbiased and distributed identically to the
// independent protocol's; only the correlation *across* sizes differs
// (nested samples share a growth sequence), which the per-size standard
// errors do not consume. Tests assert agreement within 3 pooled standard
// errors against the independent path.
//
// Cost: one tree walk of O(L(maxM)) per repetition replaces GridPoints
// walks of O(L(size_k)) — an expected ~GridPoints× reduction in tree-walk
// work on log-spaced grids — and one O(maxM) draw replaces GridPoints draws.
//
// Results are deterministic for a fixed Protocol regardless of Workers,
// exactly like MeasureCurve.
func MeasureCurveNested(g *graph.Graph, sizes []int, mode Mode, p Protocol) ([]Point, error) {
	return MeasureCurveNestedCtx(context.Background(), g, sizes, mode, p)
}

// MeasureCurveNestedCtx is MeasureCurveNested under a cancellation context:
// the growth loop observes ctx between repetitions and returns its error
// promptly after cancellation. A nil ctx means Background.
func MeasureCurveNestedCtx(ctx context.Context, g *graph.Graph, sizes []int, mode Mode, p Protocol) ([]Point, error) {
	p.Nested = true
	return MeasureCurveCtx(ctx, g, sizes, mode, p)
}

// sizeCut maps a group size to its index in the caller's sizes slice.
type sizeCut struct{ size, k int }

// sizeCuts returns the grid sizes sorted ascending, remembering each one's
// position in the input so results come back in input order. Duplicate sizes
// each get their own cut (and thus identical samples).
func sizeCuts(sizes []int) []sizeCut {
	cuts := make([]sizeCut, len(sizes))
	for k, s := range sizes {
		cuts[k] = sizeCut{size: s, k: k}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].size < cuts[j].size })
	return cuts
}

// measureSourceNested runs the nested inner loop for one source: NRcvr
// growth sequences, each measured at every cut. ctx is polled once per
// repetition — one repetition is one O(L(maxM)) tree walk, the nested
// engine's grid-point unit of work.
//
// The tree is packed once per source (see packed.go) and the growth loop is
// the fused packed form of Begin/Add: one int64 load per climb step carries
// both the distance and the parent, the visited-epoch scheme is the
// counter's own, and nextCut keeps the grid read-off to one scalar compare
// per receiver. The integers produced are exactly those of the unfused
// loop, so the engine's results are unchanged.
func measureSourceNested(ctx context.Context, g *graph.Graph, src, si, lane int, cuts []sizeCut, maxSize int, mode Mode, p Protocol, bt *batchTrees, acc *CurvePartial) error {
	sc := getScratch(g.N())
	defer scratchPool.Put(sc)
	spt, err := sc.prepare(g, src, si, lane, p, bt)
	if err != nil {
		return err
	}
	sc.pd = packTree(spt, sc.growPacked(sc.pd, len(spt.Parent)))
	pd := sc.pd
	source := int32(spt.Source)
	c := sc.counter
	for rep := 0; rep < p.NRcvr; rep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		switch mode {
		case Distinct:
			sc.recv, err = sc.smp.Permutation(maxSize, sc.recv)
		case WithReplacement:
			sc.recv, err = sc.smp.WithReplacement(maxSize, sc.recv)
		}
		if err != nil {
			return err
		}
		if len(pd) > len(c.visited) {
			c.visited = make([]int32, len(pd))
			c.epoch = 0
		}
		c.epoch++
		epoch, visited := c.epoch, c.visited
		visited[source] = epoch
		links := 0
		var hops int64
		reachable := 0
		// Grow the tree segment by segment: within a segment (receivers
		// between consecutive cuts) climbs interleave four wide (climb4),
		// draining at each cut boundary so the recorded (links, hops,
		// reachable) are exactly the prefix integers the one-at-a-time loop
		// produces there.
		recv := sc.recv
		for j, ci := 0, 0; ci < len(cuts); {
			cut := cuts[ci].size
			for ; j+4 <= cut; j += 4 {
				r0, r1, r2, r3 := recv[j], recv[j+1], recv[j+2], recv[j+3]
				w0, w1, w2, w3 := pd[r0], pd[r1], pd[r2], pd[r3]
				if w0 < 0 {
					r0 = source
				} else {
					hops += w0 >> 32
					reachable++
				}
				if w1 < 0 {
					r1 = source
				} else {
					hops += w1 >> 32
					reachable++
				}
				if w2 < 0 {
					r2 = source
				} else {
					hops += w2 >> 32
					reachable++
				}
				if w3 < 0 {
					r3 = source
				} else {
					hops += w3 >> 32
					reachable++
				}
				links += climb4(pd, visited, epoch, r0, r1, r2, r3)
			}
			for ; j < cut; j++ {
				r := recv[j]
				if w := pd[r]; w >= 0 {
					hops += w >> 32
					reachable++
					for v := r; visited[v] != epoch; {
						visited[v] = epoch
						links++
						v = int32(uint32(pd[v]))
					}
				}
			}
			for ; ci < len(cuts) && cuts[ci].size == cut; ci++ {
				if reachable > 0 {
					m := Measurement{Links: links, UnicastHops: hops, Receivers: reachable}
					acc.add(lane, cuts[ci].k, m.Ratio(), float64(m.Links), m.AvgUnicast())
				}
			}
		}
	}
	return nil
}
