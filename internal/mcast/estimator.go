package mcast

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"mtreescale/internal/arena"
	"mtreescale/internal/chaos"
	"mtreescale/internal/graph"
	"mtreescale/internal/panicsafe"
	"mtreescale/internal/rng"
	"mtreescale/internal/valid"
)

// Protocol is the Monte-Carlo measurement protocol of §2 of the paper:
// NSource random sources (drawn with replacement), and for each source and
// each group size, NRcvr random receiver sets.
type Protocol struct {
	// NSource is the number of source draws (paper default 100).
	NSource int
	// NRcvr is the number of receiver sets per source and group size
	// (paper default 100).
	NRcvr int
	// Seed makes the whole sweep deterministic.
	Seed int64
	// IncludeSource lets the source site also be drawn as a receiver.
	// The paper excludes it (receivers are *other* sites).
	IncludeSource bool
	// Workers bounds the number of concurrent source workers; 0 means
	// GOMAXPROCS. The pool never runs more workers than there are source
	// jobs, so the effective concurrency is min(Workers, NSource) — see
	// EffectiveWorkers. Requesting more is not an error, just headroom
	// that cannot be used.
	Workers int
	// Nested selected the nested-growth curve engine, which has been
	// removed. Validate rejects true.
	//
	// Deprecated: the independent-sets engine is the only curve engine.
	// The field stays so existing callers compile; it must be false.
	Nested bool
	// SPTCache routes a sweep's shortest-path trees through the
	// process-wide graph.SharedSPTs cache, so experiments that draw the
	// same sources on the same (topology-cached) graph reuse trees instead
	// of recomputing them; without it the sweep computes them afresh
	// (graph.SweepSPTs). The trees are the same either way, so results are
	// byte-identical. Leave false for transient graphs that should not pin
	// cache budget.
	SPTCache bool
	// BatchBFS chose between the multi-source BFS kernel and per-source
	// BFS for a sweep's trees, two paths with byte-identical results. It is
	// ignored: graph.SweepSPTs builds every sweep's trees.
	//
	// Deprecated: the field stays, either value valid, so the cluster's
	// Grid.Key(), which prints it, and with it every coordinator journal
	// and worker cache, is unchanged.
	BatchBFS bool
}

// Validate checks protocol sanity. Failures wrap valid.ErrParam, so a
// serving boundary can classify them as bad requests. Workers > NSource is
// accepted (the pool clamps, it does not fail): worker count is a resource
// hint, and rejecting it would make the same protocol valid or invalid
// depending on an unrelated sample-size field.
func (p Protocol) Validate() error {
	if p.NSource <= 0 || p.NRcvr <= 0 {
		return valid.Badf("mcast: protocol needs NSource > 0 and NRcvr > 0 (got %d, %d)", p.NSource, p.NRcvr)
	}
	if p.Workers < 0 {
		return valid.Badf("mcast: negative worker count %d", p.Workers)
	}
	if p.Nested {
		return valid.Badf("mcast: Protocol.Nested is no longer supported: the nested-growth curve engine was removed")
	}
	return nil
}

// EffectiveWorkers returns the number of source workers the engines will
// actually run for this protocol: Workers (or GOMAXPROCS when 0), clamped to
// NSource because the pool parallelizes over source jobs and extra workers
// would sit idle.
func (p Protocol) EffectiveWorkers() int {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > p.NSource && p.NSource > 0 {
		workers = p.NSource
	}
	return workers
}

// DefaultProtocol is the paper's 100×100 protocol.
func DefaultProtocol(seed int64) Protocol {
	return Protocol{NSource: 100, NRcvr: 100, Seed: seed}
}

// sptCache is the cache a sweep reads its trees through: the process-wide
// one when SPTCache is set, else none.
func (p Protocol) sptCache() *graph.SPTCache {
	if p.SPTCache {
		return graph.SharedSPTs
	}
	return nil
}

// Point is the aggregated observation for one group size.
type Point struct {
	// Size is the group size: m (distinct mode) or n (replacement mode).
	Size int
	// MeanRatio is the average of L/ū over all samples — the y-value of
	// the paper's Figure 1 (before taking logs).
	MeanRatio float64
	// RatioStdErr is the standard error of MeanRatio.
	RatioStdErr float64
	// MeanLinks is the average delivery-tree size L.
	MeanLinks float64
	// MeanUnicast is the average per-sample unicast path length ū.
	MeanUnicast float64
	// Samples is the number of Monte-Carlo samples aggregated.
	Samples int
}

// Mode selects between the paper's two receiver-drawing protocols.
type Mode int

const (
	// Distinct draws exactly m distinct receiver sites: the L(m) protocol.
	Distinct Mode = iota
	// WithReplacement draws n sites with replacement: the L̄(n) protocol.
	WithReplacement
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Distinct:
		return "distinct"
	case WithReplacement:
		return "with-replacement"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// MeasureCurve runs the full §2 protocol on g for every group size in sizes
// and returns one aggregated Point per size, in input order.
//
// The computation parallelizes over sources; results are deterministic for a
// fixed Protocol regardless of scheduling, because each source draw has its
// own derived RNG stream and partial sums are reduced in source order.
func MeasureCurve(g *graph.Graph, sizes []int, mode Mode, p Protocol) ([]Point, error) {
	return MeasureCurveCtx(context.Background(), g, sizes, mode, p)
}

// MeasureCurveCtx is MeasureCurve under a cancellation context: the worker
// pool observes ctx at grid-point granularity, abandons the sweep promptly
// after cancellation, and returns ctx's error. A nil ctx means Background.
//
// The sweep is the partial engine run over the whole source block [0,
// NSource), reduced in place — the one drive loop the single-process and
// the cluster engines share.
func MeasureCurveCtx(ctx context.Context, g *graph.Graph, sizes []int, mode Mode, p Protocol) ([]Point, error) {
	part, err := MeasureCurvePartialCtx(ctx, g, sizes, mode, p, 0, p.NSource)
	if err != nil {
		return nil, err
	}
	return part.reduce(sizes), nil
}

// orBackground normalizes a nil context.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// validateCurveArgs checks a curve sweep's arguments.
func validateCurveArgs(g *graph.Graph, sizes []int, mode Mode, p Protocol) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if mode != Distinct && mode != WithReplacement {
		return valid.Badf("mcast: unknown mode %v", mode)
	}
	if g.N() < 2 {
		return valid.Badf("mcast: graph too small (N=%d)", g.N())
	}
	if len(sizes) == 0 {
		return valid.Badf("mcast: empty group-size grid")
	}
	maxPop := g.N()
	if !p.IncludeSource {
		maxPop--
	}
	for _, s := range sizes {
		if s <= 0 {
			return valid.Badf("mcast: group size %d must be positive", s)
		}
		if mode == Distinct && s > maxPop {
			return valid.Badf("mcast: m=%d exceeds receiver population %d", s, maxPop)
		}
	}
	return nil
}

// drawSources pre-draws the protocol's source sequence deterministically.
func drawSources(g *graph.Graph, p Protocol) []int {
	srcRand := rng.NewChild(p.Seed, -1)
	sources := make([]int, p.NSource)
	for i := range sources {
		sources[i] = srcRand.Intn(g.N())
	}
	return sources
}

// newCurvePartial allocates the accumulator of the source block [srcLo,
// srcHi): four float64 slabs carved from one allocation and one int slab,
// each indexed [lane*K + k] with lane = si - srcLo. The reduction walks the
// slabs in source order, so the float result is deterministic regardless of
// worker scheduling.
func newCurvePartial(nSource, k, srcLo, srcHi int) *CurvePartial {
	cells := (srcHi - srcLo) * k
	slab := make([]float64, 4*cells)
	return &CurvePartial{
		NSource: nSource, K: k, SrcLo: srcLo, SrcHi: srcHi,
		RatioSum:   slab[0:cells],
		RatioSq:    slab[cells : 2*cells],
		LinkSum:    slab[2*cells : 3*cells],
		UnicastSum: slab[3*cells : 4*cells],
		Samples:    make([]int, cells),
	}
}

// add records one sample for block lane lane at size index k. Distinct
// sources never share a slab cell, so concurrent workers need no locking.
func (a *CurvePartial) add(lane, k int, ratio, links, unicast float64) {
	i := lane*a.K + k
	a.RatioSum[i] += ratio
	a.RatioSq[i] += ratio * ratio
	a.LinkSum[i] += links
	a.UnicastSum[i] += unicast
	a.Samples[i]++
}

// reduce aggregates the slabs into one Point per size, reducing in source
// order for a deterministic float result.
func (a *CurvePartial) reduce(sizes []int) []Point {
	nSource := len(a.Samples) / a.K
	points := make([]Point, len(sizes))
	for k := range sizes {
		var links, unicast, ratioSum, ratioSq float64
		n := 0
		for si := 0; si < nSource; si++ {
			i := si*a.K + k
			links += a.LinkSum[i]
			unicast += a.UnicastSum[i]
			ratioSum += a.RatioSum[i]
			ratioSq += a.RatioSq[i]
			n += a.Samples[i]
		}
		points[k] = Point{Size: sizes[k], Samples: n}
		if n > 0 {
			mean := ratioSum / float64(n)
			points[k].MeanRatio = mean
			points[k].MeanLinks = links / float64(n)
			points[k].MeanUnicast = unicast / float64(n)
			if n > 1 {
				variance := (ratioSq - float64(n)*mean*mean) / float64(n-1)
				if variance < 0 {
					variance = 0 // float cancellation guard
				}
				points[k].RatioStdErr = math.Sqrt(variance / float64(n))
			}
		}
	}
	return points
}

// runWorkersN runs nJobs source (or block-lane) jobs on panicsafe.RunJobs.
// Workers check ctx before picking up each job (the inner measurement loops
// additionally poll it at grid-point granularity), and a panicking job
// surfaces as an ordinary error from the engine instead of killing the
// process. Each job first passes failpoint "mcast.worker" inside the pool's
// recovered closure: latency rules stall a source job (a straggling
// worker), error rules abort the engine like a failing measurement, and
// panic rules surface as a *panicsafe.PanicError.
func runWorkersN(ctx context.Context, workers, nJobs int, job func(i int) error) error {
	return panicsafe.RunJobs(ctx, workers, nJobs, func(i int) error {
		if err := chaos.Maybe("mcast.worker"); err != nil {
			return err
		}
		return job(i)
	})
}

// sourceScratch is the per-worker reusable state of the curve engines: the
// tree buffers, the tree counter, the sampler (Reset per source), and the
// receiver buffer. Pooling it means steady-state measurement performs no
// per-source allocation beyond the RNG stream.
type sourceScratch struct {
	spt, spt2   graph.SPT // tree buffers, written only past the sweep's slab cap
	pd, pd2     []int64   // packed (dist, parent) words for the climbs
	rows, rows2 rankRows  // BFS-rank rows of the same trees for the dense sweep
	counter     *TreeCounter
	smp         Sampler
	recv        []int32
	// ar backs pd/pd2, the rank rows and the sampler scratch with recycled
	// slabs, so sweeping graphs of different scales (the large-graph
	// regime's 1M/10M interleavings) re-slabs instead of re-allocating. The
	// counter keeps plain make: its epoch array must be zeroed on growth
	// either way.
	ar *arena.Arena
}

var scratchPool = sync.Pool{New: func() any {
	sc := &sourceScratch{ar: arena.New()}
	sc.smp.ar = sc.ar
	sc.rows.ar = sc.ar
	sc.rows2.ar = sc.ar
	return sc
}}

func getScratch(n int) *sourceScratch {
	sc := scratchPool.Get().(*sourceScratch)
	if sc.counter == nil || len(sc.counter.visited) < n {
		sc.counter = NewTreeCounter(n)
	}
	return sc
}

// growPacked sizes a packed-word buffer for packTree through the arena.
func (sc *sourceScratch) growPacked(pd []int64, n int) []int64 {
	return sc.ar.GrowInt64(pd, n)
}

// prepare reads the source's tree from the sweep's trees and resets the
// sampler for the source. si is the source's global protocol index (it keys
// the per-source RNG stream); lane is its index in the sweep's trees, which
// a source-block partial sweep builds for its block only, so lane is si -
// SrcLo.
func (sc *sourceScratch) prepare(g *graph.Graph, si, lane int, p Protocol, trees *graph.SweepTrees) (*graph.SPT, error) {
	spt, err := trees.Tree(lane, &sc.spt)
	if err != nil {
		return nil, err
	}
	exclude := spt.Source
	if p.IncludeSource {
		exclude = -1
	}
	if err := sc.smp.Reset(g.N(), exclude, rng.NewChild(p.Seed, int64(si))); err != nil {
		return nil, err
	}
	return spt, nil
}

// draw fills sc.recv with the source's next receiver set of the given size.
func (sc *sourceScratch) draw(mode Mode, size int) (err error) {
	switch mode {
	case Distinct:
		sc.recv, err = sc.smp.Distinct(size, sc.recv)
	case WithReplacement:
		sc.recv, err = sc.smp.WithReplacement(size, sc.recv)
	default:
		err = fmt.Errorf("mcast: unknown mode %v", mode)
	}
	return err
}

// measureSourceIndependent runs the paper-faithful §2 inner loop for one
// source: an independent receiver set per (size, repetition), observing ctx
// at every grid point so cancellation interrupts even a single huge source.
// The tree is packed once per source and every sample measured through the
// fused counters (exact-integer equivalents of counter.Measure), chosen once
// per grid point (packed.go): climbs for small groups, and from the
// crossover up the dense rank sweep, which counts up to sweepLanes sets per
// pass. The sets are drawn, and their samples added, in repetition order
// either way. A Distinct grid point the size of the whole population (the
// paper's m = N − 1) has one set, the population itself, in every
// repetition: it is marked and swept once, its sample added NRcvr times,
// and the NRcvr draws are left owed to the sampler (Sampler.whole), which
// takes them only if the source draws again.
//
// si is the global source index (RNG identity); lane is the tree and
// accumulator slot (lane == si for a full sweep, si - SrcLo for a partial).
func measureSourceIndependent(ctx context.Context, g *graph.Graph, si, lane int, sizes []int, mode Mode, p Protocol, trees *graph.SweepTrees, acc *CurvePartial) error {
	sc := getScratch(g.N())
	defer scratchPool.Put(sc)
	spt, err := sc.prepare(g, si, lane, p, trees)
	if err != nil {
		return err
	}
	source := int32(spt.Source)
	sc.pd = packTree(spt, sc.growPacked(sc.pd, len(spt.Parent)))
	sc.rows.use(spt)
	perSweep := min(p.NRcvr, sweepLanes)
	var buf [sweepLanes]Measurement
	for k, size := range sizes {
		if err := ctx.Err(); err != nil {
			return err
		}
		if mode == Distinct && size == sc.smp.Population() {
			ms := buf[:1]
			ms[0].UnicastHops, ms[0].Receivers = sc.rows.markSet(0, -1, sc.smp.whole(p.NRcvr))
			sc.rows.sweep(ms)
			for rep := 0; rep < p.NRcvr && ms[0].Receivers > 0; rep++ {
				acc.add(lane, k, ms[0].Ratio(), float64(ms[0].Links), ms[0].AvgUnicast())
			}
			continue
		}
		swept := dense(size, perSweep, len(sc.pd))
		for rep := 0; rep < p.NRcvr; rep += perSweep {
			ms := buf[:min(perSweep, p.NRcvr-rep)]
			for j := range ms {
				if err := sc.draw(mode, size); err != nil {
					return err
				}
				if swept {
					ms[j].UnicastHops, ms[j].Receivers = sc.rows.markSet(j, -1, sc.recv)
				} else {
					ms[j] = sc.counter.measureClimb(source, sc.pd, sc.recv)
				}
			}
			if swept {
				sc.rows.sweep(ms)
			}
			for _, meas := range ms {
				if meas.Receivers == 0 {
					continue // source in a tiny component; skip sample
				}
				acc.add(lane, k, meas.Ratio(), float64(meas.Links), meas.AvgUnicast())
			}
		}
	}
	return nil
}

// LogSpacedSizes returns up to count distinct group sizes spanning [1, max],
// approximately geometrically spaced — the x-grid of the paper's log-scale
// figures.
func LogSpacedSizes(max, count int) []int {
	if max < 1 || count < 1 {
		return nil
	}
	if count > max {
		count = max
	}
	out := make([]int, 0, count)
	last := 0
	for i := 0; i < count; i++ {
		var v int
		if count == 1 {
			v = max
		} else {
			v = int(math.Pow(float64(max), float64(i)/float64(count-1)) + 0.5)
		}
		if v <= last {
			v = last + 1
		}
		if v > max {
			break
		}
		out = append(out, v)
		last = v
	}
	return out
}
