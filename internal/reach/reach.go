// Package reach implements §4 of the paper: reachability functions S(r) and
// T(r) measured from real graphs, the expected delivery-tree size driven
// purely by reachability (Equations 22-23 and 30), and the synthetic
// reachability models of Figure 8.
package reach

import (
	"context"
	"fmt"
	"math"

	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
	"mtreescale/internal/stats"
)

// Reachability is the function S(r): the (possibly fractional, when averaged
// over sources) number of distinct sites exactly r hops from the source.
// S[0] counts the source itself and is 1 for single-source measurements.
type Reachability struct {
	S []float64
}

// Measure computes S(r) for one source by BFS.
func Measure(g *graph.Graph, source int) (*Reachability, error) {
	spt, err := g.BFS(source)
	if err != nil {
		return nil, err
	}
	hist := spt.DistHistogram()
	s := make([]float64, len(hist))
	for i, c := range hist {
		s[i] = float64(c)
	}
	return &Reachability{S: s}, nil
}

// MeasureAveraged computes S(r) averaged over nSources random sources drawn
// with replacement (the paper's Figure 7 protocol: "averaged over the
// Nsource choices for the source").
func MeasureAveraged(g *graph.Graph, nSources int, seed int64) (*Reachability, error) {
	return MeasureAveragedCached(context.Background(), g, nSources, seed, nil)
}

// sweepGroup is the number of sources MeasureAveragedCached fills at once:
// one MS-BFS lane group.
const sweepGroup = 64

// MeasureAveragedCached is MeasureAveraged routed through an SPT cache (nil
// disables caching). Experiments that histogram the same (graph, seed) pair —
// fig6 and fig7 share their per-topology source streams — reuse every tree on
// the second pass. S(r) entries are counts accumulated in exact float64
// integer arithmetic, so the result is the same either way. It polls ctx
// before each source's histogram and returns its error once the context is
// done. Trees are filled one MS-BFS lane group (sweepGroup sources) at a
// time, at the poll that starts the group, so a cancel waits for at most one
// group's fill rather than the whole sweep's.
func MeasureAveragedCached(ctx context.Context, g *graph.Graph, nSources int, seed int64, spts *graph.SPTCache) (*Reachability, error) {
	if nSources <= 0 {
		return nil, fmt.Errorf("reach: nSources must be > 0, got %d", nSources)
	}
	if g.N() == 0 {
		return nil, fmt.Errorf("reach: empty graph")
	}
	r := rng.New(seed)
	srcs := make([]int, nSources)
	for i := range srcs {
		srcs[i] = r.Intn(g.N())
	}
	var trees *graph.SweepTrees
	defer func() {
		if trees != nil {
			trees.Release()
		}
	}()
	var acc []float64
	var buf graph.SPT
	for i := range srcs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if i%sweepGroup == 0 {
			if trees != nil {
				trees.Release()
				trees = nil
			}
			group, err := graph.SweepSPTs(g, srcs[i:min(i+sweepGroup, len(srcs))], spts)
			if err != nil {
				return nil, err
			}
			trees = group
		}
		spt, err := trees.Tree(i%sweepGroup, &buf)
		if err != nil {
			return nil, err
		}
		for _, dd := range spt.Dist {
			if dd == graph.Unreachable {
				continue
			}
			d := int(dd)
			for len(acc) <= d {
				acc = append(acc, 0)
			}
			acc[d]++
		}
	}
	for i := range acc {
		acc[i] /= float64(nSources)
	}
	return &Reachability{S: acc}, nil
}

// Depth returns the maximum distance D with S(D) > 0.
func (r *Reachability) Depth() int {
	for d := len(r.S) - 1; d >= 0; d-- {
		if r.S[d] > 0 {
			return d
		}
	}
	return 0
}

// T returns T(d) = Σ_{j=1..d} S(j), the expected number of non-source sites
// within d hops. T(Depth()) is the total site population.
func (r *Reachability) T(d int) float64 {
	if d < 0 {
		return 0
	}
	sum := 0.0
	for j := 1; j <= d && j < len(r.S); j++ {
		sum += r.S[j]
	}
	return sum
}

// Sites returns the total number of non-source sites, T(D).
func (r *Reachability) Sites() float64 { return r.T(r.Depth()) }

// AvgDist returns the mean source→site distance C̄ implied by S(r).
func (r *Reachability) AvgDist() float64 {
	var num, den float64
	for d := 1; d < len(r.S); d++ {
		num += float64(d) * r.S[d]
		den += r.S[d]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// TCurve returns the points (r, T(r)) for r = 1..Depth — the curve plotted
// in Figure 7.
func (r *Reachability) TCurve() (rs []int, ts []float64) {
	d := r.Depth()
	for i := 1; i <= d; i++ {
		rs = append(rs, i)
		ts = append(ts, r.T(i))
	}
	return rs, ts
}

// ExpectedTreeLeaves evaluates Equation 23: the expected delivery-tree size
// when n receivers are drawn with replacement from the S(D) sites at the
// maximum distance D ("all receivers on leaf sites"), assuming receivers
// are equally likely to be downstream of any of the S(r) links at radius r:
//
//	L̄(n) = Σ_{r=1..D} S(r)·(1 − (1 − 1/S(r))^n)
func (r *Reachability) ExpectedTreeLeaves(n float64) (float64, error) {
	if n < 0 {
		return 0, fmt.Errorf("reach: negative n = %v", n)
	}
	sum := 0.0
	for d := 1; d < len(r.S); d++ {
		s := r.S[d]
		if s <= 0 {
			continue
		}
		if s <= 1 {
			// A single link at this radius is on the tree as soon as any
			// receiver exists.
			if n > 0 {
				sum += s
			}
			continue
		}
		sum += s * (1 - math.Exp(n*math.Log1p(-1/s)))
	}
	return sum, nil
}

// ExpectedTreeThroughout evaluates Equation 30: receivers drawn with
// replacement from all non-root sites,
//
//	L̄(n) = Σ_{l=1..D} S(l)·(1 − (1 − (T(D)−T(l−1)) / (S(l)·T(D)))^n)
func (r *Reachability) ExpectedTreeThroughout(n float64) (float64, error) {
	if n < 0 {
		return 0, fmt.Errorf("reach: negative n = %v", n)
	}
	total := r.Sites()
	if total <= 0 {
		return 0, fmt.Errorf("reach: no sites")
	}
	sum := 0.0
	tPrev := 0.0 // T(l-1)
	for l := 1; l < len(r.S); l++ {
		s := r.S[l]
		if s <= 0 {
			continue
		}
		p := (total - tPrev) / (s * total)
		if p > 1 {
			p = 1
		}
		sum += s * (1 - math.Exp(n*math.Log1p(-p)))
		tPrev += s
	}
	return sum, nil
}

// Delta2Leaves returns the second difference of Equation 23,
// Δ²L̄(n) = −Σ_{r=1..D} (1/S(r))·(1 − 1/S(r))^n — the general-network
// counterpart of the k-ary Equation 6 that §4.2's analysis differentiates.
func (r *Reachability) Delta2Leaves(n float64) (float64, error) {
	if n < 0 {
		return 0, fmt.Errorf("reach: negative n = %v", n)
	}
	sum := 0.0
	for d := 1; d < len(r.S); d++ {
		s := r.S[d]
		if s <= 1 {
			continue // a lone link at this radius contributes no curvature
		}
		sum += (1 / s) * math.Exp(n*math.Log1p(-1/s))
	}
	return -sum, nil
}

// HFunction evaluates §4.2's generalization of Equation 11 to an arbitrary
// reachability function, using M = S(D) leaf sites and C̄ = D:
//
//	h(x) = −ln( −x·(M ln M)·Δ²L̄(xM) / D )
//
// For exponential S(r) ≈ e^{λr}, §4.2 predicts h(x) ≈ x·e^{−λ/2}
// (Equation 28), with λ playing the role of ln k.
func (r *Reachability) HFunction(x float64) (float64, error) {
	if x <= 0 {
		return 0, fmt.Errorf("reach: h(x) needs x > 0, got %v", x)
	}
	depth := r.Depth()
	if depth < 1 {
		return 0, fmt.Errorf("reach: no radii")
	}
	M := r.S[depth]
	if M <= 1 {
		return 0, fmt.Errorf("reach: S(D) = %v too small for h(x)", M)
	}
	d2, err := r.Delta2Leaves(x * M)
	if err != nil {
		return 0, err
	}
	arg := -x * (M * math.Log(M)) * d2 / float64(depth)
	if arg <= 0 {
		return 0, fmt.Errorf("reach: h(%v) undefined (argument %v)", x, arg)
	}
	return -math.Log(arg), nil
}

// GrowthClass labels the shape of a reachability function.
type GrowthClass int

const (
	// GrowthExponential: ln T(r) is close to linear in r before saturation.
	GrowthExponential GrowthClass = iota
	// GrowthSubExponential: ln T(r) is concave (e.g. power law S(r) ≈ r^λ).
	GrowthSubExponential
	// GrowthSuperExponential: ln T(r) is convex (e.g. S(r) ≈ e^{λr²}).
	GrowthSuperExponential
)

// String implements fmt.Stringer.
func (c GrowthClass) String() string {
	switch c {
	case GrowthExponential:
		return "exponential"
	case GrowthSubExponential:
		return "sub-exponential"
	case GrowthSuperExponential:
		return "super-exponential"
	default:
		return fmt.Sprintf("GrowthClass(%d)", int(c))
	}
}

// Classify inspects ln T(r) over the pre-saturation range (T(r) below
// satFrac·T(D)) and classifies its curvature. This automates the visual
// judgment the paper makes on Figure 7 ("significant degree of concavity",
// "exhibit exponential growth before reaching the saturation point").
func (r *Reachability) Classify(satFrac float64) (GrowthClass, error) {
	if satFrac <= 0 || satFrac > 1 {
		return 0, fmt.Errorf("reach: satFrac must be in (0,1], got %v", satFrac)
	}
	total := r.Sites()
	var xs, ys []float64
	for d := 1; d <= r.Depth(); d++ {
		td := r.T(d)
		if td <= 0 {
			continue
		}
		if td > satFrac*total {
			break
		}
		xs = append(xs, float64(d))
		ys = append(ys, math.Log(td))
	}
	if len(xs) < 3 {
		return 0, fmt.Errorf("reach: too few pre-saturation radii (%d) to classify", len(xs))
	}
	// Compare first-half and second-half slopes of ln T(r).
	mid := len(xs) / 2
	fit1, err := stats.Linear(xs[:mid+1], ys[:mid+1])
	if err != nil {
		return 0, err
	}
	fit2, err := stats.Linear(xs[mid:], ys[mid:])
	if err != nil {
		return 0, err
	}
	const tol = 0.25 // relative slope change treated as straight
	switch {
	case fit2.Slope < fit1.Slope*(1-tol):
		return GrowthSubExponential, nil
	case fit2.Slope > fit1.Slope*(1+tol):
		return GrowthSuperExponential, nil
	default:
		return GrowthExponential, nil
	}
}
