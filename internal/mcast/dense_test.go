package mcast

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mtreescale/internal/arena"
	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
	"mtreescale/internal/topology"
)

// diffDense counts up to sweepLanes groups on the source tree srcT and the
// core tree coreT at all three counter call sites — measure, tree size and
// shared tree size. It marks group j in lane j of both trees (the shared
// tree with the source as extra member) and sweeps each tree once, then does
// it again with the lanes reversed on the same rows, and counts every group
// by climbs too. It checks every lane and every climb against the unpacked
// reference counters, and checks each sweep left every mark clear. It
// returns "" when everything agrees. Receivers must be node ids, as the
// Sampler draws them.
func diffDense(srcT, coreT *graph.SPT, groups [][]int32) string {
	n := len(srcT.Dist)
	c := NewTreeCounter(n)
	ar := arena.New()
	pd, pd2 := packTree(srcT, nil), packTree(coreT, nil)
	rows, rows2 := &rankRows{ar: ar}, &rankRows{ar: ar}
	rows.use(srcT)
	rows2.use(coreT)
	source, core := int32(srcT.Source), int32(coreT.Source)

	want := make([]Measurement, len(groups))
	shr := make([]int, len(groups))
	for j, recv := range groups {
		want[j] = c.Measure(srcT, recv)
		if got := c.measureClimb(source, pd, recv); got != want[j] {
			return fmt.Sprintf("group %d measure: climb %+v, reference %+v", j, got, want[j])
		}
		if got := c.treeSizeClimb(source, pd, recv); got != want[j].Links {
			return fmt.Sprintf("group %d tree size: climb %d, reference %d", j, got, want[j].Links)
		}
		shr[j] = c.SharedTreeSize(coreT, source, recv)
		if got := c.sharedTreeSizeClimb(core, pd2, source, recv); got != shr[j] {
			return fmt.Sprintf("group %d shared: climb %d, reference %d", j, got, shr[j])
		}
	}
	for _, reversed := range []bool{false, true} {
		ms := make([]Measurement, len(groups))
		shrMs := make([]Measurement, len(groups))
		lane := func(j int) int {
			if reversed {
				return len(groups) - 1 - j
			}
			return j
		}
		for j, recv := range groups {
			l := lane(j)
			ms[l].UnicastHops, ms[l].Receivers = rows.markSet(l, -1, recv)
			rows2.markSet(l, source, recv)
		}
		rows.sweep(ms)
		rows2.sweep(shrMs)
		for j := range groups {
			l := lane(j)
			if ms[l] != want[j] {
				return fmt.Sprintf("group %d in lane %d measure: sweep %+v, reference %+v", j, l, ms[l], want[j])
			}
			if shrMs[l].Links != shr[j] {
				return fmt.Sprintf("group %d in lane %d shared: sweep %d, reference %d", j, l, shrMs[l].Links, shr[j])
			}
		}
		for _, rr := range []*rankRows{rows, rows2} {
			for k, m := range rr.mark {
				if m != 0 {
					return fmt.Sprintf("mark[%d] = %#x left set after the sweep", k, m)
				}
			}
		}
	}
	return ""
}

// denseTrees resolves the source and core trees a case counts on: from an
// SPT cache (Order set) or as lane views of one MS-BFS batch (nil Order).
func denseTrees(t testing.TB, g *graph.Graph, src, core int, lane bool) (*graph.SPT, *graph.SPT) {
	t.Helper()
	if !lane {
		cache := graph.NewSPTCache(1 << 20)
		s, err := cache.Get(g, src)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cache.Get(g, core)
		if err != nil {
			t.Fatal(err)
		}
		return s, c
	}
	b := graph.AcquireSPTBatch()
	t.Cleanup(func() { graph.ReleaseSPTBatch(b) })
	if err := g.BatchSPTsInto([]int{src, core}, b); err != nil {
		t.Fatal(err)
	}
	var s, c graph.SPT
	b.Lane(0, &s)
	b.Lane(1, &c)
	if s.Order != nil || c.Order != nil {
		t.Fatal("lane view carries an Order")
	}
	return &s, &c
}

func buildGraph(t testing.TB, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// draw returns one receiver group from a Sampler over g's nodes, excluding
// exclude (-1 includes every node), distinct or with replacement.
func draw(t testing.TB, g *graph.Graph, exclude, size int, replace bool) []int32 {
	t.Helper()
	smp, err := NewSampler(g.N(), exclude, rng.New(int64(size)))
	if err != nil {
		t.Fatal(err)
	}
	var recv []int32
	if replace {
		recv, err = smp.WithReplacement(size, nil)
	} else {
		recv, err = smp.Distinct(size, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return recv
}

// TestDenseMatchesClimb checks the dense sweep against the climbs, and both
// against the reference counters, at all three call sites: links, unicast
// hops and receiver counts must match exactly. Cases with several groups
// sweep them together, one lane each, so a lane must not disturb its
// neighbours; the 600-node path and star put more than 255 marked ranks
// below one node, past what one byte counter holds between flushes. Every
// case runs on the cached tree and on the batch lane view of the same
// source, whose rows come from a counting sort of Dist instead of Order.
func TestDenseMatchesClimb(t *testing.T) {
	path := pathGraph(t, 10)
	star := buildGraph(t, 9, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}, {0, 8}})
	cycle := buildGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	ladder := buildGraph(t, 12, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
		{6, 7}, {7, 8}, {8, 9}, {9, 10}, {10, 11},
		{0, 6}, {1, 7}, {2, 8}, {3, 9}, {4, 10}, {5, 11},
	})
	split := buildGraph(t, 9, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6}, {6, 7}, {7, 8}})
	rnd := randGraph(7, 60, 40)
	longPath := pathGraph(t, 600)
	var spokes [][2]int
	for v := 1; v <= 600; v++ {
		spokes = append(spokes, [2]int{0, v})
	}
	bigStar := buildGraph(t, 601, spokes)
	cases := []struct {
		name      string
		g         *graph.Graph
		src, core int
		groups    [][]int32
	}{
		{"path from an end", path, 0, 5, [][]int32{{9, 3, 7}}},
		{"path from the middle", path, 4, 9, [][]int32{{0, 9, 2, 6}}},
		{"star from a leaf", star, 3, 0, [][]int32{{1, 2, 4, 5, 6, 7, 8}}},
		{"star from the hub", star, 0, 5, [][]int32{{8, 1}}},
		{"4-cycle tie", cycle, 0, 2, [][]int32{{2, 3}}},
		{"ladder", ladder, 0, 11, [][]int32{{5, 11, 8, 3}}},
		{"two components, unreachable receivers", split, 1, 6, [][]int32{{4, 6, 8, 0, 5}}},
		{"core in the other component", split, 2, 7, [][]int32{{0, 1, 3, 4}}},
		{"empty group", rnd, 3, 9, [][]int32{nil}},
		{"duplicate receivers", rnd, 3, 9, [][]int32{draw(t, rnd, 3, 150, true)}},
		{"source as receiver", rnd, 3, 9, [][]int32{draw(t, rnd, -1, 60, false)}},
		{"shared source is the core", rnd, 3, 3, [][]int32{draw(t, rnd, 3, 30, false)}},
		{"m = 1", rnd, 3, 9, [][]int32{draw(t, rnd, 3, 1, false)}},
		{"m = P", rnd, 3, 9, [][]int32{draw(t, rnd, 3, 59, false)}},
		{"two lanes on a path", path, 0, 5, [][]int32{{9}, {2, 3}}},
		{"eight mixed groups", rnd, 3, 9, [][]int32{
			nil,
			draw(t, rnd, 3, 150, true),
			draw(t, rnd, -1, 60, false),
			draw(t, rnd, 3, 1, false),
			draw(t, rnd, 3, 59, false),
			{3, 3, 3},
			draw(t, rnd, 3, 7, true),
			draw(t, rnd, 3, 20, false),
		}},
		{"three groups, shared source is the core", rnd, 3, 3, [][]int32{
			draw(t, rnd, 3, 30, false), nil, draw(t, rnd, -1, 5, true),
		}},
		{"five groups over two components", split, 1, 6, [][]int32{
			{4, 6, 8, 0, 5}, {5, 6, 7, 8}, nil, {0, 1, 2, 3, 4}, {8, 8, 1, 1},
		}},
		{"600-node path", longPath, 0, 599, [][]int32{{599}, {1, 2}, {599, 0, 300}, {450}, nil, {598, 599}}},
		{"600-leaf star", bigStar, 0, 7, [][]int32{
			draw(t, bigStar, 0, 600, false), draw(t, bigStar, 0, 300, false), {1}, draw(t, bigStar, -1, 601, false),
			draw(t, bigStar, 0, 900, true), nil, draw(t, bigStar, 0, 256, false), draw(t, bigStar, 0, 599, false),
		}},
	}
	for _, tc := range cases {
		for _, lane := range []bool{false, true} {
			name := tc.name + "/cached"
			if lane {
				name = tc.name + "/lane"
			}
			t.Run(name, func(t *testing.T) {
				srcT, coreT := denseTrees(t, tc.g, tc.src, tc.core, lane)
				if d := diffDense(srcT, coreT, tc.groups); d != "" {
					t.Fatal(d)
				}
			})
		}
	}
}

// fuzzBytes hands out fuzz input one byte at a time, and 0 once it runs
// out.
type fuzzBytes []byte

func (in *fuzzBytes) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// graph decodes a graph of at most 64 nodes: a node count, an edge count,
// then one byte pair per edge while two bytes remain.
func (in *fuzzBytes) graph() *graph.Graph {
	n := in.next()%64 + 1
	b := graph.NewBuilder(n)
	for e := in.next(); e > 0 && len(*in) >= 2; e-- {
		_ = b.AddEdge(in.next()%n, in.next()%n) // in range; self-loops are dropped
	}
	return b.Build()
}

// decodeDenseInput builds a graph of at most 64 nodes, a source, a core and
// one to sweepLanes receiver groups from fuzz bytes: each later byte pair
// adds one receiver to one group. Receivers are node ids, duplicates
// allowed, as the Sampler draws them.
func decodeDenseInput(data []byte) (g *graph.Graph, src, core int, groups [][]int32) {
	in := fuzzBytes(data)
	g = in.graph()
	n := g.N()
	src, core = in.next()%n, in.next()%n
	groups = make([][]int32, in.next()%sweepLanes+1)
	for len(in) >= 2 {
		j := in.next() % len(groups)
		groups[j] = append(groups[j], int32(in.next()%n))
	}
	return g, src, core, groups
}

// FuzzDenseEquivalence runs diffDense on arbitrary small graphs, sources,
// cores and batches of groups — disconnected graphs, empty groups,
// duplicate receivers and the source among them included — on both the
// cached tree and the lane view.
func FuzzDenseEquivalence(f *testing.F) {
	f.Add([]byte{10, 9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 1, 5, 2, 0, 9, 1, 3, 0, 3, 2, 1})
	f.Add([]byte{5, 4, 0, 1, 0, 2, 0, 3, 0, 4, 2, 0, 0, 0, 3, 0, 4, 0, 2})
	f.Add([]byte{4, 4, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 7, 0, 2, 7, 3, 3, 1, 5, 0})
	f.Add([]byte{9, 3, 0, 1, 1, 2, 5, 6, 0, 6, 3, 0, 2, 1, 5, 2, 6, 3, 8, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, src, core, groups := decodeDenseInput(data)
		for _, lane := range []bool{false, true} {
			srcT, coreT := denseTrees(t, g, src, core, lane)
			if d := diffDense(srcT, coreT, groups); d != "" {
				t.Fatalf("lane=%v: %s", lane, d)
			}
		}
	})
}

// perSetCurve is the curve engine's per-source loop as it was before sets
// were swept in batches, kept as a test oracle: every (size, rep) set of the
// source block [lo, hi) is drawn from its source's stream and counted alone
// by the reference counter, Measure.
func perSetCurve(t *testing.T, g *graph.Graph, sizes []int, mode Mode, p Protocol, lo, hi int) *CurvePartial {
	t.Helper()
	acc := newCurvePartial(p.NSource, len(sizes), lo, hi)
	c := NewTreeCounter(g.N())
	sources := drawSources(g, p)
	for si := lo; si < hi; si++ {
		spt, err := g.BFS(sources[si])
		if err != nil {
			t.Fatal(err)
		}
		exclude := sources[si]
		if p.IncludeSource {
			exclude = -1
		}
		smp, err := NewSampler(g.N(), exclude, rng.NewChild(p.Seed, int64(si)))
		if err != nil {
			t.Fatal(err)
		}
		var recv []int32
		for k, size := range sizes {
			for rep := 0; rep < p.NRcvr; rep++ {
				if mode == Distinct {
					recv, err = smp.Distinct(size, recv)
				} else {
					recv, err = smp.WithReplacement(size, recv)
				}
				if err != nil {
					t.Fatal(err)
				}
				meas := c.Measure(spt, recv)
				if meas.Receivers == 0 {
					continue
				}
				acc.add(si-lo, k, meas.Ratio(), float64(meas.Links), meas.AvgUnicast())
			}
		}
	}
	return acc
}

// perSetShared is perSetCurve for the shared-curve engine: each set is
// counted alone on the source tree by TreeSize and on the core tree by
// SharedTreeSize.
func perSetShared(t *testing.T, g *graph.Graph, sizes []int, strategy CoreStrategy, p Protocol, lo, hi int) *SharedPartial {
	t.Helper()
	acc := newSharedPartial(p.NSource, len(sizes), lo, hi)
	c := NewTreeCounter(g.N())
	sources, cores, err := drawSharedPairs(g, strategy, p)
	if err != nil {
		t.Fatal(err)
	}
	for si := lo; si < hi; si++ {
		srcT, err := g.BFS(sources[si])
		if err != nil {
			t.Fatal(err)
		}
		coreT, err := g.BFS(cores[si])
		if err != nil {
			t.Fatal(err)
		}
		smp, err := NewSampler(g.N(), sources[si], rng.NewChild(p.Seed, int64(si)))
		if err != nil {
			t.Fatal(err)
		}
		var recv []int32
		for k, size := range sizes {
			for rep := 0; rep < p.NRcvr; rep++ {
				if recv, err = smp.Distinct(size, recv); err != nil {
					t.Fatal(err)
				}
				src := c.TreeSize(srcT, recv)
				shr := c.SharedTreeSize(coreT, int32(sources[si]), recv)
				if src == 0 {
					continue
				}
				acc.add(si-lo, k, float64(src), float64(shr), float64(shr)/float64(src))
			}
		}
	}
	return acc
}

// matchPerSet runs the curve engine in both modes and the shared-curve
// engine over the source block [lo, hi) and fails t unless every partial
// equals perSetCurve's or perSetShared's, float for float. The shared engine
// keeps the source out of the population whatever IncludeSource says, so it
// runs sizes with N capped to N − 1. It returns the number of sets the curve
// engine skipped.
func matchPerSet(t *testing.T, g *graph.Graph, sizes []int, p Protocol, lo, hi int) (skipped int) {
	t.Helper()
	ctx := context.Background()
	for _, mode := range []Mode{Distinct, WithReplacement} {
		got, err := MeasureCurvePartialCtx(ctx, g, sizes, mode, p, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if want := perSetCurve(t, g, sizes, mode, p, lo, hi); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v, sizes %v, %+v: engine partial\n%+v\nper-set partial\n%+v", mode, sizes, p, got, want)
		}
		for _, c := range got.Samples {
			skipped += p.NRcvr - c
		}
	}
	shared := make([]int, len(sizes))
	for i, size := range sizes {
		shared[i] = min(size, g.N()-1)
	}
	got, err := MeasureSharedCurvePartialCtx(ctx, g, shared, CoreRandom, p, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if want := perSetShared(t, g, shared, CoreRandom, p, lo, hi); !reflect.DeepEqual(got, want) {
		t.Fatalf("shared, sizes %v, %+v: engine partial\n%+v\nper-set partial\n%+v", shared, p, got, want)
	}
	return skipped
}

// TestBatchedCurvesMatchPerSet checks the curve engine (both modes) and the
// shared-curve engine, which sweep up to sweepLanes sets per pass from the
// crossover up and count a grid point the size of the whole population once
// per source, against perSetCurve and perSetShared: the partial slabs must
// be equal, float for float. NRcvr covers one set, a batch one short, one
// full batch, one set over and five batches with a short tail; the trees are
// cached (ranked from Order) or batch lane views (ranked by counting sort);
// the block starts past source 0, so lanes and source indices differ; and a
// second component leaves some sets with no reachable receiver, which both
// loops must skip alike. The grids put the population size P last (the
// log-spaced grid), first, mid-grid and repeated, so the draws the engines
// skip there must be taken before every later size. P is N − 1, or N with
// IncludeSource.
func TestBatchedCurvesMatchPerSet(t *testing.T) {
	r := rng.New(5)
	b := graph.NewBuilder(400)
	for v := 1; v < 400; v++ {
		if v != 300 {
			lo := 0
			if v > 300 {
				lo = 300
			}
			_ = b.AddEdge(v, lo+r.Intn(v-lo))
		}
	}
	for i := 0; i < 150; i++ {
		u := r.Intn(300)
		_ = b.AddEdge(u, r.Intn(300))
	}
	g := b.Build()
	n := g.N()
	grids := []struct {
		name  string
		sizes func(pop int) []int
	}{
		{"P last", func(pop int) []int { return LogSpacedSizes(pop, 16) }},
		{"P first", func(pop int) []int { return []int{pop, 2, 40, 250} }},
		{"P mid-grid", func(pop int) []int { return []int{5, 120, pop, 30, 260} }},
		{"P repeated", func(pop int) []int { return []int{pop, 60, pop, pop, 9} }},
	}
	skipped := 0
	for _, nrcvr := range []int{1, 7, 8, 9, 41} {
		lanes := min(nrcvr, sweepLanes)
		if sizes := grids[0].sizes(n - 1); dense(sizes[0], lanes, n) || !dense(sizes[len(sizes)-2], lanes, n) {
			t.Fatalf("NRcvr=%d: sizes %v do not straddle the crossover below P", nrcvr, sizes)
		}
		for _, tree := range []string{"cached", "lane"} {
			t.Run(fmt.Sprintf("NRcvr=%d/%s", nrcvr, tree), func(t *testing.T) {
				for _, include := range []bool{false, true} {
					p := Protocol{NSource: 6, NRcvr: nrcvr, Seed: int64(nrcvr), SPTCache: tree == "cached", IncludeSource: include}
					pop := n - 1
					if include {
						pop = n
					}
					lo, hi := 1, p.NSource
					for _, grid := range grids {
						sizes := grid.sizes(pop)
						t.Run(fmt.Sprintf("IncludeSource=%v/%s", include, grid.name), func(t *testing.T) {
							skipped += matchPerSet(t, g, sizes, p, lo, hi)
						})
					}
				}
			})
		}
	}
	if skipped == 0 {
		t.Fatal("no set was skipped: the skip rule went untested")
	}
}

// FuzzCurveMatchesPerSet runs matchPerSet on arbitrary small graphs, as
// TestBatchedCurvesMatchPerSet does on one: after the graph (decoded as
// decodeDenseInput decodes it) come NRcvr (1 to 9), a flag byte
// (IncludeSource, cached trees or batch lane views), the seed and a grid
// of one to eight sizes, in which the population size P may appear anywhere
// and any number of times. It checks the source block [1, 3).
func FuzzCurveMatchesPerSet(f *testing.F) {
	f.Add([]byte{10, 9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 3, 0, 1, 3, 0, 2, 9, 0})
	f.Add([]byte{9, 8, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 8, 3, 7, 4, 5, 0, 4, 0, 0})
	f.Add([]byte{9, 3, 0, 1, 1, 2, 5, 6, 1, 1, 2, 2, 0, 3, 4})
	f.Add([]byte{2, 1, 0, 1, 4, 1, 0, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		g := in.graph()
		n := g.N()
		if n < 2 {
			return
		}
		nrcvr, flags := in.next()%9+1, in.next()
		p := Protocol{NSource: 3, NRcvr: nrcvr, Seed: int64(in.next()), IncludeSource: flags&1 != 0, SPTCache: flags&2 != 0}
		pop := n - 1
		if p.IncludeSource {
			pop = n
		}
		sizes := make([]int, in.next()%8+1)
		for i := range sizes {
			if b := in.next(); b%4 == 0 {
				sizes[i] = pop
			} else {
				sizes[i] = b%pop + 1
			}
		}
		if p.SPTCache {
			defer graph.SharedSPTs.Clear() // pin no fuzzed graph
		}
		matchPerSet(t, g, sizes, p, 1, 3)
	})
}

// BenchmarkTreeSizeCrossover times one group count by climbs and by the
// dense rank sweep at m = N/1000, N/256, N/64, N/16, N/4 and N-1 on the
// internet map at half and full scale, so denseCrossover can be derived
// again on a new host (EXPERIMENTS.md records the table). ns/op is per
// receiver set: dense marks one set and sweeps it alone, as a grid point
// with NRcvr = 1 does, and dense8 marks eight sets and sweeps them together,
// as every larger NRcvr does. The rows sub-benchmark is the once-per-source
// cost of ranking the tree. It stays out of `make bench`'s recorded set.
func BenchmarkTreeSizeCrossover(b *testing.B) {
	for _, scale := range []float64{0.5, 1} {
		g, err := topology.GenerateCached("internet", 0, scale)
		if err != nil {
			b.Fatal(err)
		}
		n := g.N()
		spt, err := g.BFS(0)
		if err != nil {
			b.Fatal(err)
		}
		pd := packTree(spt, nil)
		rows := &rankRows{ar: arena.New()}
		rows.use(spt)
		b.Run(fmt.Sprintf("N=%d/rows", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows.use(spt)
				rows.rank()
			}
		})
		c := NewTreeCounter(n)
		for _, m := range []int{n / 1000, n / 256, n / 64, n / 16, n / 4, n - 1} {
			smp, err := NewSampler(n, 0, rng.New(int64(m)))
			if err != nil {
				b.Fatal(err)
			}
			sets := make([][]int32, 16)
			for i := range sets {
				if sets[i], err = smp.Distinct(m, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(fmt.Sprintf("N=%d/m=%d/climb", n, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkLinks += c.measureClimb(0, pd, sets[i%len(sets)]).Links
				}
			})
			for _, lanes := range []int{1, sweepLanes} {
				name := "dense"
				if lanes > 1 {
					name = fmt.Sprintf("dense%d", lanes)
				}
				b.Run(fmt.Sprintf("N=%d/m=%d/%s", n, m, name), func(b *testing.B) {
					var ms [sweepLanes]Measurement
					for i := 0; i < b.N; i += lanes {
						batch := ms[:min(lanes, b.N-i)]
						for j := range batch {
							batch[j].UnicastHops, batch[j].Receivers = rows.markSet(j, -1, sets[(i+j)%len(sets)])
						}
						rows.sweep(batch)
						sinkLinks += batch[0].Links
					}
				})
			}
		}
	}
}

var sinkLinks int
