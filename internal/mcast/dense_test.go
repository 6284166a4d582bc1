package mcast

import (
	"fmt"
	"testing"

	"mtreescale/internal/arena"
	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
	"mtreescale/internal/topology"
)

// diffDense counts one group on the source tree srcT and the core tree
// coreT at all three counter call sites — measure, tree size and shared
// tree size — by the dense sweep and by climbs, checks both against the
// unpacked reference counters, and checks the sweep left every mark clear.
// It returns "" when everything agrees. Receivers must be node ids, as the
// Sampler draws them.
func diffDense(srcT, coreT *graph.SPT, recv []int32) string {
	n := len(srcT.Dist)
	c := NewTreeCounter(n)
	ar := arena.New()
	pd, pd2 := packTree(srcT, nil), packTree(coreT, nil)
	rows, rows2 := &rankRows{ar: ar}, &rankRows{ar: ar}
	rows.use(srcT)
	rows2.use(coreT)
	source, core := int32(srcT.Source), int32(coreT.Source)

	want := c.Measure(srcT, recv)
	if got := c.measureClimb(source, pd, recv); got != want {
		return fmt.Sprintf("measure: climb %+v, reference %+v", got, want)
	}
	if got := rows.countDense(-1, recv); got != want {
		return fmt.Sprintf("measure: dense %+v, reference %+v", got, want)
	}
	if got := c.measurePacked(source, pd, rows, recv); got != want {
		return fmt.Sprintf("measurePacked %+v, reference %+v", got, want)
	}
	if got := c.treeSizeClimb(source, pd, recv); got != want.Links {
		return fmt.Sprintf("tree size: climb %d, reference %d", got, want.Links)
	}
	if got := c.treeSizePacked(source, pd, rows, recv); got != want.Links {
		return fmt.Sprintf("treeSizePacked %d, reference %d", got, want.Links)
	}
	shr := c.SharedTreeSize(coreT, source, recv)
	if got := c.sharedTreeSizeClimb(core, pd2, source, recv); got != shr {
		return fmt.Sprintf("shared: climb %d, reference %d", got, shr)
	}
	if got := rows2.countDense(source, recv).Links; got != shr {
		return fmt.Sprintf("shared: dense %d, reference %d", got, shr)
	}
	if got := c.sharedTreeSizePacked(core, pd2, rows2, source, recv); got != shr {
		return fmt.Sprintf("sharedTreeSizePacked %d, reference %d", got, shr)
	}
	for _, rr := range []*rankRows{rows, rows2} {
		for k, m := range rr.mark {
			if m != 0 {
				return fmt.Sprintf("mark[%d] = %d left set after the sweep", k, m)
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
// hops and receiver counts must match exactly. Every case runs on the
// cached tree and on the batch lane view of the same source, whose rows come
// from a counting sort of Dist instead of Order.
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
	cases := []struct {
		name      string
		g         *graph.Graph
		src, core int
		recv      []int32
	}{
		{"path from an end", path, 0, 5, []int32{9, 3, 7}},
		{"path from the middle", path, 4, 9, []int32{0, 9, 2, 6}},
		{"star from a leaf", star, 3, 0, []int32{1, 2, 4, 5, 6, 7, 8}},
		{"star from the hub", star, 0, 5, []int32{8, 1}},
		{"4-cycle tie", cycle, 0, 2, []int32{2, 3}},
		{"ladder", ladder, 0, 11, []int32{5, 11, 8, 3}},
		{"two components, unreachable receivers", split, 1, 6, []int32{4, 6, 8, 0, 5}},
		{"core in the other component", split, 2, 7, []int32{0, 1, 3, 4}},
		{"empty group", rnd, 3, 9, nil},
		{"duplicate receivers", rnd, 3, 9, draw(t, rnd, 3, 150, true)},
		{"source as receiver", rnd, 3, 9, draw(t, rnd, -1, 60, false)},
		{"shared source is the core", rnd, 3, 3, draw(t, rnd, 3, 30, false)},
		{"m = 1", rnd, 3, 9, draw(t, rnd, 3, 1, false)},
		{"m = P", rnd, 3, 9, draw(t, rnd, 3, 59, false)},
	}
	for _, tc := range cases {
		for _, lane := range []bool{false, true} {
			name := tc.name + "/cached"
			if lane {
				name = tc.name + "/lane"
			}
			t.Run(name, func(t *testing.T) {
				srcT, coreT := denseTrees(t, tc.g, tc.src, tc.core, lane)
				if d := diffDense(srcT, coreT, tc.recv); d != "" {
					t.Fatal(d)
				}
			})
		}
	}
}

// decodeDenseInput builds a graph of at most 64 nodes, a source, a core and
// a receiver group from fuzz bytes. Receivers are node ids, duplicates
// allowed, as the Sampler draws them.
func decodeDenseInput(data []byte) (g *graph.Graph, src, core int, recv []int32) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := next()%64 + 1
	b := graph.NewBuilder(n)
	for e := next(); e > 0 && len(data) >= 2; e-- {
		_ = b.AddEdge(next()%n, next()%n) // in range; self-loops are dropped
	}
	src, core = next()%n, next()%n
	for len(data) > 0 {
		recv = append(recv, int32(next()%n))
	}
	return b.Build(), src, core, recv
}

// FuzzDenseEquivalence runs diffDense on arbitrary small graphs, sources,
// cores and groups — disconnected graphs, duplicate receivers and the
// source among them included — on both the cached tree and the lane view.
func FuzzDenseEquivalence(f *testing.F) {
	f.Add([]byte{10, 9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 1, 5, 9, 3, 3})
	f.Add([]byte{5, 4, 0, 1, 0, 2, 0, 3, 0, 4, 2, 0, 3, 4, 2})
	f.Add([]byte{4, 4, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 2, 3})
	f.Add([]byte{9, 3, 0, 1, 1, 2, 5, 6, 0, 6, 2, 5, 6, 8, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, src, core, recv := decodeDenseInput(data)
		for _, lane := range []bool{false, true} {
			srcT, coreT := denseTrees(t, g, src, core, lane)
			if d := diffDense(srcT, coreT, recv); d != "" {
				t.Fatalf("lane=%v: %s", lane, d)
			}
		}
	})
}

// BenchmarkTreeSizeCrossover times one group count by climbs and by the
// dense rank sweep at m = N/1000, N/64, N/16, N/4 and N-1 on the internet
// map at half and full scale, so denseCrossover can be derived again on a
// new host (EXPERIMENTS.md records the table). ns/op is per receiver set;
// the rows sub-benchmark is the once-per-source cost of ranking the tree.
// It stays out of `make bench`'s recorded set.
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
		b.Run(fmt.Sprintf("N=%d/rows", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows.use(spt)
				rows.rank()
			}
		})
		c := NewTreeCounter(n)
		for _, m := range []int{n / 1000, n / 64, n / 16, n / 4, n - 1} {
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
			b.Run(fmt.Sprintf("N=%d/m=%d/dense", n, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkLinks += rows.countDense(-1, sets[i%len(sets)]).Links
				}
			})
		}
	}
}

var sinkLinks int
