package graph

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"mtreescale/internal/rng"
)

// checkBatchAgainstBFS asserts the MS-BFS contract for one (graph, sources)
// pair: every lane's Dist and Parent arrays are byte-identical to per-source
// BFS, and so is every tree a cold cache fills through the same kernel.
func checkBatchAgainstBFS(t *testing.T, g *Graph, sources []int) {
	t.Helper()
	b, err := g.BatchSPTs(sources)
	if err != nil {
		t.Fatal(err)
	}
	if b.Lanes() != len(sources) {
		t.Fatalf("batch has %d lanes, want %d", b.Lanes(), len(sources))
	}
	for i, s := range sources {
		want, err := g.BFS(s)
		if err != nil {
			t.Fatal(err)
		}
		dist, parent := b.DistRow(i), b.ParentRow(i)
		for v := 0; v < g.N(); v++ {
			if dist[v] != want.Dist[v] {
				t.Fatalf("lane %d (source %d) node %d: batch dist %d, BFS %d",
					i, s, v, dist[v], want.Dist[v])
			}
			if parent[v] != want.Parent[v] {
				t.Fatalf("lane %d (source %d) node %d: batch parent %d, BFS %d",
					i, s, v, parent[v], want.Parent[v])
			}
		}
	}
	checkColdCacheAgainstBFS(t, g, sources)
}

// checkColdCacheAgainstBFS reads sources through a cold cache, whose fill
// runs the kernel straight into each tree's own arrays, and checks every
// tree against BFS: Source, Dist and Parent exactly, and Order as the
// reachable nodes sorted by (distance, index). Each tree must be a valid
// standalone SPT whose arrays are sized exactly, as the cache's byte
// accounting assumes.
func checkColdCacheAgainstBFS(t *testing.T, g *Graph, sources []int) {
	t.Helper()
	trees, err := NewSPTCache(1<<30).GetBatch(g, sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		want, err := g.BFS(s)
		if err != nil {
			t.Fatal(err)
		}
		tr := trees[i]
		if tr.Source != s || !slices.Equal(tr.Dist, want.Dist) || !slices.Equal(tr.Parent, want.Parent) {
			t.Fatalf("cached tree %d (source %d) differs from BFS", i, s)
		}
		order := slices.Clone(want.Order)
		slices.SortFunc(order, func(a, b int32) int {
			return cmp.Or(cmp.Compare(want.Dist[a], want.Dist[b]), cmp.Compare(a, b))
		})
		if !slices.Equal(tr.Order, order) {
			t.Fatalf("cached tree %d (source %d) Order %v, want %v", i, s, tr.Order, order)
		}
		if cap(tr.Dist) != g.N() || cap(tr.Parent) != g.N() || cap(tr.Order) != len(order) {
			t.Fatalf("cached tree %d capacities %d/%d/%d, want %d/%d/%d",
				i, cap(tr.Dist), cap(tr.Parent), cap(tr.Order), g.N(), g.N(), len(order))
		}
		checkParentValidity(t, g, tr)
	}
}

func TestBatchSPTsMatchesBFSRandom(t *testing.T) {
	f := func(seed int64, nRaw, extraRaw uint8, srcRaws [9]uint8) bool {
		n := int(nRaw%120) + 2
		g := randomGraph(seed, n, int(extraRaw))
		sources := make([]int, len(srcRaws))
		for i, s := range srcRaws {
			sources[i] = int(s) % n
		}
		b, err := g.BatchSPTs(sources)
		if err != nil {
			return false
		}
		for i, s := range sources {
			want, err := g.BFS(s)
			if err != nil {
				return false
			}
			dist, parent := b.DistRow(i), b.ParentRow(i)
			for v := 0; v < n; v++ {
				if dist[v] != want.Dist[v] || parent[v] != want.Parent[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchSPTsFullWidthAndSpill(t *testing.T) {
	// 100 sources spill over the 64-lane width: two traversal groups, one
	// slab. Duplicates occupy independent lanes.
	g := randomGraph(7, 300, 500)
	sources := make([]int, 100)
	for i := range sources {
		sources[i] = (i * 13) % g.N()
	}
	sources[50] = sources[0] // duplicate across groups
	checkBatchAgainstBFS(t, g, sources)
}

func TestBatchSPTsDisconnected(t *testing.T) {
	// Two components: lanes rooted in either side must mark the other side
	// unreachable, exactly like single-source BFS.
	b := NewBuilder(8)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 2)
	_ = b.AddEdge(3, 4)
	_ = b.AddEdge(4, 5)
	_ = b.AddEdge(5, 6)
	g := b.Build()
	checkBatchAgainstBFS(t, g, []int{0, 3, 7, 2})
}

func TestBatchSPTsIntoReuse(t *testing.T) {
	// A pooled batch refilled with fewer, then more sources must stay exact;
	// stale lanes from earlier fills may not leak through.
	g1 := randomGraph(3, 90, 150)
	g2 := randomGraph(4, 40, 20)
	b := AcquireSPTBatch()
	defer ReleaseSPTBatch(b)
	for _, tc := range []struct {
		g    *Graph
		srcs []int
	}{
		{g1, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{g2, []int{39, 0}},
		{g1, []int{89}},
	} {
		if err := tc.g.BatchSPTsInto(tc.srcs, b); err != nil {
			t.Fatal(err)
		}
		for i, s := range tc.srcs {
			want, err := tc.g.BFS(s)
			if err != nil {
				t.Fatal(err)
			}
			dist, parent := b.DistRow(i), b.ParentRow(i)
			for v := 0; v < tc.g.N(); v++ {
				if dist[v] != want.Dist[v] || parent[v] != want.Parent[v] {
					t.Fatalf("reused batch lane %d node %d: got %d/%d want %d/%d",
						i, v, dist[v], parent[v], want.Dist[v], want.Parent[v])
				}
			}
		}
	}
}

func TestBatchSPTsErrors(t *testing.T) {
	g := randomGraph(1, 10, 5)
	if _, err := g.BatchSPTs(nil); err == nil {
		t.Fatal("empty source list must error")
	}
	if _, err := g.BatchSPTs([]int{0, 10}); err == nil {
		t.Fatal("out-of-range source must error")
	}
	if _, err := g.BatchSPTs([]int{-1}); err == nil {
		t.Fatal("negative source must error")
	}
}

// FuzzMSBFSEquivalence cross-checks the MS-BFS kernel against single-source
// BFS on fuzzer-chosen graphs and source sets: every lane's distances and
// parents must match exactly, in a batch slab and in the trees a cold cache
// fills.
func FuzzMSBFSEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(40), []byte{0, 3, 9})
	f.Add(int64(2), uint8(90), uint8(0), []byte{1})
	f.Add(int64(3), uint8(200), uint8(255), []byte{0, 0, 5, 200, 63, 64, 65})
	f.Fuzz(func(t *testing.T, seed int64, nRaw, extraRaw uint8, srcBytes []byte) {
		n := int(nRaw%200) + 2
		g := randomGraph(seed, n, int(extraRaw))
		if len(srcBytes) == 0 {
			srcBytes = []byte{0}
		}
		if len(srcBytes) > 2*msbfsLanes+3 {
			srcBytes = srcBytes[:2*msbfsLanes+3] // cover multi-group without huge slabs
		}
		sources := make([]int, len(srcBytes))
		for i, sb := range srcBytes {
			sources[i] = int(sb) % n
		}
		b, err := g.BatchSPTs(sources)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sources {
			want, err := g.BFS(s)
			if err != nil {
				t.Fatal(err)
			}
			dist, parent := b.DistRow(i), b.ParentRow(i)
			for v := 0; v < n; v++ {
				if dist[v] != want.Dist[v] {
					t.Fatalf("lane %d (source %d) node %d: batch dist %d, BFS %d",
						i, s, v, dist[v], want.Dist[v])
				}
				if parent[v] != want.Parent[v] {
					t.Fatalf("lane %d (source %d) node %d: batch parent %d, BFS %d",
						i, s, v, parent[v], want.Parent[v])
				}
			}
		}
		checkColdCacheAgainstBFS(t, g, sources)
	})
}

// BenchmarkBatchSPTs64 traverses 64 sources through one MS-BFS batch on the
// BenchmarkBFS50k graph; BenchmarkBatchSPTs64Serial is the ablation running
// the same 64 sources through the serial kernel.
func BenchmarkBatchSPTs64(b *testing.B) {
	benchBatch64(b, randomGraph(1, 50000, 100000))
}

func BenchmarkBatchSPTs64Serial(b *testing.B) {
	g := randomGraph(1, 50000, 100000)
	sources := batch64Sources(g)
	var spt SPT
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sources {
			if err := g.BFSInto(s, &spt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func batch64Sources(g *Graph) []int {
	r := rng.New(2)
	sources := make([]int, msbfsLanes)
	for i := range sources {
		sources[i] = r.Intn(g.N())
	}
	return sources
}

func benchBatch64(b *testing.B, g *Graph) {
	sources := batch64Sources(g)
	batch := AcquireSPTBatch()
	defer ReleaseSPTBatch(batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.BatchSPTsInto(sources, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// The MS-BFS scratch keeps the masks of the largest graph it has traversed:
// after a 2,000-node traversal, sizing it for 500 nodes allocates nothing.
// It calls grow directly, not through the pool a collection may empty.
func TestScratchReuseAllocatesNothing(t *testing.T) {
	var sc msbfsScratch
	sc.grow(2000, (2000+63)/64)
	if n := testing.AllocsPerRun(10, func() { sc.grow(500, (500+63)/64) }); n != 0 {
		t.Fatalf("msbfsScratch.grow(500) after grow(2000) allocates %.1f/op", n)
	}
}
