package graph

import (
	"runtime"
	"slices"
	"sync"
	"testing"
)

func TestSPTCacheHitReturnsSamePointer(t *testing.T) {
	c := NewSPTCache(1 << 20)
	g := randomGraph(1, 100, 200)
	first, err := c.Get(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Get(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatal("cache hit must return the cached SPT pointer")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	want, err := g.BFS(3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if first.Dist[v] != want.Dist[v] || first.Parent[v] != want.Parent[v] {
			t.Fatalf("cached SPT differs from BFS at node %d", v)
		}
	}
}

func TestSPTCacheKeyedByGraphIdentity(t *testing.T) {
	c := NewSPTCache(1 << 20)
	gA := randomGraph(1, 50, 100)
	gB := randomGraph(1, 50, 100) // same structure, different identity
	a, _ := c.Get(gA, 0)
	b, _ := c.Get(gB, 0)
	if a == b {
		t.Fatal("distinct graphs must get distinct cache entries")
	}
	if st := c.Stats(); st.Entries != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 entries / 2 misses", st)
	}
}

// A graph's index goes with its last entry, so the cache holds no graph it
// has no entry for; Clear drops every index.
func TestSPTCacheDropsGraphIndex(t *testing.T) {
	gA := randomGraph(1, 50, 100)
	gB := randomGraph(2, 50, 100)
	perTree := sptBytes(func() *SPT { s, _ := gA.BFS(0); return s }())
	c := NewSPTCache(perTree + perTree/2) // room for one tree
	graphs := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.graphs)
	}
	c.Get(gA, 0)
	c.Get(gA, 1) // evicts gA's tree of 0, keeps gA
	if n := graphs(); n != 1 {
		t.Fatalf("%d graph indexes, want gA's", n)
	}
	c.Get(gB, 2) // evicts gA's last tree
	if n, st := graphs(), c.Stats(); n != 1 || st.Entries != 1 || st.Evictions != 2 {
		t.Fatalf("%d graph indexes, %+v; want only gB's, with one entry", n, st)
	}
	c.Clear()
	if n := graphs(); n != 0 {
		t.Fatalf("%d graph indexes after Clear", n)
	}
}

func TestSPTCacheEvictionBound(t *testing.T) {
	g := randomGraph(2, 500, 1000)
	perTree := sptBytes(func() *SPT { s, _ := g.BFS(0); return s }())
	c := NewSPTCache(3 * perTree) // room for exactly 3 trees
	for src := 0; src < 10; src++ {
		if _, err := c.Get(g, src); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Bytes > st.Limit {
			t.Fatalf("cache over budget after source %d: %+v", src, st)
		}
	}
	st := c.Stats()
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3 (budget holds exactly 3 trees)", st.Entries)
	}
	if st.Evictions != 7 {
		t.Fatalf("evictions = %d, want 7", st.Evictions)
	}
	// LRU order: the survivors must be the three most recent sources.
	preBytes := st.Bytes
	for _, src := range []int{7, 8, 9} {
		if _, err := c.Get(g, src); err != nil {
			t.Fatal(err)
		}
	}
	st = c.Stats()
	if st.Misses != 10 || st.Hits != 3 || st.Bytes != preBytes {
		t.Fatalf("recent sources must still be cached: %+v", st)
	}
}

func TestSPTCacheLRUTouchOnHit(t *testing.T) {
	g := randomGraph(3, 200, 400)
	perTree := sptBytes(func() *SPT { s, _ := g.BFS(0); return s }())
	// A GetBatch hit touches LRU order as a Get hit does.
	for _, touch := range []struct {
		name string
		hit  func(c *SPTCache)
	}{
		{"Get", func(c *SPTCache) { c.Get(g, 0) }},
		{"GetBatch", func(c *SPTCache) { c.GetBatch(g, []int{0}, nil) }},
	} {
		c := NewSPTCache(2 * perTree)
		c.Get(g, 0)
		c.Get(g, 1)
		touch.hit(c) // touch 0: now 1 is the LRU victim
		c.Get(g, 2)  // evicts 1
		st := c.Stats()
		c.Get(g, 0)
		if after := c.Stats(); after.Hits != st.Hits+1 {
			t.Fatalf("%s: source 0 should have survived the eviction", touch.name)
		}
		c.Get(g, 1)
		if after := c.Stats(); after.Misses != st.Misses+1 {
			t.Fatalf("%s: source 1 should have been evicted", touch.name)
		}
	}
}

func TestSPTCacheErrorNotCached(t *testing.T) {
	c := NewSPTCache(1 << 20)
	g := randomGraph(4, 20, 40)
	if _, err := c.Get(g, -1); err == nil {
		t.Fatal("out-of-range source must error")
	}
	if _, err := c.Get(g, g.N()); err == nil {
		t.Fatal("out-of-range source must error")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("errors must not occupy the cache: %+v", st)
	}
	if _, err := c.Get(nil, 0); err == nil {
		t.Fatal("nil graph must error")
	}
}

func TestSPTCacheClearAndSetLimit(t *testing.T) {
	c := NewSPTCache(1 << 20)
	g := randomGraph(5, 300, 600)
	for src := 0; src < 5; src++ {
		c.Get(g, src)
	}
	if st := c.Stats(); st.Entries != 5 {
		t.Fatalf("entries = %d, want 5", st.Entries)
	}
	perTree := sptBytes(func() *SPT { s, _ := g.BFS(0); return s }())
	if old := c.SetLimit(2 * perTree); old != 1<<20 {
		t.Fatalf("SetLimit returned %d, want previous limit", old)
	}
	if st := c.Stats(); st.Entries != 2 || st.Bytes > st.Limit {
		t.Fatalf("SetLimit must evict down to budget: %+v", st)
	}
	c.Clear()
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 {
		t.Fatalf("Clear must drop entries and counters: %+v", st)
	}
	if st.Limit != 2*perTree {
		t.Fatal("Clear must preserve the limit")
	}
}

func TestSPTCacheZeroBudgetDegradesToSingleflight(t *testing.T) {
	c := NewSPTCache(0)
	g := randomGraph(6, 100, 200)
	spt, err := c.Get(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if spt == nil || spt.Dist[1] != 0 {
		t.Fatal("zero-budget cache must still return a correct SPT")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("zero-budget cache must hold nothing: %+v", st)
	}
}

// TestSPTCacheConcurrent is the race test the satellite requires: many
// goroutines hammering a small source set must share singleflight fills and
// agree on every returned tree. Run under `make race`.
func TestSPTCacheConcurrent(t *testing.T) {
	c := NewSPTCache(1 << 20)
	g := randomGraph(7, 2000, 6000)
	const goroutines = 16
	const perG = 50
	const sourceMod = 8
	results := make([][]*SPT, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = make([]*SPT, perG)
			for i := 0; i < perG; i++ {
				spt, err := c.Get(g, (w+i)%sourceMod)
				if err != nil {
					t.Error(err)
					return
				}
				results[w][i] = spt
			}
		}(w)
	}
	wg.Wait()
	// Every fetch of the same source must have observed the same pointer
	// (nothing was evicted: budget far exceeds 8 small trees).
	bySource := make(map[int]*SPT)
	for w := 0; w < goroutines; w++ {
		for i := 0; i < perG; i++ {
			src := (w + i) % sourceMod
			if prev, ok := bySource[src]; ok {
				if prev != results[w][i] {
					t.Fatalf("source %d returned two distinct SPTs", src)
				}
			} else {
				bySource[src] = results[w][i]
			}
		}
	}
	st := c.Stats()
	if st.Entries != sourceMod {
		t.Fatalf("entries = %d, want %d", st.Entries, sourceMod)
	}
	if st.Hits+st.Misses != goroutines*perG {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, goroutines*perG)
	}
}

// TestSPTCacheConcurrentEviction races gets against an eviction-heavy budget:
// correctness here is "no deadlock, no panic, budget respected at rest".
func TestSPTCacheConcurrentEviction(t *testing.T) {
	g := randomGraph(8, 400, 800)
	perTree := sptBytes(func() *SPT { s, _ := g.BFS(0); return s }())
	c := NewSPTCache(2 * perTree)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := c.Get(g, (w*31+i)%64); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > st.Limit || st.Entries > 2 {
		t.Fatalf("cache over budget after concurrent churn: %+v", st)
	}
}

// TestSPTCacheGetBatch reads a batch holding duplicates and one source
// already cached. Every tree equals BFS's, in input order; duplicates share
// one pointer; hits count the lookups that found a tree, and misses the
// distinct sources the batch computed. A warm read allocates nothing.
func TestSPTCacheGetBatch(t *testing.T) {
	g := randomGraph(9, 300, 600)
	c := NewSPTCache(1 << 20)
	cached, err := c.Get(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	sources := []int{7, 5, 7, 0, 5, 299, 7}
	trees, err := c.GetBatch(g, sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != len(sources) {
		t.Fatalf("%d trees for %d sources", len(trees), len(sources))
	}
	for i, s := range sources {
		want, err := g.BFS(s)
		if err != nil {
			t.Fatal(err)
		}
		if trees[i].Source != s || !slices.Equal(trees[i].Dist, want.Dist) || !slices.Equal(trees[i].Parent, want.Parent) {
			t.Fatalf("tree %d (source %d) differs from BFS", i, s)
		}
	}
	if trees[0] != trees[2] || trees[0] != trees[6] || trees[1] != cached || trees[4] != cached {
		t.Fatal("duplicate sources must share one tree, the cached one where it exists")
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 4 || st.Entries != 4 {
		t.Fatalf("stats = %+v, want 2 hits (source 5 twice), 4 misses (the Get's and the batch's 7, 0, 299), 4 entries", st)
	}
	if got, err := c.Get(g, 299); err != nil || got != trees[5] {
		t.Fatalf("Get after the batch: %p, %v; want the batch's tree %p", got, err, trees[5])
	}

	dst := trees
	allocs := testing.AllocsPerRun(20, func() {
		if dst, err = c.GetBatch(g, sources, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm GetBatch allocates %v times per call", allocs)
	}
	if !slices.Equal(dst, trees) {
		t.Fatal("a warm read must return the cached trees")
	}

	fill := NewSPTCache(1 << 20)
	if err := fill.FillBatch(g, sources); err != nil {
		t.Fatal(err)
	}
	if err := fill.FillBatch(g, sources); err != nil {
		t.Fatal(err)
	}
	if st := fill.Stats(); st.Entries != 4 || st.Misses != 4 || st.Hits != uint64(len(sources)) {
		t.Fatalf("FillBatch twice: stats = %+v, want 4 entries, 4 misses (the first fill's), %d hits", st, len(sources))
	}
}

// A source repeated within a cold batch is computed once, and the tree goes
// to every index that names it, whichever 64-lane group computed it; a
// stale dst entry is overwritten at every index.
func TestSPTCacheGetBatchRepeatedMiss(t *testing.T) {
	g := randomGraph(12, 300, 600)
	c := NewSPTCache(1 << 30)
	var sources []int
	for s := range 70 {
		sources = append(sources, s)
	}
	sources = append(sources, 3, 68, 3, 69)
	stale := &SPT{Source: -1}
	dst := make([]*SPT, len(sources))
	for i := range dst {
		dst[i] = stale
	}
	trees, err := c.GetBatch(g, sources, dst)
	if err != nil {
		t.Fatal(err)
	}
	first := map[int]*SPT{}
	for i, s := range sources {
		tr := trees[i]
		if tr == stale || tr.Source != s || tr.Dist[s] != 0 {
			t.Fatalf("trees[%d] = %p (source %d), want the tree of source %d", i, tr, tr.Source, s)
		}
		if f, ok := first[s]; ok && f != tr {
			t.Fatalf("source %d repeated at index %d: %p, want the same tree %p as its first index", s, i, tr, f)
		}
		first[s] = tr
	}
	if st := c.Stats(); st.Misses != 70 || st.Hits != 0 || st.Entries != 70 {
		t.Fatalf("stats = %+v, want 70 misses, no hits, 70 entries", st)
	}
}

// A cold GetBatch allocates each tree once and nothing the size of the batch
// besides: after two collections have emptied the pools, as the benchmark
// does before each iteration, it may allocate the k trees (Dist, Parent and
// Order, at most 12·n bytes each, plus the stagger of each tree's start,
// under 4 KiB, which can cost it one more 8 KiB page), the kernel's lane
// masks and frontier bitsets (3·n and 2·n/64 words), the graph's index
// (8·n bytes) and a few hundred bytes of entry per tree. n·4 is a multiple
// of the page size, so each array costs exactly its length.
func TestSPTCacheColdFillAllocatesOnlyTheTrees(t *testing.T) {
	const n, k = 8192, 40
	g := randomGraph(21, n, 2*n)
	sources := make([]int, k)
	for i := range sources {
		sources[i] = i * (n / k)
	}
	c := NewSPTCache(1 << 30)
	trees := make([]*SPT, k)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	trees, err := c.GetBatch(g, sources, trees)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	words := (n + 63) / 64
	masks := 8 * (3*n + 2*words)
	bookkeeping := 8*n + k*512 + 16<<10
	treeBytes := k * (12*n + 8<<10)
	limit := uint64(treeBytes + masks + bookkeeping)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("cold GetBatch allocated %d bytes, limit %d", got, limit)
	if got > limit {
		t.Fatalf("cold GetBatch of %d sources on %d nodes allocated %d bytes, want at most %d (trees %d, masks %d, bookkeeping %d)",
			k, n, got, limit, treeBytes, masks, bookkeeping)
	}
	// Past 32 KiB a tree's start is staggered by its lane: its arrays must
	// still be exactly the BFS tree's.
	for i, s := range sources {
		want, err := g.BFS(s)
		if err != nil {
			t.Fatal(err)
		}
		tr := trees[i]
		if tr.Source != s || !slices.Equal(tr.Dist, want.Dist) || !slices.Equal(tr.Parent, want.Parent) || len(tr.Order) != n {
			t.Fatalf("tree %d (source %d) differs from BFS", i, s)
		}
		if cap(tr.Dist) != n || cap(tr.Parent) != n {
			t.Fatalf("tree %d capacities %d/%d, want %d", i, cap(tr.Dist), cap(tr.Parent), n)
		}
	}
}

// A zero budget evicts every tree the batch computes, and the batch returns
// every one all the same.
func TestSPTCacheGetBatchZeroBudget(t *testing.T) {
	g := randomGraph(10, 200, 400)
	c := NewSPTCache(0)
	sources := []int{3, 1, 3, 4}
	trees, err := c.GetBatch(g, sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		if trees[i] == nil || trees[i].Source != s || trees[i].Dist[s] != 0 {
			t.Fatalf("tree %d: %+v, want the tree of source %d", i, trees[i], s)
		}
	}
	if trees[0] != trees[2] {
		t.Fatal("a duplicate must share its tree even when nothing is kept")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions != 3 {
		t.Fatalf("stats = %+v, want nothing kept and 3 evictions", st)
	}
}

// An out-of-range source fails the whole read before any lookup, so no
// entry is left in flight.
func TestSPTCacheGetBatchOutOfRange(t *testing.T) {
	g := randomGraph(11, 50, 100)
	c := NewSPTCache(1 << 20)
	for _, bad := range []int{-1, g.N()} {
		if trees, err := c.GetBatch(g, []int{0, bad, 1}, nil); err == nil {
			t.Fatalf("source %d: got %d trees, want an error", bad, len(trees))
		}
		if err := c.FillBatch(g, []int{bad}); err == nil {
			t.Fatalf("FillBatch of source %d: want an error", bad)
		}
	}
	if _, err := c.GetBatch(nil, []int{0}, nil); err == nil {
		t.Fatal("nil graph must error")
	}
	if st := c.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("failed reads touched the cache: %+v", st)
	}
	if trees, err := c.GetBatch(g, nil, nil); err != nil || len(trees) != 0 {
		t.Fatalf("empty batch: %v, %v", trees, err)
	}
}
