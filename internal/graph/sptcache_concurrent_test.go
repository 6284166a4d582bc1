package graph

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Hammer the SPT cache from many goroutines while the byte budget is being
// shrunk, grown, and cleared underneath them — unlike the churn test in
// sptcache_test.go, the limit itself moves during the race. Run under -race,
// this is the eviction path's data-race check; the assertions verify that
// whatever the interleaving, every Get still answers with a correct tree.
func TestSPTCacheConcurrentEvictionWithLimitChurn(t *testing.T) {
	g := randomGraph(7, 200, 500)
	// A budget of ~3 trees forces constant eviction under 8 workers × 16
	// sources.
	small := 3 * sptBytes(&SPT{Parent: make([]int32, g.N()), Dist: make([]int32, g.N()), Order: make([]int32, g.N())})
	c := NewSPTCache(small)

	want := make([]*SPT, 16)
	for s := 0; s < 16; s++ {
		spt, err := g.BFS(s)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = spt
	}

	var wrong atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				src := (w*31 + i) % 16
				spt, err := c.Get(g, src)
				if err != nil {
					t.Error(err)
					return
				}
				// Spot-check a few nodes against the reference tree.
				for _, v := range []int{0, g.N() / 2, g.N() - 1} {
					if spt.Dist[v] != want[src].Dist[v] {
						wrong.Add(1)
					}
				}
				switch i % 75 {
				case 20:
					c.SetLimit(small / 2)
				case 40:
					c.SetLimit(small * 4)
				case 60:
					c.Clear()
				}
			}
		}(w)
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d stale/corrupt SPT reads under concurrent eviction", n)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("budget never forced an eviction (stats %+v); the test exercised nothing", st)
	}
	if st.Bytes < 0 || st.Entries < 0 {
		t.Fatalf("negative accounting after the hammer: %+v", st)
	}

	// With a sane budget restored, the cache still converges to steady hits.
	c.SetLimit(small * 16)
	a, err := c.Get(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Get(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache no longer memoizes after the eviction hammer")
	}
}

// A non-positive budget degrades the cache to singleflight-only but must
// stay correct and race-free under concurrency.
func TestSPTCacheZeroBudgetConcurrent(t *testing.T) {
	g := randomGraph(11, 120, 240)
	c := NewSPTCache(0)
	ref, err := g.BFS(5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				spt, err := c.Get(g, 5)
				if err != nil {
					t.Error(err)
					return
				}
				if spt.Dist[g.N()-1] != ref.Dist[g.N()-1] {
					t.Error("zero-budget cache returned a wrong tree")
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes != 0 {
		t.Fatalf("zero-budget cache retains %d bytes", st.Bytes)
	}
}

// GetBatch enters its misses in flight before the traversal, so a Get of
// one of them that arrives mid-fill waits for that fill: it returns the
// batch's tree and computes none of its own (no miss of its own). The graph is large
// enough that the fill takes milliseconds; the test retries until its Get
// found the entry still in flight, and every attempt checks the outcome.
func TestSPTCacheGetDuringGetBatchFill(t *testing.T) {
	g := randomGraph(12, 200_000, 200_000)
	sources := []int{11, 22, 33, 44}
	sawInFlight := false
	for attempt := 0; attempt < 5 && !sawInFlight; attempt++ {
		c := NewSPTCache(1 << 30)
		var trees []*SPT
		var batchErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			trees, batchErr = c.GetBatch(g, sources, nil)
		}()
		inFlight := func() bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			e := c.lookupLocked(g, sources[2])
			if e == nil {
				return false
			}
			select {
			case <-e.ready:
				return false
			default:
				return true
			}
		}
	poll:
		for !inFlight() {
			select {
			case <-done:
				break poll
			default:
				runtime.Gosched()
			}
		}
		sawInFlight = inFlight()
		got, err := c.Get(g, sources[2])
		<-done
		if err != nil || batchErr != nil {
			t.Fatalf("Get: %v; GetBatch: %v", err, batchErr)
		}
		if got != trees[2] {
			t.Fatal("a Get of a key the batch had in flight returned another tree")
		}
		if st := c.Stats(); st.Misses != uint64(len(sources)) || st.Hits != 1 {
			t.Fatalf("stats = %+v, want the Get's hit and the batch's %d misses", st, len(sources))
		}
	}
	if !sawInFlight {
		t.Fatal("no attempt caught the batch's fill in flight")
	}
}

// GetBatch waits for a tree another caller has in flight, and it waits
// without the cache lock: a Get of another source completes meanwhile. The
// in-flight entry is planted as Get leaves one before its BFS.
func TestSPTCacheGetBatchWaitsForInFlight(t *testing.T) {
	g := randomGraph(13, 300, 600)
	c := NewSPTCache(1 << 20)
	c.mu.Lock()
	e := c.indexLocked(g).enter(g, 9)
	c.pushFrontLocked(e)
	c.mu.Unlock()

	var trees []*SPT
	var batchErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		trees, batchErr = c.GetBatch(g, []int{4, 9, 6}, nil)
	}()
	// Bytes are accounted once the batch has filled its own misses, 4 and
	// 6; from then on it waits for 9.
	for c.Stats().Bytes == 0 {
		runtime.Gosched()
	}
	if _, err := c.Get(g, 100); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		t.Fatal("GetBatch returned before the in-flight tree was ready")
	default:
	}
	spt, err := g.BFS(9)
	if err != nil {
		t.Fatal(err)
	}
	e.spt = spt
	close(e.ready)
	<-done
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	if trees[1] != spt || trees[0].Source != 4 || trees[2].Source != 6 {
		t.Fatalf("trees for sources 4, 9, 6: %d, %p, %d; want the in-flight tree %p in the middle",
			trees[0].Source, trees[1], trees[2].Source, spt)
	}
}
