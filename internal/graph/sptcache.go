package graph

import (
	"fmt"
	"slices"
	"sync"
)

// SPTCache is a bounded, memory-accounted, LRU cache of shortest-path trees
// keyed by (graph identity, source). Graphs are immutable after Build and an
// SPT is a pure function of (graph, source), so one cached tree can serve
// every measurement that roots at that source — the §2 Monte-Carlo protocols
// draw sources with replacement from a shared stream, and independent
// experiments sweeping the same cached topology redraw the very same
// sources, so cross-experiment hit rates are high.
//
// Fills carry singleflight semantics: concurrent requests for a missing key
// block on one BFS instead of racing duplicates. Cached SPTs are shared and
// MUST be treated as read-only by callers; every consumer in this repository
// (TreeCounter, reach histograms, affinity chains) only reads them.
type SPTCache struct {
	mu     sync.Mutex
	limit  int64
	bytes  int64
	graphs map[*Graph]*sptIndex
	// lru is the sentinel of the circular LRU list: lru.next is the most
	// recently used entry, lru.prev the next eviction victim.
	lru       sptEntry
	hits      uint64
	misses    uint64
	evictions uint64
}

// sptIndex maps one graph's sources to their entries, filled or in flight.
// It costs 8 bytes per node of the graph, less than one tree of it (12),
// and is dropped with the graph's last entry, so the cache keeps no graph
// alive that it has no entry for.
type sptIndex struct {
	bySource []*sptEntry
	n        int // non-nil entries in bySource
}

type sptEntry struct {
	g          *Graph
	source     int
	prev, next *sptEntry     // LRU links, nil while the entry is unlinked
	ready      chan struct{} // closed once spt/err are set
	spt        *SPT
	err        error
	bytes      int64
}

// SPTCacheStats is a point-in-time snapshot of cache effectiveness.
type SPTCacheStats struct {
	// Entries and Bytes describe the currently cached trees.
	Entries int
	Bytes   int64
	// Limit is the byte budget entries are evicted against.
	Limit int64
	// Hits, Misses and Evictions are cumulative since construction or the
	// last Clear. A hit is a lookup that found its tree, filled or in
	// flight; a miss is a tree the cache computed, by Get or in a batch
	// read.
	Hits, Misses, Evictions uint64
}

// DefaultSPTCacheBytes is the byte budget of the process-wide SharedSPTs
// cache: enough for ~100 sources on a million-node topology (one SPT costs
// ~12 bytes/node) without threatening a simulation-sized heap.
const DefaultSPTCacheBytes int64 = 256 << 20

// SharedSPTs is the process-wide shortest-path-tree cache. The measurement
// engines route through it when their protocol asks for SPT caching.
var SharedSPTs = NewSPTCache(DefaultSPTCacheBytes)

// NewSPTCache returns an empty cache with the given byte budget. A
// non-positive limit means "no budget": every fill is evicted immediately,
// degrading the cache to singleflight-only.
func NewSPTCache(maxBytes int64) *SPTCache {
	c := &SPTCache{limit: maxBytes}
	c.Clear()
	return c
}

// sptBytes estimates the heap footprint of one cached tree from its arrays'
// capacities; allocator rounding and the stagger of a filled tree's start
// (under 4 KiB, see stagger) are left out.
func sptBytes(t *SPT) int64 {
	const entryOverhead = 128 // entry struct, index slot, LRU links
	return int64(cap(t.Parent)+cap(t.Dist)+cap(t.Order))*4 + entryOverhead
}

// Get returns the shortest-path tree rooted at source, filling the cache on
// a miss. The returned SPT is shared: callers must not modify it nor pass it
// to BFSInto. Concurrent callers of a missing key share one BFS.
func (c *SPTCache) Get(g *Graph, source int) (*SPT, error) {
	if g == nil {
		return nil, fmt.Errorf("graph: SPT cache needs a graph")
	}
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("graph: BFS source %d out of range [0,%d)", source, g.N())
	}
	c.mu.Lock()
	if e := c.lookupLocked(g, source); e != nil {
		c.hits++
		c.touchLocked(e)
		c.mu.Unlock()
		<-e.ready
		return e.spt, e.err
	}
	c.misses++
	e := c.indexLocked(g).enter(g, source)
	c.pushFrontLocked(e)
	c.mu.Unlock()

	e.spt, e.err = g.BFS(source)
	close(e.ready)

	c.mu.Lock()
	c.settleLocked(e)
	c.mu.Unlock()
	return e.spt, e.err
}

// FillBatch ensures trees for every given source are cached: GetBatch
// without the trees.
func (c *SPTCache) FillBatch(g *Graph, sources []int) error {
	return c.read(g, sources, nil)
}

// GetBatch returns the shortest-path trees rooted at sources, in input
// order, in dst grown to len(sources). It looks every source up under one
// lock hold, counting a hit for each tree found, filled or in flight, as Get
// does, and a miss for each distinct source it must compute; waits for
// in-flight trees outside the lock; and computes the misses through the
// multi-source BFS kernel in 64-lane groups, a duplicate source once,
// writing each tree straight into arrays of its own; the kernel's trees are
// the canonical ones Get computes. Each miss is entered in flight before its
// traversal, so a concurrent Get or GetBatch of it waits for this fill
// instead of repeating it. The trees are shared and read-only, as Get's
// are, and are returned even when the budget cannot keep them.
func (c *SPTCache) GetBatch(g *Graph, sources []int, dst []*SPT) ([]*SPT, error) {
	dst = slices.Grow(dst[:0], len(sources))[:len(sources)]
	if err := c.read(g, sources, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// read is GetBatch writing sources[i]'s tree to dst[i], or no tree when dst
// is nil.
func (c *SPTCache) read(g *Graph, sources []int, dst []*SPT) error {
	if g == nil {
		return fmt.Errorf("graph: SPT cache needs a graph")
	}
	for _, s := range sources {
		if s < 0 || s >= g.N() {
			return fmt.Errorf("graph: BFS source %d out of range [0,%d)", s, g.N())
		}
	}
	if len(sources) == 0 {
		return nil // and makes no index it would never drop
	}
	// Both lists are made on first use with room for every later source,
	// so a warm read allocates nothing and a cold one allocates each once.
	var own []sptSlot   // the misses this read computes, in first-occurrence order
	var waits []sptSlot // duplicates of a miss, and trees other callers have in flight
	c.mu.Lock()
	ix := c.indexLocked(g)
	for i, s := range sources {
		e := ix.bySource[s]
		switch {
		case e == nil:
			if own == nil {
				own = make([]sptSlot, 0, len(sources)-i)
			}
			own = append(own, sptSlot{i, ix.enter(g, s)})
			continue
		case e.next != nil:
			// A mapped entry is unlinked only while this loop holds the
			// lock after entering it as a miss: a duplicate source, which
			// is no hit.
			c.hits++
			c.touchLocked(e)
		}
		select {
		case <-e.ready:
			if e.err == nil {
				if dst != nil {
					dst[i] = e.spt
				}
				continue
			}
		default:
		}
		if waits == nil {
			waits = make([]sptSlot, 0, len(sources)-i)
		}
		waits = append(waits, sptSlot{i, e})
	}
	for _, o := range own {
		c.pushFrontLocked(o.e)
	}
	c.misses += uint64(len(own))
	c.mu.Unlock()

	if len(own) > 0 {
		fillInPlace(g, own)
		c.mu.Lock()
		for _, o := range own {
			c.settleLocked(o.e)
			if dst != nil {
				dst[o.i] = o.e.spt
			}
		}
		c.mu.Unlock()
	}
	for _, w := range waits {
		<-w.e.ready
		if w.e.err != nil {
			return w.e.err
		}
		if dst != nil {
			dst[w.i] = w.e.spt
		}
	}
	return nil
}

// sptSlot is a batch read's entry for sources[i].
type sptSlot struct {
	i int
	e *sptEntry
}

// fillInPlace computes the trees of entries in flight through the MS-BFS
// kernel in 64-lane groups, straight into each tree's own Dist and Parent
// (one allocation per tree), and marks each group's entries ready once their
// Orders are built. Nothing is copied, and every tree owns its arrays, so
// evicting it frees them: trees carved from one shared allocation would
// leave the budget counting bytes freed that stay live until the last of
// them goes.
func fillInPlace(g *Graph, own []sptSlot) {
	n := g.N()
	sc := msbfsScratchPool.Get().(*msbfsScratch)
	defer msbfsScratchPool.Put(sc)
	var sources [msbfsLanes]int
	var dist, parent [msbfsLanes][]int32
	for base := 0; base < len(own); base += msbfsLanes {
		group := own[base:min(base+msbfsLanes, len(own))]
		for i, o := range group {
			e := o.e
			s := stagger(i, n)
			buf := make([]int32, s+2*n)
			e.spt = &SPT{Source: e.source, Dist: buf[s : s+n : s+n], Parent: buf[s+n:]}
			sources[i], dist[i], parent[i] = e.source, e.spt.Dist, e.spt.Parent
		}
		k := len(group)
		g.msbfsGroup(sources[:k], dist[:k], parent[:k], sc)
		for _, o := range group {
			o.e.spt.Order = levelOrder(o.e.spt.Dist)
			close(o.e.ready)
		}
	}
}

// stagger returns how far, in int32s, the tree in the given lane starts
// into its allocation: one 64-byte cache line per lane once the tree's Dist
// and Parent pass 32 KiB. The runtime starts allocations that large on a page
// boundary, and the kernel writes every discovering lane's row at the same
// node at once, so unstaggered rows would all contend for one L1 set.
// Smaller trees skip it: up to 4 KiB would be a large share of them.
func stagger(lane, n int) int {
	if 8*n <= 32<<10 {
		return 0
	}
	return lane * 16
}

// lookupLocked returns the entry mapped for (g, source), filled or in
// flight, or nil.
func (c *SPTCache) lookupLocked(g *Graph, source int) *sptEntry {
	if ix := c.graphs[g]; ix != nil {
		return ix.bySource[source]
	}
	return nil
}

// indexLocked returns g's index, making it on first use. A new index must
// get an entry before the lock is released: it is dropped with its last.
func (c *SPTCache) indexLocked(g *Graph) *sptIndex {
	ix := c.graphs[g]
	if ix == nil {
		ix = &sptIndex{bySource: make([]*sptEntry, g.N())}
		c.graphs[g] = ix
	}
	return ix
}

// enter maps a new, unlinked in-flight entry for (g, source) in ix, g's
// index.
func (ix *sptIndex) enter(g *Graph, source int) *sptEntry {
	e := &sptEntry{g: g, source: source, ready: make(chan struct{})}
	ix.bySource[source] = e
	ix.n++
	return e
}

// pushFrontLocked links an unlinked entry as the most recently used.
func (c *SPTCache) pushFrontLocked(e *sptEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.next.prev = e
	c.lru.next = e
}

// touchLocked moves a linked entry to the front of the LRU list.
func (c *SPTCache) touchLocked(e *sptEntry) {
	if c.lru.next != e {
		e.unlink()
		c.pushFrontLocked(e)
	}
}

// unlink takes a linked entry out of the LRU list.
func (e *sptEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// settleLocked accounts a filled entry against the budget, or drops it when
// its fill failed (errors are cheap to reproduce and must not occupy the
// index). e.bytes is only ever written here, and only while the entry is
// still the mapped one: an evictor that dropped it in flight subtracted its
// zero, so the budget stays exact either way.
func (c *SPTCache) settleLocked(e *sptEntry) {
	if c.lookupLocked(e.g, e.source) != e {
		return
	}
	if e.err != nil {
		c.removeLocked(e)
		return
	}
	e.bytes = sptBytes(e.spt)
	c.bytes += e.bytes
	c.evictLocked()
}

// removeLocked unmaps and unlinks a mapped entry without counting it as an
// eviction, dropping its graph's index with the last entry.
func (c *SPTCache) removeLocked(e *sptEntry) {
	ix := c.graphs[e.g]
	ix.bySource[e.source] = nil
	if ix.n--; ix.n == 0 {
		delete(c.graphs, e.g)
	}
	if e.next != nil {
		e.unlink()
	}
	c.bytes -= e.bytes
}

// evictLocked drops least-recently-used entries until the byte budget holds.
// Entries still filling have zero accounted bytes and sit at the list front,
// so they are only reached when the budget cannot hold even one tree.
func (c *SPTCache) evictLocked() {
	for c.bytes > c.limit {
		back := c.lru.prev
		if back == &c.lru {
			return
		}
		c.removeLocked(back)
		c.evictions++
	}
}

// Stats snapshots the cache counters.
func (c *SPTCache) Stats() SPTCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	entries := 0
	for _, ix := range c.graphs {
		entries += ix.n
	}
	return SPTCacheStats{
		Entries:   entries,
		Bytes:     c.bytes,
		Limit:     c.limit,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// SetLimit replaces the byte budget, evicting down to it immediately, and
// returns the previous limit.
func (c *SPTCache) SetLimit(maxBytes int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.limit
	c.limit = maxBytes
	c.evictLocked()
	return old
}

// Clear drops every entry and zeroes the counters. In-flight fills complete
// for their waiters but are not re-admitted.
func (c *SPTCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.graphs = make(map[*Graph]*sptIndex)
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	c.bytes = 0
	c.hits, c.misses, c.evictions = 0, 0, 0
}
