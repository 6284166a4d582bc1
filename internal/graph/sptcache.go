package graph

import (
	"container/list"
	"fmt"
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
	mu        sync.Mutex
	limit     int64
	bytes     int64
	entries   map[sptKey]*sptEntry
	lru       *list.List // front = most recently used; values are *sptEntry
	hits      uint64
	misses    uint64
	evictions uint64
}

type sptKey struct {
	g      *Graph
	source int
}

type sptEntry struct {
	key   sptKey
	elem  *list.Element
	ready chan struct{} // closed once spt/err are set
	spt   *SPT
	err   error
	bytes int64
}

// SPTCacheStats is a point-in-time snapshot of cache effectiveness.
type SPTCacheStats struct {
	// Entries and Bytes describe the currently cached trees.
	Entries int
	Bytes   int64
	// Limit is the byte budget entries are evicted against.
	Limit int64
	// Hits, Misses and Evictions are cumulative since construction or the
	// last Clear.
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
	return &SPTCache{
		limit:   maxBytes,
		entries: make(map[sptKey]*sptEntry),
		lru:     list.New(),
	}
}

// sptBytes estimates the heap footprint of one cached tree.
func sptBytes(t *SPT) int64 {
	const entryOverhead = 128 // entry struct, map slot, list element
	return int64(cap(t.Parent)+cap(t.Dist)+cap(t.Order))*4 + entryOverhead
}

// Get returns the shortest-path tree rooted at source, filling the cache on
// a miss. The returned SPT is shared: callers must not modify it nor pass it
// to BFSInto. Concurrent callers of a missing key share one BFS.
func (c *SPTCache) Get(g *Graph, source int) (*SPT, error) {
	if g == nil {
		return nil, fmt.Errorf("graph: SPT cache needs a graph")
	}
	key := sptKey{g: g, source: source}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		return e.spt, e.err
	}
	c.misses++
	e := &sptEntry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.mu.Unlock()

	e.spt, e.err = g.BFS(source)
	close(e.ready)

	c.mu.Lock()
	// e.bytes is only ever written here, under the lock and only while the
	// entry is still the mapped one — a concurrent evictor that already
	// dropped the in-flight entry subtracted its zero, so the budget stays
	// exact either way.
	if cur, ok := c.entries[key]; ok && cur == e {
		if e.err != nil {
			// Errors (out-of-range source) are cheap to reproduce; do not
			// let them occupy the map.
			c.removeLocked(e)
		} else {
			e.bytes = sptBytes(e.spt)
			c.bytes += e.bytes
			c.evictLocked()
		}
	}
	c.mu.Unlock()
	return e.spt, e.err
}

// Peek returns the cached tree for (g, source) without filling on a miss.
// Like Get, it blocks on an in-flight fill for the key (sharing its result)
// and counts a hit; a true miss returns (nil, false) and counts nothing, so
// callers can decide how to compute the tree — the batch scheduling path
// peeks every distinct source and routes the misses through one MS-BFS
// traversal.
func (c *SPTCache) Peek(g *Graph, source int) (*SPT, bool) {
	if g == nil {
		return nil, false
	}
	key := sptKey{g: g, source: source}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.hits++
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
	c.mu.Unlock()
	<-e.ready
	if e.err != nil {
		return nil, false
	}
	return e.spt, true
}

// Add inserts an already-computed tree for (g, source), if the key is absent.
// It returns the cached tree for the key: t itself when the insert won, or
// the existing (possibly in-flight) entry's tree when another fill got there
// first — so callers always end up sharing the canonical cached copy. t must
// be a standalone SPT the cache may own indefinitely (e.g. from
// SPTBatch.Materialize), never a view into pooled storage.
func (c *SPTCache) Add(g *Graph, source int, t *SPT) (*SPT, error) {
	if g == nil || t == nil {
		return nil, fmt.Errorf("graph: SPT cache Add needs a graph and a tree")
	}
	key := sptKey{g: g, source: source}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		return e.spt, e.err
	}
	e := &sptEntry{key: key, ready: make(chan struct{}), spt: t}
	close(e.ready)
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	e.bytes = sptBytes(t)
	c.bytes += e.bytes
	c.evictLocked()
	c.mu.Unlock()
	return t, nil
}

// FillBatch ensures trees for every given source are cached, computing the
// misses through the multi-source BFS kernel in 64-lane groups instead of
// one BFS per source. MS-BFS produces the same canonical trees as the
// serial kernel, so subsequent Gets are byte-identical to
// cache-as-you-go filling.
func (c *SPTCache) FillBatch(g *Graph, sources []int) error {
	var need []int
	var pending map[int]struct{}
	for _, s := range sources {
		if _, dup := pending[s]; dup {
			continue
		}
		if _, ok := c.Peek(g, s); !ok {
			if pending == nil {
				pending = make(map[int]struct{})
			}
			pending[s] = struct{}{}
			need = append(need, s)
		}
	}
	if len(need) == 0 {
		return nil
	}
	b := AcquireSPTBatch()
	defer ReleaseSPTBatch(b)
	if err := g.BatchSPTsInto(need, b); err != nil {
		return err
	}
	for i, s := range need {
		if _, err := c.Add(g, s, b.Materialize(i)); err != nil {
			return err
		}
	}
	return nil
}

// removeLocked unlinks an entry without counting it as an eviction.
func (c *SPTCache) removeLocked(e *sptEntry) {
	delete(c.entries, e.key)
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
	}
	c.bytes -= e.bytes
}

// evictLocked drops least-recently-used entries until the byte budget holds.
// Entries still filling have zero accounted bytes and sit at the list front,
// so they are only reached when the budget cannot hold even one tree.
func (c *SPTCache) evictLocked() {
	for c.bytes > c.limit {
		back := c.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*sptEntry)
		c.removeLocked(e)
		c.evictions++
	}
}

// Stats snapshots the cache counters.
func (c *SPTCache) Stats() SPTCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SPTCacheStats{
		Entries:   len(c.entries),
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
	c.entries = make(map[sptKey]*sptEntry)
	c.lru.Init()
	c.bytes = 0
	c.hits, c.misses, c.evictions = 0, 0, 0
}
