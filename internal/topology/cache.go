package topology

import (
	"container/list"
	"fmt"
	"sync"

	"mtreescale/internal/graph"
)

// The generation cache memoizes standard-topology builds keyed by
// (name, seed, scale). Graphs are immutable after Build, so handing the same
// *graph.Graph to every caller is safe, and experiments that sweep the same
// profile (table1, fig1a, fig6a, ...) stop paying for identical generator
// runs. Entries carry singleflight semantics: concurrent requests for a
// missing key block on one build instead of racing duplicates.
//
// The cache is bounded by a byte budget over the graphs' CSR footprints,
// evicted LRU, so long RunMany sweeps over many (seed, scale) combinations
// can no longer grow it without limit. Evicted graphs stay valid for any
// caller still holding them; only the memoization is dropped.

type cacheKey struct {
	name  string
	seed  int64
	scale float64
}

type cacheEntry struct {
	key   cacheKey
	elem  *list.Element
	once  sync.Once
	g     *graph.Graph
	err   error
	bytes int64
}

// DefaultCacheBytes is the generation cache's default byte budget: ample for
// every standard topology at full scale simultaneously, small next to a
// simulation-sized heap.
const DefaultCacheBytes int64 = 512 << 20

var (
	cacheMu        sync.Mutex
	cache          = map[cacheKey]*cacheEntry{}
	cacheLRU       = list.New() // front = most recently used
	cacheLimit     = DefaultCacheBytes
	cacheBytes     int64
	cacheHits      uint64
	cacheMisses    uint64
	cacheEvictions uint64
)

// CacheStats is a point-in-time snapshot of the generation cache.
type CacheStats struct {
	// Entries and Bytes describe the currently memoized graphs.
	Entries int
	Bytes   int64
	// Limit is the byte budget entries are evicted against.
	Limit int64
	// Hits, Misses and Evictions are cumulative since process start or the
	// last ResetCache.
	Hits, Misses, Evictions uint64
}

// GenerateCached is GenerateSeeded behind the generation cache: repeated
// requests for the same (name, seed, scale) return the identical *Graph
// pointer, and concurrent first requests share one build. Builds are
// deterministic, so errors are cached alongside graphs (error entries cost
// no budget and are evicted like any other).
func GenerateCached(name string, seed int64, scale float64) (*graph.Graph, error) {
	s, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = s.DefaultSeed
	}
	if scale <= 0 || scale > 1 {
		scale = 1 // normalize exactly like the builders do, so keys can't alias
	}
	key := cacheKey{name: name, seed: seed, scale: scale}
	cacheMu.Lock()
	e, ok := cache[key]
	if ok {
		cacheHits++
		if e.elem != nil {
			cacheLRU.MoveToFront(e.elem)
		}
	} else {
		cacheMisses++
		e = &cacheEntry{key: key}
		e.elem = cacheLRU.PushFront(e)
		cache[key] = e
	}
	cacheMu.Unlock()
	e.once.Do(func() {
		e.g, e.err = s.Build(seed, scale)
		if e.err != nil {
			e.err = fmt.Errorf("topology: generating %q: %w", name, e.err)
			return
		}
		bytes := e.g.MemBytes()
		cacheMu.Lock()
		// ResetCache may have dropped the entry while it built; account and
		// evict only if it is still the one in the map.
		if cur, ok := cache[key]; ok && cur == e {
			e.bytes = bytes
			cacheBytes += bytes
			evictOverLimitLocked()
		}
		cacheMu.Unlock()
	})
	return e.g, e.err
}

// evictOverLimitLocked drops least-recently-used entries until the byte
// budget holds. Entries still building have zero accounted bytes and sit
// near the list front, so they survive unless the budget is tiny.
func evictOverLimitLocked() {
	for cacheBytes > cacheLimit {
		back := cacheLRU.Back()
		if back == nil {
			return
		}
		e := back.Value.(*cacheEntry)
		delete(cache, e.key)
		cacheLRU.Remove(back)
		e.elem = nil
		cacheBytes -= e.bytes
		cacheEvictions++
	}
}

// CacheSize reports the number of memoized (name, seed, scale) entries.
func CacheSize() int {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return len(cache)
}

// CacheInfo snapshots the generation cache's counters.
func CacheInfo() CacheStats {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return CacheStats{
		Entries:   len(cache),
		Bytes:     cacheBytes,
		Limit:     cacheLimit,
		Hits:      cacheHits,
		Misses:    cacheMisses,
		Evictions: cacheEvictions,
	}
}

// SetCacheLimit replaces the generation cache's byte budget, evicting down
// to it immediately, and returns the previous limit.
func SetCacheLimit(maxBytes int64) int64 {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	old := cacheLimit
	cacheLimit = maxBytes
	evictOverLimitLocked()
	return old
}

// ResetCache drops every memoized topology and zeroes the counters,
// releasing the graphs to the garbage collector. Callers holding graph
// pointers are unaffected; the limit is preserved.
func ResetCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	cache = map[cacheKey]*cacheEntry{}
	cacheLRU.Init()
	cacheBytes = 0
	cacheHits, cacheMisses, cacheEvictions = 0, 0, 0
}
