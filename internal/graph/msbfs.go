package graph

import (
	"fmt"
	"math/bits"
	"sync"

	"mtreescale/internal/arena"
)

// This file implements the multi-source BFS kernel (MS-BFS, in the style of
// Then et al., "The More the Merrier: Efficient Multi-Source Graph
// Traversal", VLDB 2015): up to 64 sources traverse the graph together, one
// uint64 bit lane per source. Each node carries three lane masks — seen
// (lanes that have discovered it), visit (lanes for which it is on the
// current frontier) and visitNext — so one adjacency scan of a shared
// frontier node advances every lane at once. On the low-diameter topologies
// the paper measures, the per-lane BFS levels concentrate on a few middle
// distances, the lane frontiers overlap almost completely, and the kernel
// touches each edge a small constant number of times instead of once per
// source.
//
// Determinism and canonical parents: the frontier is a bitset iterated in
// ascending node order, so for every lane the first frontier node to
// discover w is the lowest-index previous-level neighbor — exactly the
// canonical parent rule of the serial kernel (BFSInto). Batch results are
// therefore byte-identical (Dist and Parent) to per-source BFS, which the
// measurement engines' batch-on/off invariant rests on.

// msbfsLanes is the lane width of one traversal: one bit per source in a
// uint64 mask.
const msbfsLanes = 64

// SPTBatch holds the shortest-path trees of a batch of sources as dense
// lane-major slabs: lane i's distance row is dist[i*n : (i+1)*n], likewise
// parents. Rows alias the slab — consumers that only read Dist/Parent (tree
// counters, reachability histograms, all-pairs matrices) use them in place
// via Lane/DistRow, while Materialize deep-copies one lane into a standalone
// SPT for cache insertion.
type SPTBatch struct {
	// Sources lists the batch's sources; lane i belongs to Sources[i].
	Sources []int
	n       int
	dist    []int32
	parent  []int32
	sc      msbfsScratch
}

// msbfsScratch is the kernel's reusable per-traversal state: per-node lane
// masks plus two frontier-membership bitsets (one bit per node). All of it,
// plus the owning batch's dist/parent slabs, comes from one slab arena, so
// sweeping graphs of different sizes recycles buffers instead of churning
// the GC.
type msbfsScratch struct {
	ar                     *arena.Arena
	seen, visit, visitNext []uint64
	front, nextFront       []uint64
}

// grow sizes the scratch for an n-node traversal. visit/visitNext must be
// all-zero between traversals — the kernel clears them incrementally
// — so freshly slabbed (dirty) arena memory is zeroed here; seen and the
// frontier bitsets are zeroed by the kernel at the start of every group.
func (sc *msbfsScratch) grow(n, words int) {
	if sc.ar == nil {
		sc.ar = arena.New()
	}
	if cap(sc.seen) < n {
		sc.seen = sc.ar.GrowUint64(sc.seen, n)
		sc.visit = sc.ar.GrowUint64(sc.visit, n)
		sc.visitNext = sc.ar.GrowUint64(sc.visitNext, n)
		// Zero the full capacity, not just [:n]: a later traversal may
		// reslice the same slab longer without passing through this branch.
		clear(sc.visit[:cap(sc.visit)])
		clear(sc.visitNext[:cap(sc.visitNext)])
	} else {
		sc.seen = sc.seen[:n]
		sc.visit = sc.visit[:n]
		sc.visitNext = sc.visitNext[:n]
	}
	if cap(sc.front) < words {
		sc.front = sc.ar.GrowUint64(sc.front, words)
		sc.nextFront = sc.ar.GrowUint64(sc.nextFront, words)
	} else {
		sc.front = sc.front[:words]
		sc.nextFront = sc.nextFront[:words]
	}
}

// sptBatchPool recycles batch slabs so the measurement engines' hot loops
// allocate nothing once warm.
var sptBatchPool = sync.Pool{New: func() any { return new(SPTBatch) }}

// AcquireSPTBatch returns a pooled batch for use with BatchSPTsInto. Release
// it with ReleaseSPTBatch when no lane view derived from it is referenced
// anymore.
func AcquireSPTBatch() *SPTBatch { return sptBatchPool.Get().(*SPTBatch) }

// ReleaseSPTBatch returns a batch to the pool. The caller must not use the
// batch — or any SPT view aliasing its slabs — afterwards.
func ReleaseSPTBatch(b *SPTBatch) {
	if b != nil {
		sptBatchPool.Put(b)
	}
}

// BatchSPTs computes the shortest-path trees of all the given sources
// through the multi-source kernel, internally grouping them into
// 64-lane traversals. Duplicate sources are allowed (each occupies its own
// lane).
func (g *Graph) BatchSPTs(sources []int) (*SPTBatch, error) {
	b := new(SPTBatch)
	if err := g.BatchSPTsInto(sources, b); err != nil {
		return nil, err
	}
	return b, nil
}

// BatchSPTsInto is the allocation-reusing variant of BatchSPTs: it fills b,
// growing its slabs only when the (sources × nodes) footprint exceeds the
// previous use. b must not be shared across goroutines while being filled,
// and must stay alive while any lane view of it is in use.
func (g *Graph) BatchSPTsInto(sources []int, b *SPTBatch) error {
	n := g.N()
	if len(sources) == 0 {
		return fmt.Errorf("graph: batch BFS needs at least one source")
	}
	for _, s := range sources {
		if s < 0 || s >= n {
			return fmt.Errorf("graph: BFS source %d out of range [0,%d)", s, n)
		}
	}
	b.Sources = append(b.Sources[:0], sources...)
	b.n = n
	total := len(sources) * n
	if b.sc.ar == nil {
		b.sc.ar = arena.New()
	}
	// The dist/parent slabs come from the batch's arena: resizing across
	// graph scales recycles slabs instead of allocating afresh. Kernels
	// overwrite every element, so dirty recycled memory is fine.
	b.dist = b.sc.ar.GrowInt32(b.dist, total)
	b.parent = b.sc.ar.GrowInt32(b.parent, total)
	for base := 0; base < len(sources); base += msbfsLanes {
		end := base + msbfsLanes
		if end > len(sources) {
			end = len(sources)
		}
		g.msbfsGroup(sources[base:end], b.dist[base*n:end*n], b.parent[base*n:end*n], &b.sc)
	}
	return nil
}

// Lanes returns the number of trees in the batch.
func (b *SPTBatch) Lanes() int { return len(b.Sources) }

// DistRow returns lane i's distance array, aliasing the slab: DistRow(i)[v]
// is the hop count from Sources[i] to v, or Unreachable.
func (b *SPTBatch) DistRow(i int) []int32 { return b.dist[i*b.n : (i+1)*b.n] }

// ParentRow returns lane i's canonical parent array, aliasing the slab.
func (b *SPTBatch) ParentRow(i int) []int32 { return b.parent[i*b.n : (i+1)*b.n] }

// Lane fills t with a view of lane i: Parent and Dist alias the batch slab
// (valid only until the batch is refilled or released) and Order is nil.
// Views serve consumers that never read Order — the tree counters and
// distance reads of the measurement engines; use Materialize where a full,
// standalone SPT is required.
func (b *SPTBatch) Lane(i int, t *SPT) {
	t.Source = b.Sources[i]
	t.Parent = b.ParentRow(i)
	t.Dist = b.DistRow(i)
	t.Order = nil
}

// Materialize deep-copies lane i into a standalone SPT, building Order by
// counting sort over distances (nodes at equal distance appear in index
// order). The result owns its memory and satisfies every SPT invariant, so
// it is safe to insert into an SPTCache.
func (b *SPTBatch) Materialize(i int) *SPT {
	dist := b.DistRow(i)
	t := &SPT{
		Source: b.Sources[i],
		Parent: append([]int32(nil), b.ParentRow(i)...),
		Dist:   append([]int32(nil), dist...),
	}
	depth := int32(0)
	reach := 0
	for _, d := range dist {
		if d != Unreachable {
			reach++
			if d > depth {
				depth = d
			}
		}
	}
	// Counting sort by distance: offsets[d] = first Order slot of level d.
	counts := make([]int32, depth+2)
	for _, d := range dist {
		if d != Unreachable {
			counts[d+1]++
		}
	}
	for d := int32(1); d < int32(len(counts)); d++ {
		counts[d] += counts[d-1]
	}
	t.Order = make([]int32, reach)
	for v, d := range dist {
		if d != Unreachable {
			t.Order[counts[d]] = int32(v)
			counts[d]++
		}
	}
	return t
}

// msbfsGroup runs one ≤64-lane traversal, writing lane-major dist/parent
// rows for the group's sources.
func (g *Graph) msbfsGroup(group []int, dist, parent []int32, sc *msbfsScratch) {
	n := g.N()
	words := (n + 63) / 64
	sc.grow(n, words)
	offsets, adj := g.offsets, g.adj
	seen := sc.seen[:n]
	visit := sc.visit[:n]
	visitNext := sc.visitNext[:n]
	front := sc.front[:words]
	nextFront := sc.nextFront[:words]
	for i := range seen {
		seen[i] = 0
	}
	for i := range front {
		front[i] = 0
		nextFront[i] = 0
	}
	// visit and visitNext carry lane masks only for current/next frontier
	// nodes and are cleared incrementally, so they start and finish
	// all-zero.
	for i := range dist {
		dist[i] = Unreachable
		parent[i] = Unreachable
	}
	for i, s := range group {
		bit := uint64(1) << uint(i)
		visit[s] |= bit
		seen[s] |= bit
		front[s>>6] |= 1 << (uint(s) & 63)
		dist[i*n+s] = 0
		parent[i*n+s] = int32(s)
	}
	for level, more := int32(1), true; more; level++ {
		more = false
		// Iterating the frontier bitset word by word scans nodes in
		// ascending index order: the first discoverer of w in any lane is
		// its lowest-index previous-level neighbor (the canonical parent),
		// with no per-level sort.
		for wi, word := range front {
			for ; word != 0; word &= word - 1 {
				v := wi<<6 + bits.TrailingZeros64(word)
				mv := visit[v]
				visit[v] = 0
				for _, w := range adj[offsets[v]:offsets[v+1]] {
					d := mv &^ seen[w]
					if d == 0 {
						continue
					}
					visitNext[w] |= d
					seen[w] |= d
					nextFront[w>>6] |= 1 << (uint(w) & 63)
					for ; d != 0; d &= d - 1 {
						i := bits.TrailingZeros64(d)
						dist[i*n+int(w)] = level
						parent[i*n+int(w)] = int32(v)
					}
				}
			}
		}
		// Swap frontiers: promote visitNext masks, clear the consumed
		// bookkeeping for the next level.
		for wi, word := range nextFront {
			if word != 0 {
				more = true
			}
			for ; word != 0; word &= word - 1 {
				w := wi<<6 + bits.TrailingZeros64(word)
				visit[w] = visitNext[w]
				visitNext[w] = 0
			}
			front[wi] = nextFront[wi]
			nextFront[wi] = 0
		}
	}
}
