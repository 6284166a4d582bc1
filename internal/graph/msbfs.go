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
// therefore byte-identical (Dist and Parent) to per-source BFS, which lets
// SweepSPTs pick either kernel for a sweep without changing a result.
//
// Destinations: each lane writes into rows of its own. The SPT cache passes
// each missing tree's own Dist and Parent, so a cold cached read allocates
// every tree once and copies nothing; the uncached paths (SweepSPTs without
// a cache, steiner's uncached closure) pass rows carved from one pooled
// SPTBatch slab.

// msbfsLanes is the lane width of one traversal: one bit per source in a
// uint64 mask.
const msbfsLanes = 64

// SPTBatch holds the shortest-path trees of a batch of sources as dense
// lane-major slabs: lane i's distance row is dist[i*n : (i+1)*n], likewise
// parents. Rows alias the slab: consumers that only read Dist/Parent (tree
// counters, reachability histograms, KMB closures) use them in place via
// Lane/DistRow. It serves the uncached sweeps; the SPT cache runs the kernel
// straight into each tree's own arrays instead.
type SPTBatch struct {
	// Sources lists the batch's sources; lane i belongs to Sources[i].
	Sources []int
	n       int
	dist    []int32
	parent  []int32
	ar      *arena.Arena // recycles the slabs across graph sizes
}

// msbfsScratch is the kernel's reusable per-traversal state: per-node lane
// masks plus two frontier-membership bitsets (one bit per node). All of it
// comes from one slab arena, so sweeping graphs of different sizes recycles
// buffers instead of churning the GC.
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

// msbfsScratchPool recycles the kernel's masks, whatever its rows are
// written into.
var msbfsScratchPool = sync.Pool{New: func() any { return new(msbfsScratch) }}

// sptBatchPool recycles batch slabs so the uncached sweeps allocate nothing
// once warm.
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
	if b.ar == nil {
		b.ar = arena.New()
	}
	// The dist/parent slabs come from the batch's arena: resizing across
	// graph scales recycles slabs instead of allocating afresh. Kernels
	// overwrite every element, so dirty recycled memory is fine.
	b.dist = b.ar.GrowInt32(b.dist, total)
	b.parent = b.ar.GrowInt32(b.parent, total)
	sc := msbfsScratchPool.Get().(*msbfsScratch)
	defer msbfsScratchPool.Put(sc)
	var dist, parent [msbfsLanes][]int32
	for base := 0; base < len(sources); base += msbfsLanes {
		group := sources[base:min(base+msbfsLanes, len(sources))]
		for i := range group {
			dist[i], parent[i] = b.DistRow(base+i), b.ParentRow(base+i)
		}
		g.msbfsGroup(group, dist[:len(group)], parent[:len(group)], sc)
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
// distance reads of the measurement engines.
func (b *SPTBatch) Lane(i int, t *SPT) {
	t.Source = b.Sources[i]
	t.Parent = b.ParentRow(i)
	t.Dist = b.DistRow(i)
	t.Order = nil
}

// levelOrder returns the nodes dist reaches sorted by (distance, index), the
// Order of a tree the kernel filled: a counting sort over the levels.
func levelOrder(dist []int32) []int32 {
	depth, reach := int32(0), 0
	for _, d := range dist {
		if d != Unreachable {
			reach++
			depth = max(depth, d)
		}
	}
	// counts[d] becomes the first Order slot of level d.
	counts := make([]int32, depth+2)
	for _, d := range dist {
		if d != Unreachable {
			counts[d+1]++
		}
	}
	for d := 1; d < len(counts); d++ {
		counts[d] += counts[d-1]
	}
	order := make([]int32, reach)
	for v, d := range dist {
		if d != Unreachable {
			order[counts[d]] = int32(v)
			counts[d]++
		}
	}
	return order
}

// msbfsGroup runs one ≤64-lane traversal from group's sources, writing lane
// i's distances and canonical parents into the rows dist[i] and parent[i],
// each n long. The rows may be carved from one slab or be a tree's own
// arrays.
func (g *Graph) msbfsGroup(group []int, dist, parent [][]int32, sc *msbfsScratch) {
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
	for i, s := range group {
		d, p := dist[i][:n], parent[i][:n]
		for v := range d {
			d[v] = Unreachable
			p[v] = Unreachable
		}
		bit := uint64(1) << uint(i)
		visit[s] |= bit
		seen[s] |= bit
		front[s>>6] |= 1 << (uint(s) & 63)
		d[s] = 0
		p[s] = int32(s)
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
						dist[i][w] = level
						parent[i][w] = int32(v)
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
