package graph

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// Unreachable marks a node with no path from the BFS source.
const Unreachable int32 = -1

// SPT is a single-source shortest-path tree produced by BFS: for every node
// reachable from Source, Parent gives the previous hop on one shortest path
// and Dist the hop count. Unreachable nodes have Parent == Dist == -1.
//
// Parents are canonical: Parent[v] is the lowest-index neighbor of v at
// distance Dist[v]-1. Both kernels (serial BFSInto and the MS-BFS group)
// resolve ties the same way, so an SPT is a pure function of (graph, source)
// regardless of which kernel produced it — the property the SPT cache and
// the batch measurement path rely on to stay byte-identical.
//
// The multicast engine builds every delivery tree as a subtree of an SPT,
// matching the paper's source-specific shortest-path routing model
// (footnote 1: "packets traverse the shortest path between source and
// receiver").
type SPT struct {
	Source int
	Parent []int32
	Dist   []int32
	// Order lists reachable nodes in nondecreasing distance; Order[0] ==
	// Source. The relative order of nodes at the same distance is
	// kernel-dependent (discovery order for BFSInto, index order for the
	// trees SPTCache fills through the MS-BFS kernel) — no consumer may rely
	// on it beyond the nondecreasing-distance guarantee.
	Order []int32
}

// BFS computes the shortest-path tree rooted at source.
func (g *Graph) BFS(source int) (*SPT, error) {
	t := &SPT{}
	if err := g.BFSInto(source, t); err != nil {
		return nil, err
	}
	return t, nil
}

// bfsScratch holds the serial kernel's level bitsets between runs, so
// steady-state traversal allocates nothing.
type bfsScratch struct {
	cur, next []uint64
}

var bfsScratchPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// BFSInto is an allocation-free variant of BFS for hot loops: it reuses the
// SPT's slices if they are large enough. The SPT must not be shared across
// goroutines while being reused.
//
// It is the package's serial kernel, a level-synchronous BFS: level
// membership lives in a bitset, scanned in ascending node order, so the
// first discoverer of every next-level node is its lowest-index
// previous-level neighbor — parents come out canonical with no per-edge
// tie-break. The membership scan costs N/64 word reads per level, noise
// next to the edge scan it sits on top of. Order lists each level in
// discovery order.
func (g *Graph) BFSInto(source int, t *SPT) error {
	n := g.N()
	if source < 0 || source >= n {
		return fmt.Errorf("graph: BFS source %d out of range [0,%d)", source, n)
	}
	if cap(t.Parent) < n {
		t.Parent = make([]int32, n)
		t.Dist = make([]int32, n)
		t.Order = make([]int32, 0, n)
	}
	t.Parent = t.Parent[:n]
	t.Dist = t.Dist[:n]
	t.Order = t.Order[:0]
	t.Source = source
	for i := range t.Parent {
		t.Parent[i] = Unreachable
		t.Dist[i] = Unreachable
	}

	words := (n + 63) / 64
	sc := bfsScratchPool.Get().(*bfsScratch)
	defer bfsScratchPool.Put(sc)
	if cap(sc.cur) < words {
		sc.cur = make([]uint64, words)
		sc.next = make([]uint64, words)
	}
	cur, next := sc.cur[:words], sc.next[:words]
	clear(cur)
	clear(next)
	offsets, adj := g.offsets, g.adj

	t.Dist[source] = 0
	t.Parent[source] = int32(source)
	t.Order = append(t.Order, int32(source))
	cur[source>>6] |= 1 << (uint(source) & 63)
	for du := int32(0); ; du++ {
		grew := false
		for wi := 0; wi < words; wi++ {
			f := cur[wi]
			cur[wi] = 0
			for f != 0 {
				u := int32(wi<<6 + bits.TrailingZeros64(f))
				f &= f - 1
				for _, w := range adj[offsets[u]:offsets[u+1]] {
					if t.Dist[w] == Unreachable {
						t.Dist[w] = du + 1
						t.Parent[w] = u
						t.Order = append(t.Order, w)
						next[w>>6] |= 1 << (uint(w) & 63)
						grew = true
					}
				}
			}
		}
		if !grew {
			return nil
		}
		cur, next = next, cur
	}
}

// Reachable returns the number of nodes reachable from the source,
// including the source itself.
func (t *SPT) Reachable() int { return len(t.Order) }

// Depth returns the eccentricity of the source within its component: the
// maximum finite distance.
func (t *SPT) Depth() int {
	if len(t.Order) == 0 {
		return 0
	}
	return int(t.Dist[t.Order[len(t.Order)-1]])
}

// PathTo returns the node sequence from the source to v along the tree,
// inclusive. It returns an error if v is unreachable.
func (t *SPT) PathTo(v int) ([]int, error) {
	if v < 0 || v >= len(t.Dist) || t.Dist[v] == Unreachable {
		return nil, errors.New("graph: node unreachable from source")
	}
	path := make([]int, t.Dist[v]+1)
	for i := int(t.Dist[v]); ; i-- {
		path[i] = v
		if v == t.Source {
			break
		}
		v = int(t.Parent[v])
	}
	return path, nil
}

// AvgDist returns the mean distance from the source over all reachable
// nodes other than the source itself. This is the per-source unicast path
// length ū used throughout the paper. It returns 0 when the source is
// isolated.
func (t *SPT) AvgDist() float64 {
	if len(t.Order) <= 1 {
		return 0
	}
	var sum int64
	for _, v := range t.Order[1:] {
		sum += int64(t.Dist[v])
	}
	return float64(sum) / float64(len(t.Order)-1)
}

// DistHistogram returns counts[r] = number of nodes at distance exactly r
// from the source (counts[0] == 1 for the source). This is the paper's
// reachability function S(r).
func (t *SPT) DistHistogram() []int {
	counts := make([]int, t.Depth()+1)
	for _, v := range t.Order {
		counts[t.Dist[v]]++
	}
	return counts
}
