// dyntree.go implements the incremental (delta-maintained) delivery tree:
// the churn engine's core data structure. Where TreeCounter rebuilds a tree
// from its full receiver set, a DynTree maintains one delivery tree — its
// link count, per-node child refcounts, membership multiset, and degree
// histogram — under receiver Join/Leave events in O(path-to-tree) per event:
//
//   - Join grafts the new receiver by walking the shortest-path-tree parent
//     chain until it reaches a node already on the tree, attaching exactly
//     the links the static estimator would have added (TreeCounter.Add).
//   - Leave decrements the receiver's membership count; when the node is no
//     longer needed (no members, no tree children) the exclusive suffix of
//     its graft path is released link by link.
//
// The optional bounded-degree variant (degreeCap > 0) models the P2P
// distribution trees of arXiv 0906.0379, where interior nodes relay to at
// most a fixed number of children: when the SPT attachment point is already
// saturated, a deterministic BFS over off-tree nodes finds the nearest
// on-tree node with spare capacity and grafts the receiver there instead
// (FIFO frontier, ascending neighbor order — independent of map iteration
// or scheduling). If no unsaturated attachment is reachable the receiver is
// force-attached along its SPT path and Forced() is incremented, so the
// constraint violation is observable instead of silent.
//
// A DynTree is not safe for concurrent use.
package mcast

import (
	"fmt"

	"mtreescale/internal/graph"
	"mtreescale/internal/valid"
)

// DynTree is one incrementally maintained delivery tree over a fixed graph
// and root shortest-path tree. See the file comment for the event semantics.
type DynTree struct {
	g    *graph.Graph
	spt  *graph.SPT
	root int32
	cap  int32 // max tree degree per node; 0 = unbounded

	member   []int32 // membership multiset: >0 ⇒ v is a current receiver site
	childcnt []int32 // number of tree children of v
	tparent  []int32 // tree parent of v, -1 when v is off the tree
	links    int     // on-tree nodes excluding the root == tree links
	members  int     // distinct nodes with member[v] > 0

	degHist []int64 // degHist[d] = on-tree nodes with tree degree d
	maxDeg  int     // highest d with degHist[d] > 0
	forced  int64   // bounded-variant grafts that had to violate the cap

	// BFS-repair scratch (bounded variant only).
	seen  []int32 // epoch-stamped visited marks
	prev  []int32 // BFS predecessor toward the joining receiver
	queue []int32
	epoch int32

	gMaxDeg int // cached g.MaxDegree(), sized for degHist
}

// NewDynTree returns an incremental tree rooted at spt.Source. degreeCap
// bounds every node's tree degree (0 = unbounded; otherwise ≥ 2, since even
// a relay chain needs one parent and one child link per node).
func NewDynTree(g *graph.Graph, spt *graph.SPT, degreeCap int) (*DynTree, error) {
	t := &DynTree{}
	if err := t.Reset(g, spt, degreeCap); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset rebinds the tree to a (graph, SPT, cap) triple and clears all state
// back to the empty tree. It reuses the existing scratch storage, so a
// pooled DynTree resets in O(N) with zero allocations once its buffers have
// reached the largest graph seen.
func (t *DynTree) Reset(g *graph.Graph, spt *graph.SPT, degreeCap int) error {
	if g == nil || spt == nil {
		return valid.Badf("dyntree: nil graph or SPT")
	}
	n := g.N()
	if len(spt.Parent) != n || len(spt.Dist) != n {
		return valid.Badf("dyntree: SPT sized for %d nodes, graph has %d", len(spt.Parent), n)
	}
	if spt.Source < 0 || spt.Source >= n {
		return valid.Badf("dyntree: SPT source %d out of range [0,%d)", spt.Source, n)
	}
	if degreeCap != 0 && degreeCap < 2 {
		return valid.Badf("dyntree: degree cap %d must be 0 (unbounded) or ≥ 2", degreeCap)
	}
	if t.g != g {
		// MaxDegree is an O(N) scan; cache it per graph so per-source Resets
		// against the same topology pay it once. Tree degrees never exceed
		// graph degrees (every tree edge is a graph edge).
		t.gMaxDeg = g.MaxDegree()
	}
	t.g, t.spt = g, spt
	t.root = int32(spt.Source)
	t.cap = int32(degreeCap)
	t.member = grow(t.member, n)
	t.childcnt = grow(t.childcnt, n)
	t.tparent = grow(t.tparent, n)
	t.degHist = grow(t.degHist, t.gMaxDeg+1)
	for i := range t.member {
		t.member[i] = 0
		t.childcnt[i] = 0
		t.tparent[i] = -1
	}
	for i := range t.degHist {
		t.degHist[i] = 0
	}
	t.links, t.members, t.maxDeg, t.forced = 0, 0, 0, 0
	t.degHist[0] = 1 // the root is always on the tree, initially childless
	if t.cap > 0 {
		t.seen = grow(t.seen, n)
		t.prev = grow(t.prev, n)
		for i := range t.seen {
			t.seen[i] = 0
		}
		t.epoch = 0
		if t.queue == nil {
			t.queue = make([]int32, 0, 256)
		}
	}
	return nil
}

// onTree reports whether v currently carries tree state. Any node with
// members or children is on the tree by construction, so the parent mark
// (plus the root) is the complete predicate.
func (t *DynTree) onTree(v int32) bool { return v == t.root || t.tparent[v] >= 0 }

// treeDeg returns v's current tree degree (children + parent link).
func (t *DynTree) treeDeg(v int32) int32 {
	d := t.childcnt[v]
	if v != t.root && t.tparent[v] >= 0 {
		d++
	}
	return d
}

// histEnter records a node entering the tree at degree d.
func (t *DynTree) histEnter(d int32) {
	t.degHist[d]++
	if int(d) > t.maxDeg {
		t.maxDeg = int(d)
	}
}

// histLeave records a node leaving the tree from degree d.
func (t *DynTree) histLeave(d int32) {
	t.degHist[d]--
	for t.maxDeg > 0 && t.degHist[t.maxDeg] == 0 {
		t.maxDeg--
	}
}

// histShift moves one on-tree node between degree buckets.
func (t *DynTree) histShift(from, to int32) {
	t.degHist[from]--
	t.degHist[to]++
	if int(to) > t.maxDeg {
		t.maxDeg = int(to)
	}
	for t.maxDeg > 0 && t.degHist[t.maxDeg] == 0 {
		t.maxDeg--
	}
}

// Join adds one receiver instance at node r and returns the number of links
// grafted (0 for duplicate joins, already-covered nodes, out-of-range or
// unreachable sites). Cost is O(path-to-tree); for the bounded variant a
// saturated attachment additionally pays one repair BFS over the off-tree
// neighborhood.
func (t *DynTree) Join(r int32) int {
	if r < 0 || int(r) >= len(t.member) || t.spt.Dist[r] == graph.Unreachable {
		return 0
	}
	t.member[r]++
	if t.member[r] > 1 {
		return 0
	}
	t.members++
	if t.onTree(r) {
		return 0
	}
	if t.cap > 0 {
		return t.graftBounded(r)
	}
	return t.graftSPT(r)
}

// graftSPT walks r's SPT parent chain up to the first on-tree ancestor,
// marking every chain node as a new tree node. Exactly the links
// TreeCounter.Add would count are added.
func (t *DynTree) graftSPT(r int32) int {
	added := 0
	v := r
	for {
		p := t.spt.Parent[v]
		t.tparent[v] = p
		t.links++
		added++
		// v enters the tree: one child when a chain node already hangs
		// below it (every chain node except r), plus its new parent link.
		t.histEnter(t.childcnt[v] + 1)
		if p == t.root || t.tparent[p] >= 0 {
			old := t.treeDeg(p)
			t.childcnt[p]++
			t.histShift(old, old+1)
			return added
		}
		t.childcnt[p] = 1
		v = p
	}
}

// graftBounded grafts r under the degree cap: the SPT path is used when its
// attachment point has spare capacity, otherwise a deterministic BFS repair
// finds the nearest unsaturated on-tree node and the receiver attaches
// through the discovered path. When the whole reachable off-tree region is
// walled in by saturated nodes, the receiver force-attaches along its SPT
// path (Forced() counts these).
func (t *DynTree) graftBounded(r int32) int {
	a := r
	for !t.onTree(a) {
		a = t.spt.Parent[a]
	}
	if t.treeDeg(a) < t.cap {
		return t.graftSPT(r)
	}
	if added, ok := t.repairGraft(r); ok {
		return added
	}
	t.forced++
	return t.graftSPT(r)
}

// repairGraft runs the bounded variant's repair search: a BFS from r that
// expands only off-tree nodes (saturated on-tree nodes are walls) and stops
// at the first on-tree node with tree degree < cap. The frontier is FIFO
// and neighbors are scanned in ascending original-id order, so the chosen
// attachment is a pure function of the tree state — independent of worker
// scheduling or map iteration. Interior nodes of the discovered path all
// enter at degree 2, which the cap ≥ 2 invariant always permits.
func (t *DynTree) repairGraft(r int32) (int, bool) {
	t.epoch++
	if t.epoch <= 0 { // wrapped: re-zero the stamps and restart the epochs
		for i := range t.seen {
			t.seen[i] = 0
		}
		t.epoch = 1
	}
	t.queue = t.queue[:0]
	t.queue = append(t.queue, r)
	t.seen[r] = t.epoch
	t.prev[r] = -1
	for qi := 0; qi < len(t.queue); qi++ {
		u := t.queue[qi]
		for _, w := range t.g.Neighbors(int(u)) {
			if t.seen[w] == t.epoch {
				continue
			}
			t.seen[w] = t.epoch
			if t.onTree(w) {
				if t.treeDeg(w) < t.cap {
					t.prev[w] = u
					return t.graftAlong(w), true
				}
				continue // saturated on-tree node: a wall, never expanded
			}
			t.prev[w] = u
			t.queue = append(t.queue, w)
		}
	}
	return 0, false
}

// graftAlong attaches the BFS-repair path ending at on-tree node w: walking
// prev back toward the joining receiver, each path node hangs under its
// predecessor-toward-w.
func (t *DynTree) graftAlong(w int32) int {
	added := 0
	oldW := t.treeDeg(w)
	u := w
	for {
		c := t.prev[u] // the path node that hangs under u
		if c < 0 {
			break
		}
		t.tparent[c] = u
		t.links++
		added++
		t.childcnt[u]++
		u = c
	}
	t.histShift(oldW, oldW+1)
	// Path nodes (everything below w) entered the tree; their childcnt is
	// final now, so their histogram entries can be recorded in one pass.
	for u = t.prev[w]; u >= 0; u = t.prev[u] {
		t.histEnter(t.childcnt[u] + 1)
	}
	return added
}

// Leave removes one receiver instance at node r and returns the number of
// links pruned (0 when r retains members, still relays traffic to children,
// or was never a member — leaves of absent receivers are harmless no-ops).
func (t *DynTree) Leave(r int32) int {
	if r < 0 || int(r) >= len(t.member) || t.member[r] == 0 {
		return 0
	}
	t.member[r]--
	if t.member[r] > 0 {
		return 0
	}
	t.members--
	if r == t.root || t.childcnt[r] > 0 {
		return 0 // the root, or an interior relay: stays on the tree
	}
	removed := 0
	v := r
	for {
		p := t.tparent[v]
		t.histLeave(t.childcnt[v] + 1) // v is always a leaf here: childcnt 0
		t.tparent[v] = -1
		t.links--
		removed++
		oldP := t.treeDeg(p)
		t.childcnt[p]--
		t.histShift(oldP, oldP-1)
		if p == t.root || t.member[p] > 0 || t.childcnt[p] > 0 {
			return removed
		}
		v = p
	}
}

// Links returns the current delivery-tree link count L.
func (t *DynTree) Links() int { return t.links }

// Members returns the number of distinct current receiver sites.
func (t *DynTree) Members() int { return t.members }

// MemberCount returns the membership multiplicity of node v.
func (t *DynTree) MemberCount(v int32) int {
	if v < 0 || int(v) >= len(t.member) {
		return 0
	}
	return int(t.member[v])
}

// OnTree reports whether v is currently part of the delivery tree.
func (t *DynTree) OnTree(v int32) bool {
	return v >= 0 && int(v) < len(t.tparent) && t.onTree(v)
}

// MaxDegree returns the largest tree degree of any on-tree node.
func (t *DynTree) MaxDegree() int { return t.maxDeg }

// Forced returns how many bounded-variant grafts had to exceed the cap
// because every reachable attachment point was saturated.
func (t *DynTree) Forced() int64 { return t.forced }

// Root returns the tree's root node.
func (t *DynTree) Root() int32 { return t.root }

// DegreeHist appends a copy of the tree-degree histogram (index = degree,
// value = on-tree node count, length MaxDegree()+1) to dst and returns it.
func (t *DynTree) DegreeHist(dst []int64) []int64 {
	return append(dst, t.degHist[:t.maxDeg+1]...)
}

// AppendMembers appends every distinct current receiver site to dst in
// ascending node order and returns it. O(N); used by self-checks and stats,
// never on the event path.
func (t *DynTree) AppendMembers(dst []int32) []int32 {
	for v, c := range t.member {
		if c > 0 {
			dst = append(dst, int32(v))
		}
	}
	return dst
}

// SelfCheck verifies the incremental bookkeeping against a from-scratch
// rebuild: the link count is recomputed by TreeCounter.TreeSize over the
// current member set (unbounded trees — the bounded variant's shape is
// history-dependent, so it is checked structurally instead), child
// refcounts and the degree histogram are recounted from tparent, and the
// exclusive-suffix invariant (no childless, memberless node stays on the
// tree) plus the degree cap are asserted. c may be nil to skip the
// TreeCounter cross-check. O(N); test and debug path only.
func (t *DynTree) SelfCheck(c *TreeCounter) error {
	n := len(t.tparent)
	onTree := 0
	child := make([]int32, n)
	for v := 0; v < n; v++ {
		p := t.tparent[v]
		if p < 0 {
			if t.member[v] > 0 && int32(v) != t.root {
				return fmt.Errorf("dyntree: member node %d off the tree", v)
			}
			continue
		}
		onTree++
		if !t.onTree(p) {
			return fmt.Errorf("dyntree: node %d hangs under off-tree parent %d", v, p)
		}
		if !t.g.HasEdge(v, int(p)) {
			return fmt.Errorf("dyntree: tree edge (%d,%d) is not a graph edge", v, p)
		}
		child[p]++
	}
	if onTree != t.links {
		return fmt.Errorf("dyntree: links=%d but %d non-root on-tree nodes", t.links, onTree)
	}
	hist := make([]int64, t.gMaxDeg+1)
	maxd := 0
	for v := 0; v < n; v++ {
		if child[v] != t.childcnt[v] {
			return fmt.Errorf("dyntree: node %d childcnt=%d, recount=%d", v, t.childcnt[v], child[v])
		}
		if !t.onTree(int32(v)) {
			continue
		}
		if int32(v) != t.root && t.member[v] == 0 && t.childcnt[v] == 0 {
			return fmt.Errorf("dyntree: unreleased suffix node %d (no members, no children)", v)
		}
		d := t.treeDeg(int32(v))
		if t.cap > 0 && d > t.cap && t.forced == 0 {
			return fmt.Errorf("dyntree: node %d degree %d exceeds cap %d with no forced grafts", v, d, t.cap)
		}
		hist[d]++
		if int(d) > maxd {
			maxd = int(d)
		}
	}
	if maxd != t.maxDeg {
		return fmt.Errorf("dyntree: maxDeg=%d, recount=%d", t.maxDeg, maxd)
	}
	for d := 0; d <= maxd; d++ {
		if hist[d] != t.degHist[d] {
			return fmt.Errorf("dyntree: degHist[%d]=%d, recount=%d", d, t.degHist[d], hist[d])
		}
	}
	if c != nil && t.cap == 0 {
		members := t.AppendMembers(nil)
		if want := c.TreeSize(t.spt, members); want != t.links {
			return fmt.Errorf("dyntree: incremental links=%d, from-scratch rebuild=%d (m=%d)",
				t.links, want, len(members))
		}
	}
	return nil
}
