package mcast

import "mtreescale/internal/graph"

// This file holds the tree-counting fast paths of the measurement loops. A
// delivery tree is the Steiner subtree of the source's SPT: the nodes with a
// receiver in their subtree, each contributing the link to its parent. The
// engines count it in one of two ways, chosen by group size alone.
//
// Climbs, for small groups. An SPT stores Dist and Parent as two parallel
// int32 arrays, so every step of a tree climb would cost two random loads.
// The engines instead pack both into one int64 word per node,
//
//	pd[v] = int64(Dist[v])<<32 | int64(uint32(Parent[v]))
//
// and climb from each receiver towards the source, one load per step, until
// a node already in the tree: O(L) dependent random loads per group. The
// distance is pd[v]>>32 (arithmetic shift, so the -1 of an unreachable node
// survives — pd[v] < 0 iff v is unreachable) and the parent is
// int32(uint32(pd[v])). Packing is O(N) once per source and is repaid over
// NRcvr×GridPoints climbs.
//
// A dense sweep, for large groups. The same tree renumbered into BFS rank
// (rankRows) puts every parent at a lower rank than its children, so one
// pass from the last rank to the first, mark[prank[k]] |= mark[k], marks
// exactly the nodes with a marked descendant (Guillemin and Robert,
// cs/0702156) and counts them on the way. A mark is one byte per rank and
// each bit of it is one receiver set, so one pass counts up to eight sets
// drawn on the same source tree: the protocol's NRcvr sets per (source, m)
// are marked one after another (markSet) and swept eight at a time (sweep).
// The pass costs one streaming step per reachable node whatever the group
// and is shared by the sets of one batch; the climbs cost one dependent
// random load per tree node, several times dearer each, and the tree grows
// towards N with the group's density m/N. So the crossover is a density per
// set swept, size*batch*denseCrossover >= N with batch = min(NRcvr, 8), and
// a constant rather than an option: it is set by the ratio of a random load
// to a streaming step, a property of the host's memory hierarchy, not of the
// run. BenchmarkTreeSizeCrossover re-derives it (EXPERIMENTS.md has the
// table); near the crossover the two cost about the same, so a host whose
// best value differs a little loses little, and only at the one or two
// log-spaced grid points nearest it.
//
// Both strategies compute exactly the integers (links, hop sums, receiver
// counts) of TreeCounter.Measure / TreeSize / SharedTreeSize, and the
// engines add each set's sample in draw order either way, so engine results
// are byte-identical whichever runs. The engines choose once per grid
// point. A Distinct grid point the size of the whole population, the
// paper's m = N − 1, has the population as every one of its NRcvr sets:
// the engines mark it in one lane, sweep once and add that one sample NRcvr
// times, and leave the draws owed to the sampler (Sampler.whole), whose
// next draw takes them so every later set is the one the stream gives.
//
// Receiver slices come from the Sampler, whose site population is built from
// node IDs in [0, N), so the loops index pd and rd without range guards; the
// unreachable check doubles as the only per-receiver branch.

// denseCrossover is the group density per swept set at which the dense
// sweep replaces climbs: a grid point whose sets are swept batch at a time
// is swept when size*batch*denseCrossover >= N (dense).
const denseCrossover = 16

// sweepLanes is the number of receiver sets one sweep counts: one per bit of
// a mark byte.
const sweepLanes = 8

// spread[mk] holds bit j of the mark byte mk in byte j, so adding it to a
// uint64 advances eight byte counters at once, one per set.
var spread = func() (t [256]uint64) {
	for mk := range t {
		for j := 0; j < sweepLanes; j++ {
			t[mk] |= uint64(mk>>j&1) << (8 * j)
		}
	}
	return t
}()

// packTree packs spt's Dist and Parent into one int64-per-node array,
// reusing dst's storage when large enough.
func packTree(spt *graph.SPT, dst []int64) []int64 {
	dst = grow(dst, len(spt.Dist))
	parent := spt.Parent
	for v, d := range spt.Dist {
		dst[v] = int64(d)<<32 | int64(uint32(parent[v]))
	}
	return dst
}

// climb4 marks the ancestor paths of four climb cursors under one epoch and
// returns the number of newly marked nodes (tree links added). A tree climb
// is a loop-carried chain of random loads (v = parent(v)), so a single climb
// runs at L1 load latency; advancing four independent climbs per round keeps
// four loads in flight and hides most of that latency.
//
// Interleaving does not change the integers: each round checks visited before
// marking, so every node is marked (and counted) at most once, and a cursor
// only parks when it reaches a node some climb has already marked — whose
// remaining ancestor path that climb goes on to mark. The final marked set is
// the ancestor-closed union of the cursors' root paths, exactly the set the
// one-at-a-time loop marks. Callers park unused lanes on an already-marked
// node (e.g. the root) to leave them inert.
func climb4(pd []int64, visited []int32, epoch int32, r0, r1, r2, r3 int32) int {
	links := 0
	for {
		live := false
		if visited[r0] != epoch {
			visited[r0] = epoch
			links++
			r0 = int32(uint32(pd[r0]))
			live = true
		}
		if visited[r1] != epoch {
			visited[r1] = epoch
			links++
			r1 = int32(uint32(pd[r1]))
			live = true
		}
		if visited[r2] != epoch {
			visited[r2] = epoch
			links++
			r2 = int32(uint32(pd[r2]))
			live = true
		}
		if visited[r3] != epoch {
			visited[r3] = epoch
			links++
			r3 = int32(uint32(pd[r3]))
			live = true
		}
		if !live {
			return links
		}
	}
}

// rankRows is one SPT renumbered into BFS rank for the dense sweep. The
// rank of a node is its position in a nondecreasing-distance order with the
// source at rank 0, so every parent ranks below its children. The rows are
// built from the tree on first use (rank), so a source whose groups all stay
// below the crossover never pays for them.
type rankRows struct {
	spt *graph.SPT // the tree still to rank; nil once the rows hold its ranks

	rd    []int64 // rd[v] = dist<<32 | rank(v); negative when v is unreachable
	prank []int32 // prank[k] = rank of the parent of rank k; prank[0] = 0
	mark  []uint8 // bit j of mark[k] is set when set j has a member at or below rank k; all 0 between sweeps
	level []int32 // counting-sort scratch of rank: the next free rank of each distance
}

// use points the rows at a new source tree; they are ranked on first use.
func (rr *rankRows) use(spt *graph.SPT) { rr.spt = spt }

// rank builds the rows from spt.Order or, for a batch lane view (nil
// Order), from a counting sort of Dist that puts one level's nodes in index
// order. Either order gives the same counts: the sweep needs only that
// parents rank below children.
func (rr *rankRows) rank() {
	t := rr.spt
	rr.spt = nil
	rd := grow(rr.rd, len(t.Dist))
	reach := len(t.Order)
	if t.Order != nil {
		for v := range rd {
			rd[v] = -1
		}
		for k, v := range t.Order {
			rd[v] = int64(t.Dist[v])<<32 | int64(k)
		}
	} else {
		depth := int32(-1)
		for _, d := range t.Dist {
			depth = max(depth, d)
		}
		level := grow(rr.level, int(depth)+1)
		clear(level)
		for _, d := range t.Dist {
			if d >= 0 {
				level[d]++
			}
		}
		for d, c := range level {
			level[d] = int32(reach)
			reach += int(c)
		}
		for v, d := range t.Dist {
			if d < 0 {
				rd[v] = -1
				continue
			}
			rd[v] = int64(d)<<32 | int64(level[d])
			level[d]++
		}
		rr.level = level
	}
	prank := grow(rr.prank, reach)
	for v, w := range rd {
		if w >= 0 {
			prank[uint32(w)] = int32(uint32(rd[t.Parent[v]]))
		}
	}
	mark := grow(rr.mark, reach)
	clear(mark)
	rr.rd, rr.prank, rr.mark = rd, prank, mark
}

// markSet marks set j, bit j of the mark bytes, at the rank of extra (the
// shared tree's source; -1 for none) and of every reachable receiver, one
// load per receiver that also yields its hop count. It returns the set's
// unicast hop sum and reachable receiver count; the next sweep counts its
// links.
func (rr *rankRows) markSet(j int, extra int32, receivers []int32) (hops int64, reach int) {
	if rr.spt != nil {
		rr.rank()
	}
	rd, mark := rr.rd, rr.mark
	bit := uint8(1) << j
	if extra >= 0 && int(extra) < len(rd) && rd[extra] >= 0 {
		mark[uint32(rd[extra])] |= bit
	}
	for _, r := range receivers {
		w := rd[r]
		if w < 0 {
			continue
		}
		hops += w >> 32
		reach++
		mark[uint32(w)] |= bit
	}
	return hops, reach
}

// sweep counts the sets marked since the last sweep in one pass over the
// ranks from last to first: each rank adds its mark byte to eight byte
// counters (spread), passes the byte to its parent and clears it for the
// next batch. A byte counter holds at most 255, so the counters are flushed
// every 255 ranks. Rank 0, the root, is never counted, just as a climb stops
// at it. ms[j].Links is set to set j's tree size, for every set j < len(ms);
// every marked set must have its slot.
func (rr *rankRows) sweep(ms []Measurement) {
	mark := rr.mark
	prank := rr.prank[:len(mark)]
	var links [sweepLanes]int
	for hi := len(mark); hi > 1; {
		lo := max(hi-255, 1)
		var acc uint64
		for k := hi - 1; k >= lo; k-- {
			mk := mark[k]
			acc += spread[mk]
			mark[prank[k]] |= mk
			mark[k] = 0
		}
		for j := range links {
			links[j] += int(acc >> (8 * j) & 0xff)
		}
		hi = lo
	}
	mark[0] = 0
	for j := range ms {
		ms[j].Links = links[j]
	}
}

// dense reports whether a grid point of size-receiver sets on an n-node
// graph, swept batch sets at a time, is counted by the sweep rather than by
// climbs.
func dense(size, batch, n int) bool { return size*batch*denseCrossover >= n }

// measureClimb is the climbing equivalent of Measure: one pass over the
// receivers computes the delivery-tree size, the unicast hop sum and the
// reachable count together. Receivers are climbed four at a time (climb4); the short
// tail falls back to the one-at-a-time loop.
func (c *TreeCounter) measureClimb(source int32, pd []int64, receivers []int32) Measurement {
	epoch := c.next(len(pd))
	visited := c.visited
	var m Measurement
	visited[source] = epoch
	i, n := 0, len(receivers)
	for ; i+4 <= n; i += 4 {
		r0, r1, r2, r3 := receivers[i], receivers[i+1], receivers[i+2], receivers[i+3]
		w0, w1, w2, w3 := pd[r0], pd[r1], pd[r2], pd[r3]
		// An unreachable receiver parks its lane on the source, which is
		// always marked, so the lane is born inert.
		if w0 < 0 {
			r0 = source
		} else {
			m.UnicastHops += w0 >> 32
			m.Receivers++
		}
		if w1 < 0 {
			r1 = source
		} else {
			m.UnicastHops += w1 >> 32
			m.Receivers++
		}
		if w2 < 0 {
			r2 = source
		} else {
			m.UnicastHops += w2 >> 32
			m.Receivers++
		}
		if w3 < 0 {
			r3 = source
		} else {
			m.UnicastHops += w3 >> 32
			m.Receivers++
		}
		m.Links += climb4(pd, visited, epoch, r0, r1, r2, r3)
	}
	for ; i < n; i++ {
		r := receivers[i]
		w := pd[r]
		if w < 0 {
			continue // unreachable (or the paper's degenerate tiny component)
		}
		m.UnicastHops += w >> 32
		m.Receivers++
		for v := r; visited[v] != epoch; {
			visited[v] = epoch
			m.Links++
			v = int32(uint32(pd[v]))
		}
	}
	return m
}

// sharedTreeSizeClimb is the climbing equivalent of SharedTreeSize on the
// tree pd rooted at root: the tree is climbed from the group's source and
// from every receiver under one epoch, with the same four-wide climb as
// measureClimb. A negative source climbs from the receivers alone, which is
// the climbing equivalent of TreeSize on a tree rooted at the source.
func (c *TreeCounter) sharedTreeSizeClimb(root int32, pd []int64, source int32, receivers []int32) int {
	epoch := c.next(len(pd))
	visited := c.visited
	links := 0
	visited[root] = epoch
	if source >= 0 && int(source) < len(pd) && pd[source] >= 0 {
		for v := source; visited[v] != epoch; {
			visited[v] = epoch
			links++
			v = int32(uint32(pd[v]))
		}
	}
	i, n := 0, len(receivers)
	for ; i+4 <= n; i += 4 {
		r0, r1, r2, r3 := receivers[i], receivers[i+1], receivers[i+2], receivers[i+3]
		if pd[r0] < 0 {
			r0 = root
		}
		if pd[r1] < 0 {
			r1 = root
		}
		if pd[r2] < 0 {
			r2 = root
		}
		if pd[r3] < 0 {
			r3 = root
		}
		links += climb4(pd, visited, epoch, r0, r1, r2, r3)
	}
	for ; i < n; i++ {
		r := receivers[i]
		if pd[r] < 0 {
			continue
		}
		for v := r; visited[v] != epoch; {
			visited[v] = epoch
			links++
			v = int32(uint32(pd[v]))
		}
	}
	return links
}
