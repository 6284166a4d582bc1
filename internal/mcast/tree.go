// Package mcast implements the paper's multicast measurement engine: given a
// topology and a source, it builds source-rooted shortest-path delivery
// trees for random receiver sets and measures the tree size L(m), the
// unicast path-length sum, and the normalized ratio the paper plots.
//
// Terminology follows the paper exactly:
//
//   - m: the number of *distinct* receiver sites.
//   - n: the number of receiver choices when receivers are drawn with
//     replacement (not necessarily distinct sites).
//   - L(m), L̄(n): the number of links in the delivery tree.
//   - ū: the average unicast hop count from source to the receivers.
package mcast

import (
	"fmt"

	"mtreescale/internal/graph"
)

// TreeCounter measures delivery-tree sizes against a fixed shortest-path
// tree. It keeps reusable scratch state so repeated measurements allocate
// nothing; it is not safe for concurrent use.
type TreeCounter struct {
	epoch   int32
	visited []int32 // visited[v] == epoch means v is already in this tree
}

// NewTreeCounter returns a counter for graphs of at most n nodes.
func NewTreeCounter(n int) *TreeCounter {
	return &TreeCounter{visited: make([]int32, n)}
}

// next starts a measurement on an n-node tree and returns its epoch: it
// grows visited when it is short and advances the epoch. Unstamped nodes
// hold 0, so when the epoch wraps to 0 or below the stamps are re-zeroed
// and the epochs restart at 1.
func (c *TreeCounter) next(n int) int32 {
	if n > len(c.visited) {
		c.visited = make([]int32, n)
		c.epoch = 0
	}
	c.epoch++
	if c.epoch <= 0 {
		clear(c.visited)
		c.epoch = 1
	}
	return c.epoch
}

// TreeSize returns the number of links in the delivery tree induced by the
// given receivers on the shortest-path tree spt: the union of the tree paths
// from the source to every reachable receiver. Duplicate receivers are fine
// (they add no links). Unreachable receivers are ignored — the paper's
// topologies are connected, so this only matters for synthetic edge cases.
//
// The algorithm climbs from each receiver toward the source, stopping at the
// first node already in the tree, so total cost is O(L) for the whole set —
// each tree link is visited exactly once.
func (c *TreeCounter) TreeSize(spt *graph.SPT, receivers []int32) int {
	epoch := c.next(len(spt.Parent))
	links := 0
	c.visited[spt.Source] = epoch
	for _, r := range receivers {
		v := r
		if v < 0 || int(v) >= len(spt.Parent) || spt.Dist[v] == graph.Unreachable {
			continue
		}
		for c.visited[v] != epoch {
			c.visited[v] = epoch
			links++
			v = spt.Parent[v]
		}
	}
	return links
}

// Begin starts an incremental tree measurement: subsequent Add calls grow
// one delivery tree receiver by receiver. It invalidates any in-progress
// incremental measurement.
func (c *TreeCounter) Begin(spt *graph.SPT) {
	epoch := c.next(len(spt.Parent))
	c.visited[spt.Source] = epoch
}

// Add joins one receiver to the tree started by Begin and returns the
// number of new links its path contributes (the paper's ΔL). Duplicate or
// unreachable receivers contribute 0.
func (c *TreeCounter) Add(spt *graph.SPT, r int32) int {
	if r < 0 || int(r) >= len(spt.Parent) || spt.Dist[r] == graph.Unreachable {
		return 0
	}
	links := 0
	for v := r; c.visited[v] != c.epoch; {
		c.visited[v] = c.epoch
		links++
		v = spt.Parent[v]
	}
	return links
}

// TreeSizeSlow recomputes the delivery-tree size with an explicit edge-set
// union. It exists as the reference implementation for tests and for the
// counting ablation benchmark; production code uses TreeSize.
func TreeSizeSlow(spt *graph.SPT, receivers []int32) int {
	type edge struct{ a, b int32 }
	edges := make(map[edge]bool)
	for _, r := range receivers {
		v := r
		if v < 0 || int(v) >= len(spt.Parent) || spt.Dist[v] == graph.Unreachable {
			continue
		}
		for int(v) != spt.Source {
			p := spt.Parent[v]
			a, b := v, p
			if a > b {
				a, b = b, a
			}
			edges[edge{a, b}] = true
			v = p
		}
	}
	return len(edges)
}

// UnicastSum returns the total unicast hop count from the source to every
// receiver (duplicates counted each time, matching the paper's "sum of the
// unicast paths"), and the number of reachable receivers.
func UnicastSum(spt *graph.SPT, receivers []int32) (hops int64, reachable int) {
	for _, r := range receivers {
		if r < 0 || int(r) >= len(spt.Dist) || spt.Dist[r] == graph.Unreachable {
			continue
		}
		hops += int64(spt.Dist[r])
		reachable++
	}
	return hops, reachable
}

// Measurement is one delivery-tree observation.
type Measurement struct {
	// Links is the delivery-tree size L.
	Links int
	// UnicastHops is the sum of source→receiver shortest-path hop counts.
	UnicastHops int64
	// Receivers is the number of reachable receivers measured.
	Receivers int
}

// AvgUnicast returns the average unicast path length ū for this sample.
func (m Measurement) AvgUnicast() float64 {
	if m.Receivers == 0 {
		return 0
	}
	return float64(m.UnicastHops) / float64(m.Receivers)
}

// Ratio returns L/ū, the paper's normalized tree size (the quantity whose
// scaling with m is the Chuang-Sirbu law). Zero when no receiver was
// reachable.
func (m Measurement) Ratio() float64 {
	u := m.AvgUnicast()
	if u == 0 {
		return 0
	}
	return float64(m.Links) / u
}

// Measure performs one observation of the given receiver set.
func (c *TreeCounter) Measure(spt *graph.SPT, receivers []int32) Measurement {
	links := c.TreeSize(spt, receivers)
	hops, reachable := UnicastSum(spt, receivers)
	return Measurement{Links: links, UnicastHops: hops, Receivers: reachable}
}

// Validate cross-checks a measurement against the structural bounds that
// must hold for any delivery tree: max path ≤ L ≤ min(Σ unicast, N-1).
func (m Measurement) Validate(spt *graph.SPT) error {
	if m.Links < 0 {
		return fmt.Errorf("mcast: negative tree size %d", m.Links)
	}
	if int64(m.Links) > m.UnicastHops {
		return fmt.Errorf("mcast: tree size %d exceeds unicast sum %d", m.Links, m.UnicastHops)
	}
	if m.Links > len(spt.Parent)-1 {
		return fmt.Errorf("mcast: tree size %d exceeds N-1", m.Links)
	}
	return nil
}
