package graph

import (
	"fmt"
	"math"
	"slices"
)

// This file implements the streaming CSR builder for large graphs.
// Builder.Build holds its edge list, 8 bytes per undirected edge, until the
// CSR arrays are built on top of it, which at 10M nodes and average degree 4
// means multiple transient gigabytes beyond the final graph. The two-pass
// streaming path never holds an edge list: pass one counts degrees, pass two
// scatters both endpoints of every edge straight into the final adjacency
// array, and sortDedupRows, which Build also uses on its forward rows,
// sorts and deduplicates each row in place. Peak RSS is the final CSR plus a
// 4 B/node cursor, within the "≤ ~2× final CSR bytes" budget that
// large-smoke asserts. The price is duplicate slack: the adjacency array is
// sized before deduplication and reallocated only once duplicates reach 1/8
// of it, so its MemBytes can exceed Build's exact 2·M.

// EdgeStream produces a graph's edge multiset by calling emit(u, v) once per
// edge. A stream MUST be re-runnable and deterministic: BuildStreamed
// invokes it twice (count pass, fill pass) and requires the identical edge
// sequence both times — generators achieve this by re-seeding their RNG
// inside the closure on every invocation. Self-loops are skipped (mirroring
// Builder.AddEdge); duplicate edges are deduplicated. emit must be called
// synchronously from the stream function.
type EdgeStream func(emit func(u, v int32)) error

// BuildStreamed constructs the CSR for an n-node graph from two passes over
// stream, without materializing an edge list. Its neighbor lists equal those
// Build makes from the same edges. Its adjacency array keeps up to 1/8
// duplicate slack: it is reallocated to the deduplicated size only when at
// least 1/8 of the streamed entries were duplicates. It returns an error
// when the stream emits out-of-range endpoints, produces different
// sequences across the two passes, or overflows the int32 CSR index space.
func BuildStreamed(n int, name string, stream EdgeStream) (*Graph, error) {
	if n < 0 {
		n = 0
	}
	if stream == nil {
		return nil, fmt.Errorf("graph: BuildStreamed needs an edge stream")
	}

	// Pass 1: count directed degrees. deg[v+1] accumulates v's count so the
	// in-place prefix sum below turns the same array into offsets.
	deg := make([]int32, n+1)
	var badU, badV int32
	bad := false
	var total int64
	err := stream(func(u, v int32) {
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			if !bad {
				bad, badU, badV = true, u, v
			}
			return
		}
		if u == v {
			return
		}
		deg[u+1]++
		deg[v+1]++
		total += 2
	})
	if err != nil {
		return nil, fmt.Errorf("graph: edge stream failed: %w", err)
	}
	if bad {
		return nil, fmt.Errorf("graph: streamed edge (%d,%d) out of range [0,%d)", badU, badV, n)
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d directed edge entries overflow the int32 CSR index space", total)
	}

	offsets := deg // reuse: prefix sum in place
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj := make([]int32, total)
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])

	// Pass 2: scatter endpoints. The stream must replay the same sequence;
	// any divergence overflows or underfills some vertex's range, which the
	// cursor checks below catch deterministically.
	diverged := false
	err = stream(func(u, v int32) {
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n || u == v {
			return
		}
		if cursor[u] == offsets[u+1] || cursor[v] == offsets[v+1] {
			diverged = true
			return
		}
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	})
	if err != nil {
		return nil, fmt.Errorf("graph: edge stream failed on fill pass: %w", err)
	}
	for v := 0; v < n && !diverged; v++ {
		if cursor[v] != offsets[v+1] {
			diverged = true
		}
	}
	if diverged {
		return nil, fmt.Errorf("graph: edge stream is not deterministic across passes")
	}

	write := sortDedupRows(offsets, adj)
	if int64(write) <= total*7/8 {
		// Heavy duplication: reallocate so MemBytes reflects reality.
		adj = append(make([]int32, 0, write), adj[:write]...)
	} else {
		adj = adj[:write]
	}
	return &Graph{offsets: offsets, adj: adj, name: name}, nil
}

// sortDedupRows sorts each row adj[offsets[v]:offsets[v+1]], drops its
// repeated entries and compacts the rows to the front of adj, rewriting
// offsets to the compacted bounds; it returns the entries kept. The write
// position never overtakes the row being read, so no buffer is needed.
// Entries must be non-negative.
func sortDedupRows(offsets, adj []int32) int32 {
	n := len(offsets) - 1
	write := int32(0)
	for v := 0; v < n; v++ {
		seg := adj[offsets[v]:offsets[v+1]]
		slices.Sort(seg)
		offsets[v] = write
		last := int32(-1)
		for _, w := range seg {
			if w != last {
				adj[write] = w
				write++
				last = w
			}
		}
	}
	offsets[n] = write
	return write
}
