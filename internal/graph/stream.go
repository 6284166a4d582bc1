package graph

import (
	"fmt"
	"math"
	"slices"
)

// This file implements the streaming CSR builder for large graphs.
// The Builder materializes an edge list — 8 bytes per undirected edge before
// canonicalization and the CSR arrays on top — which at 10M nodes and average
// degree 4 means multiple transient gigabytes beyond the final graph. The
// two-pass streaming path never holds an edge list: pass one counts degrees,
// pass two scatters endpoints straight into the final adjacency array, and
// an in-place per-vertex sort+dedup finishes the CSR. Peak RSS is the final
// CSR plus a 4 B/node cursor, within the "≤ ~2× final CSR bytes" budget
// that large-smoke asserts.

// EdgeStream produces a graph's edge multiset by calling emit(u, v) once per
// edge. A stream MUST be re-runnable and deterministic: BuildStreamed
// invokes it twice (count pass, fill pass) and requires the identical edge
// sequence both times — generators achieve this by re-seeding their RNG
// inside the closure on every invocation. Self-loops are skipped (mirroring
// Builder.AddEdge); duplicate edges are deduplicated. emit must be called
// synchronously from the stream function.
type EdgeStream func(emit func(u, v int32)) error

// BuildStreamed constructs the CSR for an n-node graph from two passes over
// stream, without materializing an edge list. It returns an error when the
// stream emits out-of-range endpoints, produces different sequences across
// the two passes, or overflows the int32 CSR index space.
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

	// Per-vertex sort + dedup, compacting in place. The write cursor never
	// overtakes the read range, so no extra buffer is needed.
	write := int32(0)
	for v := 0; v < n; v++ {
		s, e := offsets[v], offsets[v+1]
		seg := adj[s:e]
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
	if int64(write) <= total*7/8 {
		// Heavy duplication: reallocate so MemBytes reflects reality.
		adj = append(make([]int32, 0, write), adj[:write]...)
	} else {
		adj = adj[:write]
	}
	return &Graph{offsets: offsets, adj: adj, name: name}, nil
}
