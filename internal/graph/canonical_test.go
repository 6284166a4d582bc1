package graph

import (
	"fmt"
	"slices"
	"testing"
)

// un marks an unreachable cell in the tables below.
const un = Unreachable

// canonicalCases are hand-built graphs with their complete shortest-path
// trees written out: dist[s] and parent[s] are the Dist and Parent rows of
// the tree rooted at source s. Parents follow the canonical rule — the
// lowest-index neighbor one hop closer to the source — so every same-level
// tie below (the 4-cycle's far corner, the ladder's rung-or-rail choices)
// has exactly one right answer. The rows are an oracle independent of any
// kernel: both kernels on both layouts must reproduce them.
var canonicalCases = []struct {
	name   string
	n      int
	edges  [][2]int
	dist   [][]int32
	parent [][]int32
}{
	{
		name:  "path",
		n:     4,
		edges: [][2]int{{0, 1}, {1, 2}, {2, 3}},
		dist: [][]int32{
			{0, 1, 2, 3},
			{1, 0, 1, 2},
			{2, 1, 0, 1},
			{3, 2, 1, 0},
		},
		parent: [][]int32{
			{0, 0, 1, 2},
			{1, 1, 1, 2},
			{1, 2, 2, 2},
			{1, 2, 3, 3},
		},
	},
	{
		// Hub 2 with leaves on both sides of its index.
		name:  "star",
		n:     4,
		edges: [][2]int{{2, 0}, {2, 1}, {2, 3}},
		dist: [][]int32{
			{0, 2, 1, 2},
			{2, 0, 1, 2},
			{1, 1, 0, 1},
			{2, 2, 1, 0},
		},
		parent: [][]int32{
			{0, 2, 0, 2},
			{2, 1, 1, 2},
			{2, 2, 2, 2},
			{2, 2, 3, 3},
		},
	},
	{
		// 0-1-2-3-0: the corner opposite each source is reached through
		// two equal-length routes and takes the lower-index one.
		name:  "4-cycle",
		n:     4,
		edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
		dist: [][]int32{
			{0, 1, 2, 1},
			{1, 0, 1, 2},
			{2, 1, 0, 1},
			{1, 2, 1, 0},
		},
		parent: [][]int32{
			{0, 0, 1, 0},
			{1, 1, 1, 0},
			{1, 2, 2, 2},
			{3, 0, 3, 3},
		},
	},
	{
		// Rails 0-1-2 and 3-4-5 joined by rungs 0-3, 1-4, 2-5.
		name:  "ladder",
		n:     6,
		edges: [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 3}, {1, 4}, {2, 5}},
		dist: [][]int32{
			{0, 1, 2, 1, 2, 3},
			{1, 0, 1, 2, 1, 2},
			{2, 1, 0, 3, 2, 1},
			{1, 2, 3, 0, 1, 2},
			{2, 1, 2, 1, 0, 1},
			{3, 2, 1, 2, 1, 0},
		},
		parent: [][]int32{
			{0, 0, 1, 0, 1, 2},
			{1, 1, 1, 0, 1, 2},
			{1, 2, 2, 0, 1, 2},
			{3, 0, 1, 3, 3, 4},
			{1, 4, 1, 4, 4, 4},
			{1, 2, 5, 4, 5, 5},
		},
	},
	{
		// A path 0-1-2, an edge 3-4 and an isolated node 5.
		name:  "two-components",
		n:     6,
		edges: [][2]int{{0, 1}, {1, 2}, {3, 4}},
		dist: [][]int32{
			{0, 1, 2, un, un, un},
			{1, 0, 1, un, un, un},
			{2, 1, 0, un, un, un},
			{un, un, un, 0, 1, un},
			{un, un, un, 1, 0, un},
			{un, un, un, un, un, 0},
		},
		parent: [][]int32{
			{0, 0, 1, un, un, un},
			{1, 1, 1, un, un, un},
			{1, 2, 2, un, un, un},
			{un, un, un, 3, 3, un},
			{un, un, un, 4, 4, un},
			{un, un, un, un, un, 5},
		},
	},
	{
		name:   "single-node",
		n:      1,
		dist:   [][]int32{{0}},
		parent: [][]int32{{0}},
	},
}

// TestCanonicalParents checks BFS and BatchSPTs, on the flat and the
// compressed layout, against the hand-written trees of canonicalCases.
func TestCanonicalParents(t *testing.T) {
	for _, tc := range canonicalCases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(tc.n)
			for _, e := range tc.edges {
				if err := b.AddEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			flat := b.Build()
			cg, err := flat.Compress()
			if err != nil {
				t.Fatal(err)
			}
			sources := make([]int, tc.n)
			for s := range sources {
				sources[s] = s
			}
			for _, layout := range []struct {
				name string
				g    *Graph
			}{{"flat", flat}, {"compressed", cg}} {
				batch, err := layout.g.BatchSPTs(sources)
				if err != nil {
					t.Fatal(err)
				}
				for s := range sources {
					spt, err := layout.g.BFS(s)
					if err != nil {
						t.Fatal(err)
					}
					for _, got := range []struct {
						kernel       string
						dist, parent []int32
					}{
						{"BFS", spt.Dist, spt.Parent},
						{"BatchSPTs", batch.DistRow(s), batch.ParentRow(s)},
					} {
						where := fmt.Sprintf("%s/%s source %d", layout.name, got.kernel, s)
						if !slices.Equal(got.dist, tc.dist[s]) {
							t.Errorf("%s: Dist = %v, want %v", where, got.dist, tc.dist[s])
						}
						if !slices.Equal(got.parent, tc.parent[s]) {
							t.Errorf("%s: Parent = %v, want %v", where, got.parent, tc.parent[s])
						}
					}
				}
			}
		})
	}
}
