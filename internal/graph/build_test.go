package graph

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"mtreescale/internal/rng"
)

// referenceBuild is Builder.Build as it was before the counting sort: one
// sort.Slice over the whole edge list, then dedup, degree count and scatter.
// It is kept verbatim to pin the production build, and like it leaves the
// builder reusable.
func (b *Builder) referenceBuild() *Graph {
	// Deduplicate canonicalized edges.
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i][0] != b.edges[j][0] {
			return b.edges[i][0] < b.edges[j][0]
		}
		return b.edges[i][1] < b.edges[j][1]
	})
	uniq := b.edges[:0:len(b.edges)]
	var last [2]int32 = [2]int32{-1, -1}
	for _, e := range b.edges {
		if e != last {
			uniq = append(uniq, e)
			last = e
		}
	}

	deg := make([]int32, b.n)
	for _, e := range uniq {
		deg[e[0]]++
		deg[e[1]]++
	}
	offsets := make([]int32, b.n+1)
	for v := 0; v < b.n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]int32, offsets[b.n])
	cursor := make([]int32, b.n)
	copy(cursor, offsets[:b.n])
	for _, e := range uniq {
		adj[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		adj[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	return &Graph{offsets: offsets, adj: adj, name: b.name}
}

// referenceGiantComponent is GiantComponent as it was before it renumbered
// the CSR rows directly: every kept edge goes through a new Builder, built
// by referenceBuild. It is kept verbatim otherwise.
func (g *Graph) referenceGiantComponent() (*Graph, []int32) {
	labels, count := g.Components()
	if count <= 1 {
		ids := make([]int32, g.N())
		for i := range ids {
			ids[i] = int32(i)
		}
		return g, ids
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for i, s := range sizes {
		if s > sizes[best] {
			best = i
		}
	}
	// Renumber.
	newID := make([]int32, g.N())
	oldID := make([]int32, 0, sizes[best])
	for v := 0; v < g.N(); v++ {
		if labels[v] == int32(best) {
			newID[v] = int32(len(oldID))
			oldID = append(oldID, int32(v))
		} else {
			newID[v] = -1
		}
	}
	b := NewBuilder(len(oldID))
	b.SetName(g.name)
	g.Edges(func(u, v int) {
		if newID[u] >= 0 && newID[v] >= 0 {
			// Endpoints are in range by construction; error impossible.
			_ = b.AddEdge(int(newID[u]), int(newID[v]))
		}
	})
	return b.referenceBuild(), oldID
}

// sameInt32s reports the first index at which got and want differ, element
// by element, or "" when they are equal.
func sameInt32s(got, want []int32) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("len %d, want %d", len(got), len(want))
	}
	return ""
}

// checkSameCSR fails unless got has want's name, offsets and adjacency, and
// exactly sized arrays: cap(adj) == len(adj) == 2·M and cap(offsets) == N+1,
// which keeps MemBytes, the cache budgets' unit, where the reference had it.
func checkSameCSR(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.name != want.name {
		t.Fatalf("%s: name %q, want %q", what, got.name, want.name)
	}
	if d := sameInt32s(got.offsets, want.offsets); d != "" {
		t.Fatalf("%s: offsets%s", what, d)
	}
	if d := sameInt32s(got.adj, want.adj); d != "" {
		t.Fatalf("%s: adj%s", what, d)
	}
	if m := want.M(); len(got.adj) != 2*m || cap(got.adj) != 2*m {
		t.Fatalf("%s: len/cap(adj) = %d/%d, want 2·M = %d", what, len(got.adj), cap(got.adj), 2*m)
	}
	if cap(got.offsets) != want.N()+1 {
		t.Fatalf("%s: cap(offsets) = %d, want N+1 = %d", what, cap(got.offsets), want.N()+1)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// checkBuildMatchesReference builds b and ref, which were fed the same
// calls, and requires the same graph from each, and the same giant component
// and oldID mapping from it. It returns b's graph's oldID.
func checkBuildMatchesReference(t *testing.T, b, ref *Builder) []int32 {
	t.Helper()
	got, want := b.Build(), ref.referenceBuild()
	checkSameCSR(t, "Build", got, want)
	gotGiant, gotOld := got.GiantComponent()
	wantGiant, wantOld := want.referenceGiantComponent()
	checkSameCSR(t, "GiantComponent", gotGiant, wantGiant)
	if d := sameInt32s(gotOld, wantOld); d != "" {
		t.Fatalf("GiantComponent: oldID%s", d)
	}
	return gotOld
}

// randomEdges draws a reproducible edge multiset with duplicates and
// self-loops mixed in.
func randomEdges(seed int64, n, m int) [][2]int32 {
	r := rng.New(seed)
	edges := make([][2]int32, 0, m)
	for i := 0; i < m; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		edges = append(edges, [2]int32{u, v})
		if i%7 == 0 {
			edges = append(edges, [2]int32{u, v}) // duplicate
		}
		if i%11 == 0 {
			edges = append(edges, [2]int32{u, u}) // self-loop
		}
	}
	return edges
}

// buildStep is one round of calls to a Builder before a Build: an optional
// Grow, then AddEdge for each edge in order.
type buildStep struct {
	grow  int
	edges [][2]int32
}

func TestBuildMatchesReference(t *testing.T) {
	both := func(es ...[2]int32) [][2]int32 {
		var out [][2]int32
		for range 3 {
			for _, e := range es {
				out = append(out, e, [2]int32{e[1], e[0]})
			}
		}
		return out
	}
	star := func(n int) [][2]int32 {
		var out [][2]int32
		for v := n - 1; v > 0; v-- {
			out = append(out, [2]int32{int32(v), 0})
		}
		return out
	}
	cases := []struct {
		name  string
		n     int
		steps []buildStep
		// giantOld, when set, is the oldID GiantComponent must return.
		giantOld []int32
	}{
		{name: "n=0", n: 0, steps: []buildStep{{}}},
		{name: "n=1", n: 1, steps: []buildStep{{edges: [][2]int32{{0, 0}}}}},
		{name: "n=2", n: 2, steps: []buildStep{{edges: [][2]int32{{1, 0}}}}},
		{name: "isolated nodes", n: 9, steps: []buildStep{{edges: [][2]int32{{7, 2}, {2, 4}}}}},
		{name: "self-loops only", n: 4, steps: []buildStep{{edges: [][2]int32{{0, 0}, {3, 3}, {1, 1}, {3, 3}}}}},
		{name: "both orientations repeated", n: 6, steps: []buildStep{{edges: both(
			[2]int32{0, 5}, [2]int32{4, 1}, [2]int32{2, 3}, [2]int32{5, 2}, [2]int32{1, 0})}}},
		{name: "star", n: 50, steps: []buildStep{{edges: star(50)}}},
		{name: "random multigraph seed 1", n: 200, steps: []buildStep{{edges: randomEdges(1, 200, 600)}}},
		{name: "random multigraph seed 2", n: 40, steps: []buildStep{{edges: randomEdges(2, 40, 30)}}},
		{name: "random multigraph seed 77", n: 30, steps: []buildStep{{edges: randomEdges(77, 30, 400)}}},
		{name: "reused after Build and Grow", n: 20, steps: []buildStep{
			{edges: randomEdges(3, 20, 25)},
			{edges: randomEdges(4, 20, 10)},
			{grow: 35, edges: randomEdges(5, 35, 30)},
			{grow: 10}, // no shrink
			{grow: 40},
		}},
		{name: "largest component found second", n: 7,
			steps:    []buildStep{{edges: [][2]int32{{0, 6}, {1, 2}, {2, 3}, {3, 5}, {5, 1}}}},
			giantOld: []int32{1, 2, 3, 5}},
		{name: "tied components, first wins", n: 6,
			steps:    []buildStep{{edges: [][2]int32{{4, 2}, {2, 0}, {5, 3}, {3, 1}}}},
			giantOld: []int32{0, 2, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, ref := NewBuilder(tc.n), NewBuilder(tc.n)
			b.SetName(tc.name)
			ref.SetName(tc.name)
			var oldID []int32
			for _, st := range tc.steps {
				for _, x := range []*Builder{b, ref} {
					x.Grow(st.grow)
					for _, e := range st.edges {
						if err := x.AddEdge(int(e[0]), int(e[1])); err != nil {
							t.Fatal(err)
						}
					}
				}
				oldID = checkBuildMatchesReference(t, b, ref)
			}
			if tc.giantOld != nil && !slices.Equal(oldID, tc.giantOld) {
				t.Fatalf("GiantComponent oldID = %v, want %v", oldID, tc.giantOld)
			}
		})
	}
}

// FuzzBuildMatchesReference turns its input into Builder calls: the first
// byte is the node count (mod 64), and each following byte pair is an edge,
// its endpoints taken mod the current node count, except that a pair whose
// first byte is 0xff builds and checks mid-stream and then grows the
// builders by its second byte mod 4, so reused builders are covered.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{5, 0, 1, 1, 0, 0, 1, 2, 2, 3, 4, 4, 3})
	f.Add([]byte{6, 0, 2, 2, 4, 1, 3, 3, 5})
	f.Add([]byte{8, 0, 1, 0, 2, 0, 3, 0, 4, 0xff, 3, 9, 1, 10, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 64
		b, ref := NewBuilder(n), NewBuilder(n)
		for i := 1; i+1 < len(data); i += 2 {
			x, y := int(data[i]), int(data[i+1])
			if x == 0xff {
				checkBuildMatchesReference(t, b, ref)
				b.Grow(b.N() + y%4)
				ref.Grow(ref.N() + y%4)
				continue
			}
			if b.N() == 0 {
				continue
			}
			u, v := x%b.N(), y%b.N()
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			if err := ref.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		checkBuildMatchesReference(t, b, ref)
	})
}
