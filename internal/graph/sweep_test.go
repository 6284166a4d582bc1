package graph

import (
	"fmt"
	"sync"
	"testing"
)

// sweepModes are the three ways SweepSPTs builds a sweep's trees, each
// reached through its arguments: a cache (with room for every tree, and
// with none), the default slab cap, or a cap every sweep exceeds.
var sweepModes = []struct {
	name    string
	cache   func() *SPTCache
	maxSlab int64
}{
	{"cache", func() *SPTCache { return NewSPTCache(1 << 30) }, maxSweepSlabBytes},
	{"cache-no-budget", func() *SPTCache { return NewSPTCache(0) }, maxSweepSlabBytes},
	{"slab", func() *SPTCache { return nil }, maxSweepSlabBytes},
	{"bfs-over-cap", func() *SPTCache { return nil }, 0},
}

// sweepTreeDiff compares one tree of a sweep with serial BFSInto from its
// source, returning "" when Source, Dist and Parent all match.
func sweepTreeDiff(g *Graph, source int, got *SPT) string {
	var want SPT
	if err := g.BFSInto(source, &want); err != nil {
		return err.Error()
	}
	if got.Source != source || len(got.Dist) != g.N() || len(got.Parent) != g.N() {
		return fmt.Sprintf("tree of source %d has source %d and %d/%d nodes, want %d",
			source, got.Source, len(got.Dist), len(got.Parent), g.N())
	}
	for v := range want.Dist {
		if got.Dist[v] != want.Dist[v] || got.Parent[v] != want.Parent[v] {
			return fmt.Sprintf("source %d node %d: dist/parent %d/%d, BFS %d/%d",
				source, v, got.Dist[v], got.Parent[v], want.Dist[v], want.Parent[v])
		}
	}
	return ""
}

// TestSweepSPTsMatchesBFS checks every way a sweep's trees are built
// against serial BFS, tree by tree, and that two goroutines can read one
// sweep at once. The rows run one after another through the pooled
// SweepTrees, so a sweep that reuses an earlier, larger or differently
// built one must not see its trees.
func TestSweepSPTsMatchesBFS(t *testing.T) {
	b := NewBuilder(8) // 0-1-2 and 3-4-5-6, 7 isolated
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	disconnected := b.Build()
	wide := randomGraph(7, 300, 500)
	spill := make([]int, 100)
	for i := range spill {
		spill[i] = (i * 13) % wide.N()
	}
	spill[70] = spill[3] // a duplicate in the second 64-lane group
	tests := []struct {
		name    string
		g       *Graph
		sources []int
		wantErr bool
	}{
		{"path from both ends", path(t, 9), []int{0, 8, 4}, false},
		{"duplicates", randomGraph(3, 90, 150), []int{5, 5, 17, 5}, false},
		{"disconnected", disconnected, []int{0, 3, 7, 2}, false},
		{"100 sources over two MS-BFS groups", wide, spill, false},
		{"one source", cycle(t, 6), []int{2}, false},
		{"no sources", path(t, 3), nil, false},
		{"source past the last node", path(t, 5), []int{0, 5}, true},
		{"negative source", path(t, 5), []int{1, -1}, true},
	}
	for _, tt := range tests {
		for _, mode := range sweepModes {
			t.Run(tt.name+"/"+mode.name, func(t *testing.T) {
				trees, err := sweepSPTs(tt.g, tt.sources, mode.cache(), mode.maxSlab)
				if tt.wantErr {
					if err == nil {
						trees.Release()
						t.Fatalf("sources %v: want an out-of-range error", tt.sources)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				defer trees.Release()
				var wg sync.WaitGroup
				errs := make([]string, 2)
				for r := range errs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var buf SPT
						for i, s := range tt.sources {
							got, err := trees.Tree(i, &buf)
							if err != nil {
								errs[r] = err.Error()
								return
							}
							// Only the fallback builds into the caller's buffer.
							if serial := mode.maxSlab == 0; (got == &buf) != serial {
								errs[r] = fmt.Sprintf("tree %d in the caller's buffer: %v, want %v", i, got == &buf, serial)
								return
							}
							if d := sweepTreeDiff(tt.g, s, got); d != "" {
								errs[r] = fmt.Sprintf("tree %d: %s", i, d)
								return
							}
						}
					}()
				}
				wg.Wait()
				for r, e := range errs {
					if e != "" {
						t.Fatalf("reader %d: %s", r, e)
					}
				}
			})
		}
	}
}

// TestSweepSPTsCacheReads checks the cache mode's accounting: a cold sweep
// misses once per distinct source and leaves every tree cached, and a warm
// one hits once per source, duplicates included.
func TestSweepSPTsCacheReads(t *testing.T) {
	g := randomGraph(5, 120, 200)
	sources := []int{4, 9, 4, 60}
	c := NewSPTCache(1 << 30)
	for _, want := range []SPTCacheStats{
		{Entries: 3, Misses: 3},
		{Entries: 3, Misses: 3, Hits: 4},
	} {
		trees, err := SweepSPTs(g, sources, c)
		if err != nil {
			t.Fatal(err)
		}
		trees.Release()
		got := c.Stats()
		if got.Entries != want.Entries || got.Hits != want.Hits || got.Misses != want.Misses {
			t.Fatalf("stats %+v, want entries/hits/misses %d/%d/%d", got, want.Entries, want.Hits, want.Misses)
		}
	}
}
