package steiner

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
	"mtreescale/internal/rng"
	"mtreescale/internal/topology"
)

// diffReference runs one terminal set through s (Tree, then TreeSize) and
// referenceTree, and describes the first difference: edges, error text, or
// a TreeSize other than the edge count. It returns "" when they agree.
func diffReference(g *graph.Graph, s *Solver, source int, recv []int32) string {
	want, wantErr := referenceTree(g, source, recv)
	got, err := s.Tree(source, recv)
	if errText(err) != errText(wantErr) {
		return fmt.Sprintf("source %d receivers %v: Tree error %v, reference %v", source, recv, err, wantErr)
	}
	if !slices.Equal(got, want) {
		return fmt.Sprintf("source %d receivers %v: Tree edges %v, reference %v", source, recv, got, want)
	}
	size, err := s.TreeSize(source, recv)
	if errText(err) != errText(wantErr) || size != len(want) {
		return fmt.Sprintf("source %d receivers %v: TreeSize %d (%v), reference %d edges (%v)",
			source, recv, size, err, len(want), wantErr)
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func buildGraph(n int, edges [][2]int) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		_ = b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func pathGraph(n int) *graph.Graph {
	edges := make([][2]int, 0, n)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{v - 1, v})
	}
	return buildGraph(n, edges)
}

// solversFor returns one solver per closure source: per-call batch, an SPT
// cache that keeps every tree, and one with no budget, which evicts each
// tree as soon as its batched read computes it, so every call recomputes.
func solversFor(g *graph.Graph) []*Solver {
	return []*Solver{
		NewSolver(g, nil),
		NewSolver(g, graph.NewSPTCache(1<<20)),
		NewSolver(g, graph.NewSPTCache(0)),
	}
}

func TestSolverMatchesReference(t *testing.T) {
	path := pathGraph(10)
	star := buildGraph(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	cycle4 := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	// Rails 0-1-2-3-4 and 5-6-7-8-9 joined by rungs i-(i+5): every pair of
	// opposite corners has several shortest paths.
	var ladderEdges [][2]int
	for i := 0; i < 5; i++ {
		ladderEdges = append(ladderEdges, [2]int{i, i + 5})
		if i < 4 {
			ladderEdges = append(ladderEdges, [2]int{i, i + 1}, [2]int{i + 5, i + 6})
		}
	}
	ladder := buildGraph(10, ladderEdges)
	twoComponents := buildGraph(4, [][2]int{{0, 1}, {2, 3}})
	big := pathGraph(MaxTerminals + 1)
	everyNode := make([]int32, MaxTerminals)
	for i := range everyNode {
		everyNode[i] = int32(i + 1)
	}

	tests := []struct {
		name    string
		g       *graph.Graph
		source  int
		recv    []int32
		wantErr bool
	}{
		{"path", path, 0, []int32{4, 9}, false},
		{"path from the middle", path, 5, []int32{0, 9, 2}, false},
		{"star Steiner point", star, 1, []int32{2, 3}, false},
		{"4-cycle tie", cycle4, 0, []int32{2}, false},
		{"4-cycle every node", cycle4, 2, []int32{3, 0, 1}, false},
		{"ladder corners", ladder, 0, []int32{9}, false},
		{"ladder", ladder, 0, []int32{4, 9, 7}, false},
		{"duplicate receivers", ladder, 2, []int32{9, 9, 5, 9, 5}, false},
		{"receiver is the source", path, 3, []int32{3, 7, 3}, false},
		{"single terminal", path, 5, nil, false},
		{"source as only receiver", star, 2, []int32{2, 2}, false},
		{"two components", twoComponents, 0, []int32{1, 3}, true},
		{"receiver out of range", path, 0, []int32{4, 10}, true},
		{"negative receiver", path, 0, []int32{-1}, true},
		{"source out of range", path, -1, nil, true},
		{"MaxTerminals+1 terminals", big, 0, everyNode, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			want, wantErr := referenceTree(tt.g, tt.source, tt.recv)
			if (wantErr != nil) != tt.wantErr {
				t.Fatalf("reference error %v, want error: %v", wantErr, tt.wantErr)
			}
			for i, s := range solversFor(tt.g) {
				if d := diffReference(tt.g, s, tt.source, tt.recv); d != "" {
					t.Errorf("solver %d: %s", i, d)
				}
			}
			got, err := Tree(tt.g, tt.source, tt.recv)
			if errText(err) != errText(wantErr) || !slices.Equal(got, want) {
				t.Errorf("package Tree: %v, %v; reference %v, %v", got, err, want, wantErr)
			}
			size, err := TreeSize(tt.g, tt.source, tt.recv)
			if errText(err) != errText(wantErr) || size != len(want) {
				t.Errorf("package TreeSize: %d, %v; reference %d edges, %v", size, err, len(want), wantErr)
			}
		})
	}
}

func TestSolverRandomizedMatchesReference(t *testing.T) {
	var graphs []*graph.Graph
	for seed := int64(1); seed <= 2; seed++ {
		ts, err := topology.TransitStubSized(200, 3.6, seed)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, randGraph(seed, 150, 200), ts)
	}
	for gi, flat := range graphs {
		compressed, err := flat.Compress()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*graph.Graph{flat, compressed} {
			// A 20 kB budget holds about eight trees of these graphs, so the
			// cache evicts within most calls' batched reads, and the trees a
			// call gets back must match all the same.
			evicting := graph.NewSPTCache(20 << 10)
			solvers := []*Solver{NewSolver(g, nil), NewSolver(g, graph.NewSPTCache(0)), NewSolver(g, evicting)}
			r := rng.New(int64(100 + gi))
			for call := 0; call < 40; call++ {
				source := r.Intn(g.N())
				recv := make([]int32, 1+r.Intn(40))
				for i := range recv {
					recv[i] = int32(r.Intn(g.N()))
				}
				for si, s := range solvers {
					if d := diffReference(g, s, source, recv); d != "" {
						t.Fatalf("graph %d (compressed %v) solver %d: %s", gi, g.Compressed(), si, d)
					}
				}
			}
			if st := evicting.Stats(); st.Evictions == 0 {
				t.Fatalf("20 kB cache never evicted during the run: %+v", st)
			}
		}
	}
}

// TestSolverEpochWrap runs calls across the epoch wrap on a solver whose
// first calls left low stamps on most nodes. Were the wrap not to clear
// them, a post-wrap call reusing one of those epochs would take stale
// stamps for its own: a non-terminal read as a terminal, or a node read as
// already on the union.
func TestSolverEpochWrap(t *testing.T) {
	g := randGraph(21, 120, 160)
	s := NewSolver(g, nil)
	r := rng.New(5)
	draw := func(m int) (int, []int32) {
		recv := make([]int32, m)
		for i := range recv {
			recv[i] = int32(r.Intn(g.N()))
		}
		return r.Intn(g.N()), recv
	}
	for i := 0; i < 4; i++ {
		source, recv := draw(60)
		if d := diffReference(g, s, source, recv); d != "" {
			t.Fatalf("before the wrap: %s", d)
		}
	}
	s.epoch = math.MaxUint32 - 3
	for i := 0; i < 10; i++ {
		source, recv := draw(4)
		if d := diffReference(g, s, source, recv); d != "" {
			t.Fatalf("call %d across the wrap (epoch now %d): %s", i, s.epoch, d)
		}
	}
	if s.epoch == 0 || s.epoch > 20 {
		t.Fatalf("epoch %d: the calls did not wrap", s.epoch)
	}
}

// TestSolversShareCache has four goroutines, each with its own Solver, read
// one SPT cache small enough to evict while they race, and checks every
// tree against a serially computed reference.
func TestSolversShareCache(t *testing.T) {
	g, err := topology.TransitStubSized(300, 3.6, 9)
	if err != nil {
		t.Fatal(err)
	}
	type query struct {
		source int
		recv   []int32
		want   []Edge
	}
	r := rng.New(11)
	queries := make([]query, 48)
	for i := range queries {
		q := &queries[i]
		q.source = r.Intn(g.N())
		q.recv = make([]int32, 1+r.Intn(30))
		for j := range q.recv {
			q.recv[j] = int32(r.Intn(g.N()))
		}
		if q.want, err = referenceTree(g, q.source, q.recv); err != nil {
			t.Fatal(err)
		}
	}
	cache := graph.NewSPTCache(64 << 10) // about 17 trees of this graph
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := NewSolver(g, cache)
			for i := range queries {
				q := queries[(i+w*len(queries)/workers)%len(queries)]
				got, err := s.Tree(q.source, q.recv)
				if err != nil || !slices.Equal(got, q.want) {
					t.Errorf("worker %d source %d: %v, %v; reference %v", w, q.source, got, err, q.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// decodeKMBInput reads a graph of at most 64 nodes, a source and receivers
// from fuzz bytes: one byte for the node count, one for the edge count, one
// per edge endpoint, one for the source, and the rest for receivers. Source
// and receivers range over [-1, n], so both range checks are reachable, and
// sparse edge lists leave terminals in different components.
func decodeKMBInput(data []byte) (*graph.Graph, int, []int32) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := next()%64 + 1
	b := graph.NewBuilder(n)
	for e := next(); e > 0 && len(data) >= 2; e-- {
		_ = b.AddEdge(next()%n, next()%n) // in range; self-loops are dropped
	}
	source := next()%(n+2) - 1
	var recv []int32
	for len(data) > 0 {
		recv = append(recv, int32(next()%(n+2)-1))
	}
	return b.Build(), source, recv
}

func FuzzKMBEquivalence(f *testing.F) {
	f.Add([]byte{10, 9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 1, 10, 5, 3})
	f.Add([]byte{5, 4, 0, 1, 0, 2, 0, 3, 0, 4, 2, 3, 4})
	f.Add([]byte{4, 2, 0, 1, 2, 3, 1, 4})
	f.Add([]byte{8, 0, 3, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, source, recv := decodeKMBInput(data)
		for _, s := range []*Solver{NewSolver(g, nil), NewSolver(g, graph.NewSPTCache(2<<10))} {
			if d := diffReference(g, s, source, recv); d != "" {
				t.Fatal(d)
			}
		}
	})
}

var sinkSize int

// BenchmarkSolverClosure times KMB calls at the top grid point of
// perfbench's steiner workload: ts1000 at half scale (500 nodes) and 250
// distinct receivers per call, with every terminal's tree already in the
// cache. What it measures is the closure read, Prim's pass, and the union,
// spanning tree and prune.
func BenchmarkSolverClosure(b *testing.B) {
	g, err := topology.GenerateCached("ts1000", 0, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	type call struct {
		source int
		recv   []int32
	}
	calls := make([]call, 16)
	r := rng.New(1)
	for i := range calls {
		source := r.Intn(g.N())
		smp, err := mcast.NewSampler(g.N(), source, rng.New(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		recv, err := smp.Distinct(250, nil)
		if err != nil {
			b.Fatal(err)
		}
		calls[i] = call{source, recv}
	}
	s := NewSolver(g, graph.NewSPTCache(graph.DefaultSPTCacheBytes))
	for _, c := range calls {
		if _, err := s.TreeSize(c.source, c.recv); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := calls[i%len(calls)]
		if sinkSize, err = s.TreeSize(c.source, c.recv); err != nil {
			b.Fatal(err)
		}
	}
}
