package graph

import (
	"strings"
	"testing"
	"testing/quick"

	"mtreescale/internal/rng"
)

// path builds the path graph 0-1-2-...-(n-1).
func path(t testing.TB, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// cycle builds the n-cycle.
func cycle(t testing.TB, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(i, (i+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// complete builds K_n.
func complete(t testing.TB, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := b.AddEdge(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	g := path(t, 5)
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(3)
	for i := 0; i < 10; i++ {
		_ = b.AddEdge(0, 1)
		_ = b.AddEdge(1, 0) // reverse orientation is the same undirected edge
	}
	_ = b.AddEdge(1, 2)
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("duplicates not removed: M=%d", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderSelfLoopDropped(t *testing.T) {
	b := NewBuilder(2)
	_ = b.AddEdge(0, 0)
	_ = b.AddEdge(0, 1)
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("self-loop kept: M=%d", g.M())
	}
}

func TestBuilderOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 2); err == nil {
		t.Fatal("expected range error")
	}
	if err := b.AddEdge(-1, 0); err == nil {
		t.Fatal("expected range error")
	}
}

func TestBuilderGrow(t *testing.T) {
	b := NewBuilder(2)
	b.Grow(5)
	if err := b.AddEdge(0, 4); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.N() != 5 {
		t.Fatalf("N=%d", g.N())
	}
	b.Grow(3) // never shrinks
	if b.N() != 5 {
		t.Fatalf("Grow shrank builder to %d", b.N())
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 || g.AvgDegree() != 0 {
		t.Fatalf("empty graph: N=%d M=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("empty graph counts as connected")
	}
}

func TestHasEdge(t *testing.T) {
	g := path(t, 4)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("edge (1,2) missing")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge (0,2)")
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Fatal("out-of-range HasEdge must be false")
	}
}

func TestEdgesEnumeration(t *testing.T) {
	g := complete(t, 5)
	count := 0
	g.Edges(func(u, v int) {
		if u >= v {
			t.Fatalf("edge callback got u=%d >= v=%d", u, v)
		}
		count++
	})
	if count != 10 {
		t.Fatalf("K5 has 10 edges, got %d", count)
	}
}

// MaxDegree and Neighbors read the same CSR rows as Degree, HasEdge and
// Edges: each row is strictly ascending, has Degree(v) entries, and agrees
// with HasEdge; MaxDegree is the largest row.
func TestMaxDegreeAndNeighbors(t *testing.T) {
	if d := path(t, 4).MaxDegree(); d != 2 {
		t.Fatalf("path MaxDegree = %d, want 2", d)
	}
	if d := complete(t, 5).MaxDegree(); d != 4 {
		t.Fatalf("K5 MaxDegree = %d, want 4", d)
	}
	if d := NewBuilder(0).Build().MaxDegree(); d != 0 {
		t.Fatalf("empty MaxDegree = %d, want 0", d)
	}
	for _, seed := range []int64{1, 7, 42} {
		g := randomGraph(seed, 300, 900)
		maxd := 0
		for v := 0; v < g.N(); v++ {
			ns := g.Neighbors(v)
			if len(ns) != g.Degree(v) {
				t.Fatalf("seed %d: Neighbors(%d) has %d entries, Degree %d", seed, v, len(ns), g.Degree(v))
			}
			for i, w := range ns {
				if i > 0 && ns[i-1] >= w {
					t.Fatalf("seed %d: Neighbors(%d) = %v not strictly ascending", seed, v, ns)
				}
				if !g.HasEdge(v, int(w)) || !g.HasEdge(int(w), v) {
					t.Fatalf("seed %d: Neighbors(%d) lists %d but HasEdge disagrees", seed, v, w)
				}
			}
			maxd = max(maxd, len(ns))
		}
		if g.MaxDegree() != maxd {
			t.Fatalf("seed %d: MaxDegree = %d, want %d", seed, g.MaxDegree(), maxd)
		}
	}
}

func TestAvgDegree(t *testing.T) {
	g := cycle(t, 10)
	if g.AvgDegree() != 2 {
		t.Fatalf("cycle degavg = %v", g.AvgDegree())
	}
	k := complete(t, 4)
	if k.AvgDegree() != 3 {
		t.Fatalf("K4 degavg = %v", k.AvgDegree())
	}
}

func TestWithName(t *testing.T) {
	g := path(t, 3)
	h := g.WithName("p3")
	if h.Name() != "p3" || g.Name() != "" {
		t.Fatalf("names: %q %q", g.Name(), h.Name())
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatal("WithName changed structure")
	}
}

func TestStringContainsCounts(t *testing.T) {
	g := path(t, 3).WithName("p3")
	s := g.String()
	if !strings.Contains(s, "p3") || !strings.Contains(s, "N=3") {
		t.Fatalf("String() = %q", s)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := path(t, 4) // degrees 1,2,2,1
	h := g.DegreeHistogram()
	if len(h) != 3 || h[1] != 2 || h[2] != 2 {
		t.Fatalf("hist = %v", h)
	}
}

// randomGraph builds a connected-ish random graph for property tests.
func randomGraph(seed int64, n, extra int) *Graph {
	r := rng.New(seed)
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(v, r.Intn(v)) // random spanning tree: connected
	}
	for i := 0; i < extra; i++ {
		_ = b.AddEdge(r.Intn(n), r.Intn(n))
	}
	return b.Build()
}

func TestHandshakeLemmaProperty(t *testing.T) {
	// Sum of degrees == 2M for arbitrary random graphs.
	f := func(seed int64, nRaw, extraRaw uint8) bool {
		n := int(nRaw%60) + 2
		g := randomGraph(seed, n, int(extraRaw%100))
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildIdempotentUnderDuplication(t *testing.T) {
	// Adding every edge twice produces the same graph as adding it once.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		r := rng.New(seed)
		b1 := NewBuilder(n)
		b2 := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			_ = b1.AddEdge(u, v)
			_ = b2.AddEdge(u, v)
			_ = b2.AddEdge(v, u)
		}
		g1, g2 := b1.Build(), b2.Build()
		if g1.M() != g2.M() || g1.N() != g2.N() {
			return false
		}
		same := true
		g1.Edges(func(u, v int) {
			if !g2.HasEdge(u, v) {
				same = false
			}
		})
		return same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
