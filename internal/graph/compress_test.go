package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"mtreescale/internal/rng"
)

// --- codec ---

func TestAdjCodecRoundTrip(t *testing.T) {
	cases := []struct {
		v     int32
		neigh []int32
	}{
		{0, nil},
		{5, []int32{6}},
		{5, []int32{0}},
		{0, []int32{1, 2, 3, 4, 5}},
		{100, []int32{0, 50, 99, 101, 150, 1 << 30}},
		{1 << 30, []int32{0, 1<<31 - 1}},
	}
	for _, c := range cases {
		enc := appendAdj(nil, c.v, c.neigh)
		dec := decodeAdjInto(enc, c.v, len(c.neigh), make([]int32, len(c.neigh)))
		if len(c.neigh) == 0 {
			if len(enc) != 0 || len(dec) != 0 {
				t.Fatalf("empty list: enc=%v dec=%v", enc, dec)
			}
			continue
		}
		if !slices.Equal(dec, c.neigh) {
			t.Fatalf("v=%d neigh=%v decoded %v", c.v, c.neigh, dec)
		}
		for _, target := range c.neigh {
			if !scanAdjFor(enc, c.v, len(c.neigh), target) {
				t.Fatalf("scanAdjFor missed %d in %v", target, c.neigh)
			}
		}
		if scanAdjFor(enc, c.v, len(c.neigh), c.v) != slices.Contains(c.neigh, c.v) {
			t.Fatalf("scanAdjFor(v) wrong for %v", c.neigh)
		}
	}
}

func TestAdjCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, vRaw uint32, degRaw uint8) bool {
		r := rng.New(seed)
		v := int32(vRaw % 1000000)
		deg := int(degRaw % 64)
		set := map[int32]bool{}
		for len(set) < deg {
			w := int32(r.Intn(1000000))
			if w != v {
				set[w] = true
			}
		}
		neigh := make([]int32, 0, deg)
		for w := range set {
			neigh = append(neigh, w)
		}
		slices.Sort(neigh)
		enc := appendAdj(nil, v, neigh)
		dec := decodeAdjInto(enc, v, len(neigh), make([]int32, len(neigh)))
		return slices.Equal(dec, neigh)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzAdjCodec derives a strictly ascending neighbor list from arbitrary
// fuzz bytes, round-trips it through the varint delta codec, and checks the
// streaming membership scan against the decoded list.
func FuzzAdjCodec(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{1, 2, 3, 250, 0, 0, 9})
	f.Add(int64(-7), []byte{255, 255, 255, 255, 128, 64, 32, 16, 8})
	f.Fuzz(func(t *testing.T, vSeed int64, gaps []byte) {
		v := int32(uint64(vSeed) % (1 << 28))
		neigh := make([]int32, 0, len(gaps))
		cur := int64(0)
		for _, b := range gaps {
			cur += int64(b)<<3 + 1 // gaps >= 1: strictly ascending
			if cur >= 1<<31 {
				break
			}
			neigh = append(neigh, int32(cur))
		}
		enc := appendAdj(nil, v, neigh)
		dec := decodeAdjInto(enc, v, len(neigh), make([]int32, len(neigh)))
		if !slices.Equal(dec, neigh) {
			t.Fatalf("round trip: %v -> %v", neigh, dec)
		}
		for i, w := range neigh {
			if !scanAdjFor(enc, v, len(neigh), w) {
				t.Fatalf("scan missed neighbor %d", w)
			}
			if i > 0 && neigh[i]-neigh[i-1] > 1 && scanAdjFor(enc, v, len(neigh), w-1) {
				t.Fatalf("scan found absent %d", w-1)
			}
		}
	})
}

// --- layout equivalence ---

// compressed returns g's compressed form.
func compressed(t *testing.T, g *Graph) *Graph {
	t.Helper()
	cg, err := g.Compress()
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	if !cg.Compressed() || g.Compressed() {
		t.Fatalf("Compressed() = %v on the copy, %v on the source", cg.Compressed(), g.Compressed())
	}
	return cg
}

func TestCompressPreservesGraphView(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g := randomGraph(seed, 300, 900)
		cg := compressed(t, g)
		if cg.N() != g.N() || cg.M() != g.M() {
			t.Fatalf("N/M = %d/%d, want %d/%d", cg.N(), cg.M(), g.N(), g.M())
		}
		if cg.MaxDegree() != g.MaxDegree() {
			t.Fatalf("MaxDegree = %d, want %d", cg.MaxDegree(), g.MaxDegree())
		}
		if err := cg.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		var buf []int32
		for v := 0; v < g.N(); v++ {
			if cg.Degree(v) != g.Degree(v) {
				t.Fatalf("Degree(%d) = %d, want %d", v, cg.Degree(v), g.Degree(v))
			}
			if !slices.Equal(cg.Neighbors(v), g.Neighbors(v)) {
				t.Fatalf("Neighbors(%d) = %v, want %v", v, cg.Neighbors(v), g.Neighbors(v))
			}
			if buf = cg.NeighborsInto(v, buf); !slices.Equal(buf, g.Neighbors(v)) {
				t.Fatalf("NeighborsInto(%d) = %v, want %v", v, buf, g.Neighbors(v))
			}
		}
		// Edge enumeration order is part of the contract (io.Write
		// byte-identity).
		var pe, ce [][2]int
		g.Edges(func(u, v int) { pe = append(pe, [2]int{u, v}) })
		cg.Edges(func(u, v int) { ce = append(ce, [2]int{u, v}) })
		if !slices.Equal(pe, ce) {
			t.Fatal("edge enumeration differs")
		}
		for _, e := range pe[:min(len(pe), 50)] {
			if !cg.HasEdge(e[0], e[1]) || !cg.HasEdge(e[1], e[0]) {
				t.Fatalf("HasEdge(%v) = false", e)
			}
		}
		if cg.HasEdge(-1, 0) || cg.HasEdge(0, g.N()) {
			t.Fatal("out-of-range HasEdge true")
		}
	}
}

func TestCompressIdempotent(t *testing.T) {
	g := randomGraph(3, 50, 80)
	cg := compressed(t, g)
	again, err := cg.Compress()
	if err != nil || again != cg {
		t.Fatalf("re-compress: got (%p, %v), want same graph %p", again, err, cg)
	}
}

func TestCompressMemBytesSmaller(t *testing.T) {
	g := randomGraph(9, 5000, 15000)
	cg := compressed(t, g)
	// The compressed form drops the 4 B/entry adjacency for ~1-2 B/entry
	// plus a 4 B/node offset table it shares with the flat form.
	flatAdj := int64(4 * 2 * g.M())
	compAdj := cg.MemBytes() - int64(4*(g.N()+1)) - int64(4*(g.N()+1)) // minus offsets+coff
	if compAdj <= 0 || compAdj >= flatAdj*3/4 {
		t.Fatalf("compressed adjacency %d B not < 3/4 of flat %d B", compAdj, flatAdj)
	}
	if cg.MemBytes() >= g.MemBytes() {
		t.Fatalf("MemBytes: compressed %d >= flat %d", cg.MemBytes(), g.MemBytes())
	}
}

// checkSPTEqual asserts byte-identical Dist and Parent and a valid Order.
func checkSPTEqual(t *testing.T, label string, want, got *SPT) {
	t.Helper()
	if !slices.Equal(want.Dist, got.Dist) {
		t.Fatalf("%s: Dist differs", label)
	}
	if !slices.Equal(want.Parent, got.Parent) {
		t.Fatalf("%s: Parent differs", label)
	}
	if len(got.Order) != len(want.Order) {
		t.Fatalf("%s: Order len %d, want %d", label, len(got.Order), len(want.Order))
	}
	for i := 1; i < len(got.Order); i++ {
		if got.Dist[got.Order[i]] < got.Dist[got.Order[i-1]] {
			t.Fatalf("%s: Order not nondecreasing in distance", label)
		}
	}
	if len(got.Order) > 0 && int(got.Order[0]) != got.Source {
		t.Fatalf("%s: Order[0] = %d, want source %d", label, got.Order[0], got.Source)
	}
}

func testGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	gs := map[string]*Graph{
		"random":  randomGraph(11, 400, 700),
		"sparse":  randomGraph(12, 500, 100),
		"star":    randomGraph(13, 64, 0),
		"lattice": nil,
	}
	// A lattice-ish graph with long diameter exercises many BFS levels.
	b := NewBuilder(300)
	for v := 0; v < 299; v++ {
		_ = b.AddEdge(v, v+1)
		if v+10 < 300 {
			_ = b.AddEdge(v, v+10)
		}
	}
	gs["lattice"] = b.Build()
	return gs
}

func TestCompressedBFSMatchesFlat(t *testing.T) {
	for name, g := range testGraphs(t) {
		cg := compressed(t, g)
		for src := 0; src < g.N(); src += 17 {
			want, err := g.BFS(src)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cg.BFS(src)
			if err != nil {
				t.Fatal(err)
			}
			checkSPTEqual(t, name, want, got)
			// One kernel serves both layouts, so even the within-level
			// Order agrees.
			if !slices.Equal(want.Order, got.Order) {
				t.Fatalf("%s: Order differs between layouts", name)
			}
		}
	}
}

func TestCompressedBatchMatchesFlat(t *testing.T) {
	for name, g := range testGraphs(t) {
		// >64 sources exercises multiple lane groups, with duplicates.
		sources := make([]int, 0, 100)
		for i := 0; i < 100; i++ {
			sources = append(sources, (i*37)%g.N())
		}
		want, err := g.BatchSPTs(sources)
		if err != nil {
			t.Fatal(err)
		}
		got, err := compressed(t, g).BatchSPTs(sources)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sources {
			if !slices.Equal(want.DistRow(i), got.DistRow(i)) {
				t.Fatalf("%s: lane %d Dist differs", name, i)
			}
			if !slices.Equal(want.ParentRow(i), got.ParentRow(i)) {
				t.Fatalf("%s: lane %d Parent differs", name, i)
			}
		}
	}
}

func TestCompressedBatchMatchesSingleSource(t *testing.T) {
	g := randomGraph(21, 600, 1200)
	cg := compressed(t, g)
	sources := []int{0, 5, 5, 599, 301}
	batch, err := cg.BatchSPTs(sources)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sources {
		want, err := cg.BFS(s)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(want.Dist, batch.DistRow(i)) {
			t.Fatalf("lane %d: Dist differs from single-source", i)
		}
		if !slices.Equal(want.Parent, batch.ParentRow(i)) {
			t.Fatalf("lane %d: Parent differs from single-source", i)
		}
		mat := batch.Materialize(i)
		checkSPTEqual(t, "materialize", want, mat)
	}
}
