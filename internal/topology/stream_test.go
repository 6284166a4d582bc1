package topology

import (
	"math"
	"testing"

	"mtreescale/internal/graph"
)

func TestPairFromIndexClosedForm(t *testing.T) {
	for _, n := range []int{3, 5, 17, 100} {
		k := int64(0)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				gi, gj := pairFromIndex(k, n)
				if gi != i || gj != j {
					t.Fatalf("n=%d k=%d: got (%d,%d), want (%d,%d)", n, k, gi, gj, i, j)
				}
				k++
			}
		}
	}
}

func TestLargeTransitStubParamsExact(t *testing.T) {
	for _, n := range []int{64, 1000, 10000, 100000, 1000000} {
		p, err := LargeTransitStubParams(n, 4.0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if p.TotalNodes() != n {
			t.Fatalf("n=%d: TotalNodes = %d", n, p.TotalNodes())
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	if _, err := LargeTransitStubParams(10, 4.0); err == nil {
		t.Fatal("tiny n accepted")
	}
}

func TestTransitStubStreamed(t *testing.T) {
	const n = 20000
	g, err := TransitStubStreamed(n, 4.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != n {
		t.Fatalf("N = %d, want %d", g.N(), n)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, comps := g.Components(); comps != 1 {
		t.Fatalf("connected by construction, got %d components", comps)
	}
	if d := g.AvgDegree(); math.Abs(d-4.0) > 1.0 {
		t.Fatalf("avg degree %.2f far from target 4.0", d)
	}
	// Deterministic in seed.
	g2, err := TransitStubStreamed(n, 4.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("rebuild differs: M %d vs %d", g2.M(), g.M())
	}
	g3, err := TransitStubStreamed(n, 4.0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if g3.M() == g.M() && graphsEqual(g, g3) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func graphsEqual(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	equal := true
	seen := 0
	a.Edges(func(u, v int) {
		if !b.HasEdge(u, v) {
			equal = false
		}
		seen++
	})
	return equal
}

func TestPreferentialAttachmentStreamed(t *testing.T) {
	const n = 5000
	g, err := PreferentialAttachmentStreamed(n, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != n {
		t.Fatalf("N = %d, want %d", g.N(), n)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, comps := g.Components(); comps != 1 {
		t.Fatalf("growth process is connected, got %d components", comps)
	}
	// Power-law-ish: the max degree should dwarf the average.
	if g.MaxDegree() < 10*int(g.AvgDegree()) {
		t.Fatalf("max degree %d suspiciously small for a PA graph (avg %.1f)", g.MaxDegree(), g.AvgDegree())
	}
	g2, err := PreferentialAttachmentStreamed(n, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Fatal("rebuild with same seed differs")
	}
}

func TestPreferentialAttachmentDeterministic(t *testing.T) {
	// Regression: the pick-set used to drain in map order, feeding the
	// degree-proportional target array nondeterministically.
	a, err := PreferentialAttachment(800, 3, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PreferentialAttachment(800, 3, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(a, b) {
		t.Fatal("same seed produced different graphs")
	}
}
