package topology

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"mtreescale/internal/graph"
)

func TestKAryTreeBinary(t *testing.T) {
	tr, err := NewKAryTree(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Graph.N() != 15 || tr.Graph.M() != 14 {
		t.Fatalf("N=%d M=%d", tr.Graph.N(), tr.Graph.M())
	}
	if tr.Leaves != 8 || tr.FirstLeaf != 7 {
		t.Fatalf("leaves=%d first=%d", tr.Leaves, tr.FirstLeaf)
	}
	if err := tr.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.Graph.Connected() {
		t.Fatal("tree must be connected")
	}
}

func TestKAryTreeDepthZero(t *testing.T) {
	tr, err := NewKAryTree(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Graph.N() != 1 || tr.Leaves != 1 || tr.FirstLeaf != 0 {
		t.Fatalf("%+v", tr)
	}
}

func TestKAryTreeUnary(t *testing.T) {
	tr, err := NewKAryTree(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Graph.N() != 6 || tr.Graph.M() != 5 || tr.Leaves != 1 {
		t.Fatalf("unary tree: N=%d M=%d leaves=%d", tr.Graph.N(), tr.Graph.M(), tr.Leaves)
	}
}

func TestKAryTreeErrors(t *testing.T) {
	if _, err := NewKAryTree(0, 3); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := NewKAryTree(2, -1); err == nil {
		t.Fatal("negative depth must error")
	}
	if _, err := NewKAryTree(2, 60); err == nil {
		t.Fatal("absurd depth must error")
	}
}

func TestKAryTreeLevels(t *testing.T) {
	tr, _ := NewKAryTree(2, 3)
	wantLevels := []int{0, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3}
	for v, want := range wantLevels {
		if got := tr.Level(v); got != want {
			t.Fatalf("Level(%d) = %d, want %d", v, got, want)
		}
	}
	if tr.ParentOf(0) != -1 {
		t.Fatal("root has no parent")
	}
	if tr.ParentOf(1) != 0 || tr.ParentOf(2) != 0 {
		t.Fatal("level-1 parents must be root")
	}
	if tr.ParentOf(7) != 3 || tr.ParentOf(14) != 6 {
		t.Fatalf("leaf parents: %d %d", tr.ParentOf(7), tr.ParentOf(14))
	}
}

func TestKAryTreeLeafDistances(t *testing.T) {
	tr, _ := NewKAryTree(4, 3)
	spt, err := tr.Graph.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Leaves; i++ {
		if spt.Dist[tr.Leaf(i)] != int32(tr.Depth) {
			t.Fatalf("leaf %d at distance %d, want %d", i, spt.Dist[tr.Leaf(i)], tr.Depth)
		}
		if !tr.IsLeaf(tr.Leaf(i)) {
			t.Fatalf("Leaf(%d) not IsLeaf", i)
		}
	}
	if tr.IsLeaf(0) {
		t.Fatal("root is not a leaf")
	}
}

func TestKAryTreeCountsProperty(t *testing.T) {
	f := func(kRaw, dRaw uint8) bool {
		k := int(kRaw%4) + 1
		d := int(dRaw % 6)
		tr, err := NewKAryTree(k, d)
		if err != nil {
			return false
		}
		// N = (k^(d+1)-1)/(k-1) for k>1; d+1 for k=1. M = N-1. Leaves = k^d.
		wantLeaves := 1
		for i := 0; i < d; i++ {
			wantLeaves *= k
		}
		return tr.Leaves == wantLeaves &&
			tr.Graph.M() == tr.Graph.N()-1 &&
			tr.Graph.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGNPDeterministic(t *testing.T) {
	a, err := GNP(200, 0.03, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GNP(200, 0.03, 9)
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("same seed, different graphs: %v vs %v", a, b)
	}
	c, _ := GNP(200, 0.03, 10)
	if a.M() == c.M() && a.N() == c.N() {
		// Extremely unlikely for independent draws; treat as suspicious.
		t.Log("warning: different seeds produced identical shape")
	}
}

func TestGNPDensityNearExpectation(t *testing.T) {
	n, p := 500, 0.02
	g, err := GNP(n, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := p * float64(n) * float64(n-1) / 2
	if math.Abs(float64(g.M())-want) > want*0.2 {
		t.Fatalf("M = %d, want ≈ %.0f", g.M(), want)
	}
	if !g.Connected() {
		t.Fatal("giant component must be connected")
	}
}

func TestGNPEdgeCases(t *testing.T) {
	if _, err := GNP(0, 0.5, 1); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := GNP(10, -0.1, 1); err == nil {
		t.Fatal("p<0 must error")
	}
	if _, err := GNP(10, 1.1, 1); err == nil {
		t.Fatal("p>1 must error")
	}
	g, err := GNP(5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 10 {
		t.Fatalf("K5 expected, got M=%d", g.M())
	}
	g0, err := GNP(5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g0.N() != 1 || g0.M() != 0 {
		t.Fatalf("p=0 giant component should be a single node, got %v", g0)
	}
}

func TestPairFromIndex(t *testing.T) {
	n := 6
	idx := int64(0)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			gu, gv := pairFromIndex(idx, n)
			if gu != u || gv != v {
				t.Fatalf("index %d -> (%d,%d), want (%d,%d)", idx, gu, gv, u, v)
			}
			idx++
		}
	}
}

func TestConnectedRandom(t *testing.T) {
	g, err := ConnectedRandom(300, 4.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 300 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.Connected() {
		t.Fatal("must be connected")
	}
	if math.Abs(g.AvgDegree()-4.0) > 0.5 {
		t.Fatalf("degavg = %v, want ≈ 4", g.AvgDegree())
	}
}

func TestConnectedRandomErrors(t *testing.T) {
	if _, err := ConnectedRandom(0, 3, 1); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := ConnectedRandom(10, -1, 1); err == nil {
		t.Fatal("negative degree must error")
	}
}

func TestConnectedRandomDegreeCap(t *testing.T) {
	// Requesting more edges than K_n has must not loop forever or overshoot.
	g, err := ConnectedRandom(10, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() > 45 {
		t.Fatalf("M = %d > C(10,2)", g.M())
	}
}

func TestWaxman(t *testing.T) {
	g, err := Waxman(300, 0.4, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() < 100 {
		t.Fatalf("giant component too small: %d", g.N())
	}
	if !g.Connected() {
		t.Fatal("giant must be connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWaxmanErrors(t *testing.T) {
	if _, err := Waxman(0, 0.5, 0.5, 1); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := Waxman(10, 1.5, 0.5, 1); err == nil {
		t.Fatal("alpha>1 must error")
	}
	if _, err := Waxman(10, 0.5, 0, 1); err == nil {
		t.Fatal("beta=0 must error")
	}
}

func TestTransitStubShape(t *testing.T) {
	p := TransitStubParams{
		TransitDomains:      3,
		TransitNodes:        4,
		StubsPerTransitNode: 2,
		StubNodes:           5,
		TransitEdgeProb:     0.5,
		StubEdgeProb:        0.2,
	}
	if p.TotalNodes() != 12+12*2*5 {
		t.Fatalf("TotalNodes = %d", p.TotalNodes())
	}
	g, err := TransitStub(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != p.TotalNodes() {
		t.Fatalf("N = %d, want %d", g.N(), p.TotalNodes())
	}
	if !g.Connected() {
		t.Fatal("transit-stub must be connected by construction")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTransitStubValidate(t *testing.T) {
	bad := []TransitStubParams{
		{TransitDomains: 0, TransitNodes: 1, StubNodes: 1},
		{TransitDomains: 1, TransitNodes: 1, StubsPerTransitNode: -1, StubNodes: 1},
		{TransitDomains: 1, TransitNodes: 1, StubNodes: 1, TransitEdgeProb: 2},
		{TransitDomains: 1, TransitNodes: 1, StubNodes: 1, ExtraStubStubEdges: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestTransitStubSizedTargets(t *testing.T) {
	for _, c := range []struct {
		n   int
		deg float64
	}{
		{1000, 3.6},
		{1008, 7.5},
	} {
		g, err := TransitStubSized(c.n, c.deg, 3)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(g.N()-c.n)) > float64(c.n)/10 {
			t.Fatalf("n=%d: got %d nodes", c.n, g.N())
		}
		if math.Abs(g.AvgDegree()-c.deg) > c.deg*0.35 {
			t.Fatalf("n=%d: degavg %.2f, want ≈ %.1f", c.n, g.AvgDegree(), c.deg)
		}
		if !g.Connected() {
			t.Fatalf("n=%d: not connected", c.n)
		}
	}
}

func TestTransitStubSizedTooSmall(t *testing.T) {
	if _, err := TransitStubSized(5, 3, 1); err == nil {
		t.Fatal("tiny n must error")
	}
}

func TestTiersShape(t *testing.T) {
	p := TiersParams{
		WANNodes:   10,
		MANs:       3,
		MANNodes:   5,
		LANsPerMAN: 2,
		LANNodes:   4,
	}
	if p.TotalNodes() != 10+15+3*2*5 {
		t.Fatalf("TotalNodes = %d", p.TotalNodes())
	}
	g, err := Tiers(p, 13)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != p.TotalNodes() {
		t.Fatalf("N = %d", g.N())
	}
	if !g.Connected() {
		t.Fatal("TIERS must be connected by construction")
	}
}

func TestTiersValidate(t *testing.T) {
	bad := []TiersParams{
		{WANNodes: 0},
		{WANNodes: 1, MANs: 2, MANNodes: 0},
		{WANNodes: 1, MANs: 1, MANNodes: 1, LANsPerMAN: 2, LANNodes: 0},
		{WANNodes: 1, WANRedundancy: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestTiersSized(t *testing.T) {
	g, err := TiersSized(5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(g.N()-5000)) > 500 {
		t.Fatalf("N = %d, want ≈ 5000", g.N())
	}
	if !g.Connected() {
		t.Fatal("not connected")
	}
	// TIERS is sparse and tree-like.
	if g.AvgDegree() > 3.2 {
		t.Fatalf("degavg = %.2f; TIERS should be sparse", g.AvgDegree())
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g, err := PreferentialAttachment(2000, 2, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() < 1900 {
		t.Fatalf("giant too small: %d", g.N())
	}
	if !g.Connected() {
		t.Fatal("PA giant must be connected")
	}
	// Heavy tail: max degree far above average.
	m, err := graph.ComputeMetrics(context.Background(), g, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if float64(m.MaxDegree) < 5*m.AvgDegree {
		t.Fatalf("no heavy tail: max %d avg %.2f", m.MaxDegree, m.AvgDegree)
	}
}

func TestPreferentialAttachmentErrors(t *testing.T) {
	if _, err := PreferentialAttachment(1, 1, 0, 1); err == nil {
		t.Fatal("n<2 must error")
	}
	if _, err := PreferentialAttachment(10, 0, 0, 1); err == nil {
		t.Fatal("edgesPerNode<1 must error")
	}
	if _, err := PreferentialAttachment(10, 1, -1, 1); err == nil {
		t.Fatal("negative shortcuts must error")
	}
}

func TestARPAShape(t *testing.T) {
	g := ARPA()
	if g.N() != 47 {
		t.Fatalf("N = %d, want 47", g.N())
	}
	if g.M() != 64 {
		t.Fatalf("M = %d, want 64", g.M())
	}
	if math.Abs(g.AvgDegree()-2.72) > 0.05 {
		t.Fatalf("degavg = %.3f, want ≈ 2.72", g.AvgDegree())
	}
	if !g.Connected() {
		t.Fatal("ARPA must be connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deterministic artifact.
	h := ARPA()
	if h.M() != g.M() || h.N() != g.N() {
		t.Fatal("ARPA must be deterministic")
	}
}

func TestMBoneShape(t *testing.T) {
	g, err := MBoneSized(4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(g.N()-4000)) > 600 {
		t.Fatalf("N = %d, want ≈ 4000", g.N())
	}
	if !g.Connected() {
		t.Fatal("not connected")
	}
	if g.Name() != "mbone" {
		t.Fatalf("name = %q", g.Name())
	}
}

func TestMBoneValidate(t *testing.T) {
	bad := []MBoneParams{
		{BackboneNodes: 1, BackboneDegree: 2},
		{BackboneNodes: 5, BackboneDegree: 0.5},
		{BackboneNodes: 5, BackboneDegree: 2, TunnelLength: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := MBoneSized(3, 1); err == nil {
		t.Fatal("tiny mbone must error")
	}
}

func TestRegistryAllStandardTopologies(t *testing.T) {
	for _, name := range StandardNames() {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		// Build at reduced scale to keep the test fast.
		g, err := GenerateSeeded(name, 0, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
		if !g.Connected() {
			t.Fatalf("%s: not connected", name)
		}
		if spec.Name != name {
			t.Fatalf("spec name mismatch: %q vs %q", spec.Name, name)
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown name must error")
	}
	if _, err := Generate("nope"); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestRegistryNamesPartition(t *testing.T) {
	gen, real := GeneratedNames(), RealNames()
	if len(gen)+len(real) != len(StandardNames()) {
		t.Fatal("generated + real must cover standard names")
	}
	seen := map[string]bool{}
	for _, n := range StandardNames() {
		if seen[n] {
			t.Fatalf("duplicate name %q", n)
		}
		seen[n] = true
		if _, err := Lookup(n); err != nil {
			t.Fatalf("standard name %q not in registry", n)
		}
	}
}

func TestRegistryDeterministicDefaults(t *testing.T) {
	a, err := GenerateSeeded("ts1000", 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSeeded("ts1000", 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatal("default seed must be deterministic")
	}
}
