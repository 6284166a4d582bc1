package affinity

import (
	"context"
	"math"
	"testing"

	"mtreescale/internal/analytic"
	"mtreescale/internal/rng"
	"mtreescale/internal/topology"
)

func TestNewTreeModelShape(t *testing.T) {
	m, err := NewTreeModel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 15 || m.Sites() != 14 {
		t.Fatalf("nodes=%d sites=%d", m.Nodes(), m.Sites())
	}
	if m.Parent(0) != -1 {
		t.Fatal("root parent")
	}
	// Parents must agree with the topology package layout.
	kt, err := topology.NewKAryTree(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < m.Nodes(); v++ {
		if m.Parent(v) != kt.ParentOf(v) {
			t.Fatalf("parent(%d) = %d, topology says %d", v, m.Parent(v), kt.ParentOf(v))
		}
	}
}

func TestNewTreeModelErrors(t *testing.T) {
	if _, err := NewTreeModel(1, 3); err == nil {
		t.Fatal("k=1 must error")
	}
	if _, err := NewTreeModel(2, 0); err == nil {
		t.Fatal("depth=0 must error")
	}
	if _, err := NewTreeModel(3, 30); err == nil {
		t.Fatal("huge tree must error")
	}
}

func TestChainInvariantsUnderSweeps(t *testing.T) {
	m, _ := NewTreeModel(2, 6)
	for _, beta := range []float64{-1, 0, 1, 10} {
		c, err := m.NewChain(30, beta, rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 50; s++ {
			c.Sweep()
			if s%10 == 0 {
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("beta=%v sweep %d: %v", beta, s, err)
				}
			}
		}
	}
}

func TestChainErrors(t *testing.T) {
	m, _ := NewTreeModel(2, 4)
	if _, err := m.NewChain(0, 0, rng.New(1)); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := m.NewChain(3, 0, nil); err == nil {
		t.Fatal("nil RNG must error")
	}
}

func TestChainSingleReceiver(t *testing.T) {
	m, _ := NewTreeModel(2, 5)
	c, err := m.NewChain(1, 5, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.AvgPairDist() != 0 {
		t.Fatal("n=1 pair distance must be 0")
	}
	for i := 0; i < 100; i++ {
		c.Step()
	}
	// With one receiver at depth d the tree has exactly d links.
	pos := c.Positions()[0]
	depth := 0
	for v := pos; v > 0; v = int32(m.Parent(int(v))) {
		depth++
	}
	if c.TreeSize() != depth {
		t.Fatalf("tree size %d, want depth %d", c.TreeSize(), depth)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBetaZeroMatchesAnalytic(t *testing.T) {
	// At β = 0 the sampler is the uniform distribution, so L̄_0(n) must
	// match the exact Equation 21.
	m, _ := NewTreeModel(2, 7)
	tr := analytic.Tree{K: 2, Depth: 7}
	for _, n := range []int{2, 10, 40} {
		est, err := EstimateTreeSize(context.Background(), m, n, 0, Params{BurnInSweeps: 20, SampleSweeps: 400, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		want, err := tr.ThroughoutTreeSize(float64(n))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.MeanTreeSize-want) > 0.05*want+1 {
			t.Fatalf("n=%d: MCMC %.2f vs Eq21 %.2f", n, est.MeanTreeSize, want)
		}
	}
}

func TestAffinityShrinksTree(t *testing.T) {
	// Figure 9's core effect: increasing β (affinity) shrinks L̄_β(n);
	// disaffinity grows it. Orderings must hold for a fixed n.
	m, _ := NewTreeModel(2, 8)
	n := 20
	p := Params{BurnInSweeps: 100, SampleSweeps: 300, Seed: 5}
	var sizes []float64
	for _, beta := range []float64{-10, -1, 0, 1, 10} {
		est, err := EstimateTreeSize(context.Background(), m, n, beta, p)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, est.MeanTreeSize)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] >= sizes[i-1] {
			t.Fatalf("L̄_β not decreasing in β: %v", sizes)
		}
	}
}

func TestAffinityBoundsRespectExtremes(t *testing.T) {
	// MCMC estimates must stay within the β = ±∞ closed-form envelope
	// (computed for leaf receivers; for receivers-anywhere the envelope is
	// even wider, so [D? no] — use loose structural bounds instead):
	// D ≥ ... every tree has at least 1 link and at most Sites links.
	m, _ := NewTreeModel(2, 6)
	for _, beta := range []float64{-20, 0, 20} {
		est, err := EstimateTreeSize(context.Background(), m, 15, beta, Params{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if est.MeanTreeSize < 1 || est.MeanTreeSize > float64(m.Sites()) {
			t.Fatalf("beta=%v: L̄ = %v outside [1, %d]", beta, est.MeanTreeSize, m.Sites())
		}
		if est.AcceptanceRate <= 0 || est.AcceptanceRate > 1 {
			t.Fatalf("acceptance rate %v", est.AcceptanceRate)
		}
	}
}

func TestExtremeAffinityConverges(t *testing.T) {
	// At very large β receivers all collapse near one site; pair distance
	// approaches 0 and the tree approaches a single path (≤ D links well
	// below the uniform size).
	m, _ := NewTreeModel(2, 7)
	est, err := EstimateTreeSize(context.Background(), m, 30, 50, Params{BurnInSweeps: 400, SampleSweeps: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := EstimateTreeSize(context.Background(), m, 30, 0, Params{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if est.MeanTreeSize > 0.6*uniform.MeanTreeSize {
		t.Fatalf("β=50 tree %.1f not much smaller than uniform %.1f", est.MeanTreeSize, uniform.MeanTreeSize)
	}
	if est.MeanPairDist >= uniform.MeanPairDist {
		t.Fatalf("β=50 pair dist %.2f not below uniform %.2f", est.MeanPairDist, uniform.MeanPairDist)
	}
}

func TestEstimateDeterministic(t *testing.T) {
	m, _ := NewTreeModel(2, 6)
	p := Params{BurnInSweeps: 10, SampleSweeps: 50, Seed: 77}
	a, err := EstimateTreeSize(context.Background(), m, 12, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateTreeSize(context.Background(), m, 12, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestEstimateParamValidation(t *testing.T) {
	m, _ := NewTreeModel(2, 4)
	if _, err := EstimateTreeSize(context.Background(), m, 5, 0, Params{BurnInSweeps: -1}); err == nil {
		t.Fatal("negative burn-in must error")
	}
	if _, err := EstimateTreeSize(context.Background(), m, 5, 0, Params{SampleSweeps: -2}); err == nil {
		t.Fatal("negative sweeps must error")
	}
	if _, err := EstimateTreeSize(context.Background(), m, 5, 0, Params{Thin: -1}); err == nil {
		t.Fatal("negative thin must error")
	}
}

func TestSweep9Shape(t *testing.T) {
	m, _ := NewTreeModel(2, 5)
	betas := []float64{-1, 0, 1}
	ns := []int{2, 8}
	out, err := Sweep9(context.Background(), m, betas, ns, Params{BurnInSweeps: 10, SampleSweeps: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || len(out[0]) != 2 {
		t.Fatalf("shape %dx%d", len(out), len(out[0]))
	}
	for bi, row := range out {
		for ni, est := range row {
			if est.Beta != betas[bi] || est.N != ns[ni] {
				t.Fatalf("estimate labeled %+v at [%d][%d]", est, bi, ni)
			}
		}
	}
}

func TestSweep9Cancelled(t *testing.T) {
	m, _ := NewTreeModel(2, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep9(ctx, m, []float64{0, 1}, []int{2, 8}, Params{Seed: 1}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAcceptanceRateOrdering(t *testing.T) {
	// Stronger |β| must reduce acceptance (more proposals rejected).
	m, _ := NewTreeModel(2, 7)
	weak, err := EstimateTreeSize(context.Background(), m, 20, 0.1, Params{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	strong, err := EstimateTreeSize(context.Background(), m, 20, 20, Params{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if strong.AcceptanceRate >= weak.AcceptanceRate {
		t.Fatalf("acceptance at β=20 (%v) not below β=0.1 (%v)", strong.AcceptanceRate, weak.AcceptanceRate)
	}
}
