package affinity

// Equivalence gates for the chains' move arithmetic. refChain is the tree
// chain as it stood before the integer-delta walk, and refGraphStep is the
// general-graph move before the shared acceptance rule and the row reads
// hoisted out of its loops. Stepped in lockstep from the same seed, the
// production chains must make every decision, and every RNG draw, the same
// way.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mtreescale/internal/rng"
)

// levelOrderParents is the parent table NewTreeModel used to build: level
// order, children of the i-th node of a level at nextStart+i·k+c.
func levelOrderParents(k, depth int) []int32 {
	total, levelSize := 0, 1
	for l := 0; l <= depth; l++ {
		total += levelSize
		levelSize *= k
	}
	parent := make([]int32, total)
	parent[0] = -1
	levelStart, levelSize := 0, 1
	for l := 0; l < depth; l++ {
		nextStart := levelStart + levelSize
		for i := 0; i < levelSize; i++ {
			for c := 0; c < k; c++ {
				parent[nextStart+i*k+c] = int32(levelStart + i)
			}
		}
		levelStart = nextStart
		levelSize *= k
	}
	return parent
}

// levelOrderParent is the same construction evaluated for one node v > 0,
// for ids whose whole table would not fit in a test.
func levelOrderParent(k, v int) int {
	prevStart, start, size := 0, 0, 1
	for v >= start+size {
		prevStart, start, size = start, start+size, size*k
	}
	return prevStart + (v-start)/k
}

// refChain is the pre-integer-delta tree chain: a parent table, two int64
// products and a switch per link, math.Exp for every uphill move, and
// commit-then-revert.
type refChain struct {
	parent              []int32
	beta                float64
	n                   int
	rand                randSource
	siteBase, siteCount int
	positions           []int32
	cnt                 []int32
	pairSum             int64
	treeLinks           int
	accepted, proposed  int64
}

func newRefChain(k, depth, n int, beta float64, r randSource, leaf bool) *refChain {
	parent := levelOrderParents(k, depth)
	leaves := 1
	for i := 0; i < depth; i++ {
		leaves *= k
	}
	c := &refChain{
		parent:    parent,
		beta:      beta,
		n:         n,
		rand:      r,
		siteBase:  1,
		siteCount: len(parent) - 1,
		positions: make([]int32, n),
		cnt:       make([]int32, len(parent)),
	}
	if leaf {
		c.siteBase, c.siteCount = len(parent)-leaves, leaves
	}
	for i := range c.positions {
		site := int32(c.siteBase + r.Intn(c.siteCount))
		c.positions[i] = site
		c.addPath(site, +1)
	}
	return c
}

func (c *refChain) addPath(site int32, delta int32) {
	n64 := int64(c.n)
	for v := site; v > 0; v = c.parent[v] {
		old := int64(c.cnt[v])
		c.pairSum -= old * (n64 - old)
		c.cnt[v] += delta
		now := int64(c.cnt[v])
		c.pairSum += now * (n64 - now)
		switch {
		case old == 0 && now > 0:
			c.treeLinks++
		case old > 0 && now == 0:
			c.treeLinks--
		}
	}
}

func (c *refChain) avgPairDist() float64 {
	if c.n < 2 {
		return 0
	}
	pairs := int64(c.n) * int64(c.n-1) / 2
	return float64(c.pairSum) / float64(pairs)
}

func (c *refChain) step() {
	c.proposed++
	i := c.rand.Intn(c.n)
	from := c.positions[i]
	to := int32(c.siteBase + c.rand.Intn(c.siteCount))
	if to == from {
		c.accepted++
		return
	}
	oldPair := c.pairSum
	c.addPath(from, -1)
	c.addPath(to, +1)
	c.positions[i] = to
	if c.beta == 0 || c.n < 2 {
		c.accepted++
		return
	}
	pairs := float64(int64(c.n) * int64(c.n-1) / 2)
	deltaD := float64(c.pairSum-oldPair) / pairs
	if deltaD <= 0 && c.beta > 0 || deltaD >= 0 && c.beta < 0 {
		c.accepted++
		return
	}
	if c.rand.Float64() < math.Exp(-c.beta*deltaD) {
		c.accepted++
		return
	}
	c.addPath(to, -1)
	c.addPath(from, +1)
	c.positions[i] = from
}

// diffChain compares the production chain with the reference after a step
// and describes the first difference ("" when they agree).
func diffChain(c *Chain, ref *refChain) string {
	for i, p := range ref.positions {
		if c.positions[i] != p {
			return fmt.Sprintf("positions[%d] = %d, reference %d", i, c.positions[i], p)
		}
	}
	switch {
	case c.TreeSize() != ref.treeLinks:
		return fmt.Sprintf("TreeSize %d, reference %d", c.TreeSize(), ref.treeLinks)
	case c.pairSum != ref.pairSum:
		return fmt.Sprintf("pairSum %d, reference %d", c.pairSum, ref.pairSum)
	case c.AvgPairDist() != ref.avgPairDist():
		return fmt.Sprintf("AvgPairDist %v, reference %v", c.AvgPairDist(), ref.avgPairDist())
	case c.accepted != ref.accepted || c.proposed != ref.proposed:
		return fmt.Sprintf("accepted %d of %d, reference %d of %d", c.accepted, c.proposed, ref.accepted, ref.proposed)
	}
	return ""
}

// runChainEquivalence steps both chains for steps moves from the same seed
// and fails on the first divergence.
func runChainEquivalence(t *testing.T, k, depth, n int, beta float64, leaf bool, seed int64, steps int) {
	t.Helper()
	m, err := NewTreeModel(k, depth)
	if err != nil {
		t.Fatal(err)
	}
	newChain := m.NewChain
	if leaf {
		newChain = m.NewLeafChain
	}
	c, err := newChain(n, beta, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefChain(k, depth, n, beta, rng.New(seed), leaf)
	if d := diffChain(c, ref); d != "" {
		t.Fatalf("after placement: %s", d)
	}
	for s := 1; s <= steps; s++ {
		c.Step()
		ref.step()
		if d := diffChain(c, ref); d != "" {
			t.Fatalf("step %d: %s", s, d)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestChainMatchesReference(t *testing.T) {
	shapes := []struct{ k, depth int }{{2, 5}, {3, 3}, {4, 3}}
	for _, sh := range shapes {
		m, err := NewTreeModel(sh.k, sh.depth)
		if err != nil {
			t.Fatal(err)
		}
		for _, leaf := range []bool{false, true} {
			sites := m.Sites()
			if leaf {
				sites = m.Leaves()
			}
			for _, n := range []int{1, 2, 7, sites, 3 * sites} {
				for _, beta := range []float64{-10, -0.1, 0, 1, 10} {
					name := fmt.Sprintf("K=%d/D=%d/leaf=%v/n=%d/beta=%g", sh.k, sh.depth, leaf, n, beta)
					t.Run(name, func(t *testing.T) {
						runChainEquivalence(t, sh.k, sh.depth, n, beta, leaf, int64(n)*31+int64(sh.k), 1500)
					})
				}
			}
		}
	}
}

// TestBetaZeroSweepMatchesSteps checks the β = 0 sweep, which moves only
// positions and rebuilds the counts once, against n Steps of a twin chain
// from the same seed. After every sweep both must agree on positions, tree
// size, pair sum and acceptance counts, and the swept chain's counts must
// match a recount. The n values are 1, the first n at which Sweep rebuilds,
// every site, and three receivers per site.
func TestBetaZeroSweepMatchesSteps(t *testing.T) {
	for _, sh := range []struct{ k, depth int }{{2, 5}, {3, 3}} {
		m, err := NewTreeModel(sh.k, sh.depth)
		if err != nil {
			t.Fatal(err)
		}
		cross := (m.Nodes() + 2*sh.depth - 1) / (2 * sh.depth)
		for _, leaf := range []bool{false, true} {
			newChain, sites := m.NewChain, m.Sites()
			if leaf {
				newChain, sites = m.NewLeafChain, m.Leaves()
			}
			for _, n := range []int{1, cross, sites, 3 * sites} {
				t.Run(fmt.Sprintf("K=%d/D=%d/leaf=%v/n=%d", sh.k, sh.depth, leaf, n), func(t *testing.T) {
					seed := int64(n)*7 + int64(sh.k)
					swept, err := newChain(n, 0, rng.New(seed))
					if err != nil {
						t.Fatal(err)
					}
					stepped, err := newChain(n, 0, rng.New(seed))
					if err != nil {
						t.Fatal(err)
					}
					for sweep := 1; sweep <= 20; sweep++ {
						swept.Sweep()
						for i := 0; i < n; i++ {
							stepped.Step()
						}
						switch {
						case !slices.Equal(swept.positions, stepped.positions):
							t.Fatalf("sweep %d: positions %v, stepped %v", sweep, swept.positions, stepped.positions)
						case swept.TreeSize() != stepped.TreeSize():
							t.Fatalf("sweep %d: TreeSize %d, stepped %d", sweep, swept.TreeSize(), stepped.TreeSize())
						case swept.pairSum != stepped.pairSum:
							t.Fatalf("sweep %d: pairSum %d, stepped %d", sweep, swept.pairSum, stepped.pairSum)
						case swept.accepted != stepped.accepted || swept.proposed != stepped.proposed:
							t.Fatalf("sweep %d: accepted %d of %d, stepped %d of %d",
								sweep, swept.accepted, swept.proposed, stepped.accepted, stepped.proposed)
						}
						if err := swept.CheckInvariants(); err != nil {
							t.Fatalf("sweep %d: %v", sweep, err)
						}
					}
				})
			}
		}
	}
}

// refGraphStep is GraphChain.Step as it was before the shared rule: every
// distance read indexed through the chain, and math.Exp for every uphill
// move.
func refGraphStep(c *GraphChain) {
	c.proposed++
	i := c.rand.Intn(c.n)
	from := c.positions[i]
	to := c.randomSite()
	if to == from {
		c.accepted++
		return
	}
	var newSum int64
	for j := 0; j < c.n; j++ {
		if j != i {
			newSum += int64(c.dist[to][c.positions[j]])
		}
	}
	delta := newSum - c.sumTo[i]
	accept := true
	if c.beta != 0 && c.n >= 2 {
		pairs := float64(int64(c.n) * int64(c.n-1) / 2)
		deltaD := float64(delta) / pairs
		if (c.beta > 0 && deltaD > 0) || (c.beta < 0 && deltaD < 0) {
			accept = c.rand.Float64() < math.Exp(-c.beta*deltaD)
		}
	}
	if !accept {
		return
	}
	c.accepted++
	for j := 0; j < c.n; j++ {
		if j != i {
			c.sumTo[j] += int64(c.dist[to][c.positions[j]]) - int64(c.dist[from][c.positions[j]])
		}
	}
	c.sumTo[i] = newSum
	c.pairSum += delta
	c.positions[i] = to
}

func TestGraphChainMatchesReference(t *testing.T) {
	g := smallGraph(t)
	sites := g.N() - 1
	for _, n := range []int{1, 2, 7, sites, 3 * sites} {
		for _, beta := range []float64{-10, -0.1, 0, 1, 10} {
			t.Run(fmt.Sprintf("n=%d/beta=%g", n, beta), func(t *testing.T) {
				seed := int64(n)*7 + 3
				c, err := NewGraphChain(g, 0, n, beta, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewGraphChain(g, 0, n, beta, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				for s := 1; s <= 600; s++ {
					c.Step()
					refGraphStep(ref)
					for i, p := range ref.positions {
						if c.positions[i] != p {
							t.Fatalf("step %d: positions[%d] = %d, reference %d", s, i, c.positions[i], p)
						}
					}
					if c.pairSum != ref.pairSum || c.AvgPairDist() != ref.AvgPairDist() {
						t.Fatalf("step %d: pairSum %d, reference %d", s, c.pairSum, ref.pairSum)
					}
					if c.accepted != ref.accepted || c.proposed != ref.proposed {
						t.Fatalf("step %d: accepted %d of %d, reference %d of %d",
							s, c.accepted, c.proposed, ref.accepted, ref.proposed)
					}
					if s%50 == 0 && c.TreeSize() != ref.TreeSize() {
						t.Fatalf("step %d: TreeSize %d, reference %d", s, c.TreeSize(), ref.TreeSize())
					}
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// FuzzChainEquivalence steps the production tree chain against refChain on
// fuzzer-chosen shapes, group sizes, strengths and seeds.
func FuzzChainEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint16(7), 1.0, int64(1), uint16(500), false)
	f.Add(uint8(1), uint8(2), uint16(120), -0.1, int64(2), uint16(800), true)
	f.Add(uint8(2), uint8(2), uint16(2), 10.0, int64(3), uint16(300), false)
	f.Add(uint8(0), uint8(6), uint16(1), -10.0, int64(4), uint16(100), true)
	f.Add(uint8(3), uint8(1), uint16(40), 1e-300, int64(5), uint16(400), false)
	f.Add(uint8(0), uint8(3), uint16(9), 1e300, int64(6), uint16(400), false)
	f.Fuzz(func(t *testing.T, k, depth uint8, n uint16, beta float64, seed int64, steps uint16, leaf bool) {
		if math.IsNaN(beta) || math.IsInf(beta, 0) {
			return // both constructors refuse non-finite β
		}
		// K ∈ [2, 5] and D ∈ [1, 7] keep the tree under 100k nodes.
		kk, dd := 2+int(k%4), 1+int(depth%7)
		runChainEquivalence(t, kk, dd, 1+int(n%1000), beta, leaf, seed, int(steps%2000))
	})
}

// metropolisProbes returns the five uniforms k/2⁵³ that Float64 can draw
// nearest t, on both sides of it.
func metropolisProbes(t float64) []float64 {
	const one = 1 << 53
	var out []float64
	if t < 0 || t > 1 || math.IsNaN(t) {
		return out
	}
	k0 := int64(math.Floor(t * one))
	for k := k0 - 2; k <= k0+2; k++ {
		if k >= 0 && k < one {
			out = append(out, float64(k)/one)
		}
	}
	return out
}

func TestMetropolisMatchesExp(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), -50}
	for x := -0x1p-60; x > -50; x *= 1.37 {
		xs = append(xs, x)
	}
	r := rng.New(17)
	for _, x := range xs {
		var us []float64
		for _, edge := range []float64{
			1 + x, 1 + x + x*x/2, math.Exp(x),
			1 + x - acceptMargin, 1 + x + x*x/2 + acceptMargin,
		} {
			us = append(us, metropolisProbes(edge)...)
		}
		for i := 0; i < 200; i++ {
			us = append(us, r.Float64())
		}
		for _, u := range us {
			if got, want := metropolis(u, x), u < math.Exp(x); got != want {
				t.Fatalf("metropolis(u=%v, x=%v) = %v, u < math.Exp(x) is %v", u, x, got, want)
			}
		}
	}
}

func TestParentArithmetic(t *testing.T) {
	for _, k := range []int{2, 3, 5, 16} {
		for depth := 1; ; depth++ {
			m, err := NewTreeModel(k, depth)
			if err != nil {
				t.Fatal(err)
			}
			if m.Nodes() > 1_200_000 {
				break
			}
			want := levelOrderParents(k, depth)
			for v := range want {
				if got := m.Parent(v); got != int(want[v]) {
					t.Fatalf("K=%d D=%d: Parent(%d) = %d, level order says %d", k, depth, v, got, want[v])
				}
			}
		}
	}
	// The top of the 2²⁸-node cap, through the largest model of each K and
	// through the multiply itself for ids past the K = 3 model.
	for _, tc := range []struct{ k, depth int }{{2, 27}, {3, 17}} {
		m, err := NewTreeModel(tc.k, tc.depth)
		if err != nil {
			t.Fatal(err)
		}
		for v := m.Nodes() - 4096; v < m.Nodes(); v++ {
			if got, want := m.Parent(v), levelOrderParent(tc.k, v); got != want {
				t.Fatalf("K=%d D=%d: Parent(%d) = %d, level order says %d", tc.k, tc.depth, v, got, want)
			}
		}
		for v := 1<<28 - 4096; v < 1<<28; v++ {
			if got, want := parentOf(uint64(v), m.recip), levelOrderParent(tc.k, v); got != uint64(want) {
				t.Fatalf("K=%d: parentOf(%d) = %d, level order says %d", tc.k, v, got, want)
			}
		}
	}
}
