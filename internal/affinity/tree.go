// Package affinity implements §5 of the paper: receiver placements biased
// toward clustering (affinity, β > 0) or spreading out (disaffinity,
// β < 0). Configurations α of n receivers are weighted
//
//	W_α(β) ∝ exp(−β·d̂(α))
//
// where d̂(α) is the mean pairwise shortest-path distance between receivers
// (Equation 32). The package samples this distribution with a Metropolis
// chain and reports the weighted mean delivery-tree size L̄_β(n) plotted in
// Figure 9.
//
// On k-ary trees every move is O(depth): receiver counts c are kept per
// link, which gives both the pairwise-distance sum (Σ_links c·(n−c)) and the
// tree size (#links with c > 0). A move walks the two root paths it touches
// and updates both sums once per walk with integer arithmetic: a +1 at count
// c adds n−2c−1 to the pair sum, a −1 adds 2c−n−1. Nodes are numbered in
// level order, so each ancestor is computed, parent(v) = (v−1)/K, rather
// than loaded from a table. A β = 0 sweep of many receivers skips the walks
// and recounts every link once at its end.
//
// Both chains accept an uphill move (x = −β·Δd̂ < 0) when a uniform u falls
// below e^x. The bounds 1+x ≤ e^x ≤ 1+x+x²/2 decide most draws; math.Exp
// runs only for the u between them, so every decision is the one
// u < math.Exp(x) would make.
package affinity

import (
	"fmt"
	"math"
	"math/bits"

	"mtreescale/internal/valid"
)

// TreeModel is the k-ary tree substrate for the fast chain. Sites are all
// non-root nodes by default, matching §5.4 ("for the simulations ... we
// allow receivers to be at all sites"); NewLeafChain restricts sites to the
// leaves, the setting of the §5.2-5.3 closed forms.
//
// Nodes are numbered in level order, the layout of topology.NewKAryTree, so
// the model keeps no per-node table: the parent of node v > 0 is (v−1)/K.
type TreeModel struct {
	K, Depth int
	// nodes is the node count, root included; the constructor caps it at
	// 2²⁸.
	nodes int
	// firstLeaf is the id of the first depth-D node.
	firstLeaf int
	// recip is ⌊(2⁶⁴−1)/K⌋+1, so that parentOf divides by K with one
	// multiply.
	recip uint64
}

// NewTreeModel builds the complete k-ary tree of the given shape.
func NewTreeModel(k, depth int) (*TreeModel, error) {
	if k < 2 {
		return nil, fmt.Errorf("affinity: tree model needs k >= 2, got %d", k)
	}
	if depth < 1 {
		return nil, fmt.Errorf("affinity: tree model needs depth >= 1, got %d", depth)
	}
	total := 0
	levelSize := 1
	for l := 0; l <= depth; l++ {
		total += levelSize
		if total < 0 || total > 1<<28 {
			return nil, fmt.Errorf("affinity: tree k=%d depth=%d too large", k, depth)
		}
		levelSize *= k
	}
	// The last level holds k^D = levelSize/k nodes: the leaves.
	return &TreeModel{
		K:         k,
		Depth:     depth,
		nodes:     total,
		firstLeaf: total - levelSize/k,
		recip:     math.MaxUint64/uint64(k) + 1,
	}, nil
}

// parentOf returns (v−1)/K for a non-root node v, where recip is the
// model's ⌊(2⁶⁴−1)/K⌋+1: the high word of (v−1)·recip. The quotient is exact
// whenever (v−1)·K < 2⁶⁴, which every id below the 2²⁸ node cap satisfies.
func parentOf(v, recip uint64) uint64 {
	hi, _ := bits.Mul64(v-1, recip)
	return hi
}

// Nodes returns the total node count, root included.
func (m *TreeModel) Nodes() int { return m.nodes }

// Sites returns the number of receiver sites (all non-root nodes).
func (m *TreeModel) Sites() int { return m.nodes - 1 }

// Parent returns the parent of node v (-1 for the root). It panics if v is
// not a node of the model.
func (m *TreeModel) Parent(v int) int {
	if v < 0 || v >= m.nodes {
		panic(fmt.Sprintf("affinity: node %d outside the %d-node tree", v, m.nodes))
	}
	if v == 0 {
		return -1
	}
	return int(parentOf(uint64(v), m.recip))
}

// Leaves returns the number of leaf sites, k^D.
func (m *TreeModel) Leaves() int { return m.nodes - m.firstLeaf }

// Chain is a Metropolis sampler over receiver configurations on a TreeModel.
// It is not safe for concurrent use.
type Chain struct {
	m    *TreeModel
	beta float64
	n    int
	rand randSource
	// Receiver sites are [siteBase, siteBase+siteCount): all non-root nodes
	// for NewChain, the leaves for NewLeafChain.
	siteBase, siteCount int

	// positions[i] is the site (node id, 1..Nodes-1) of receiver i.
	positions []int32
	// cnt[v] is the number of receivers at or below node v, i.e. the
	// receiver count of the link (v, parent(v)). cnt[0] is unused.
	cnt []int32
	// pairSum is Σ_links cnt·(n−cnt) = Σ_{i<j} d(r_i, r_j).
	pairSum int64
	// treeLinks is the number of links with cnt > 0 — the delivery-tree
	// size L for the current configuration.
	treeLinks int

	accepted, proposed int64
}

// randSource is the minimal RNG surface the chain needs.
type randSource interface {
	Intn(n int) int
	Float64() float64
}

// NewChain creates a chain of n receivers at inverse-clustering strength
// beta, with receiver sites at all non-root nodes (§5.4's setting). Initial
// positions are uniform over sites (the β = 0 equilibrium).
func (m *TreeModel) NewChain(n int, beta float64, r randSource) (*Chain, error) {
	return m.newChain(n, beta, r, 1, m.Sites())
}

// NewLeafChain creates a chain whose receiver sites are the k^D leaves —
// the setting of the §5.2-5.3 extreme-affinity closed forms.
func (m *TreeModel) NewLeafChain(n int, beta float64, r randSource) (*Chain, error) {
	return m.newChain(n, beta, r, m.firstLeaf, m.Leaves())
}

func (m *TreeModel) newChain(n int, beta float64, r randSource, siteBase, siteCount int) (*Chain, error) {
	if err := checkGroupSize(n); err != nil {
		return nil, err
	}
	if err := checkBeta(beta); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, valid.Badf("affinity: chain needs a random source")
	}
	c := &Chain{
		m:         m,
		beta:      beta,
		n:         n,
		rand:      r,
		siteBase:  siteBase,
		siteCount: siteCount,
		positions: make([]int32, n),
		cnt:       make([]int32, m.Nodes()),
	}
	for i := range c.positions {
		site := int32(siteBase + r.Intn(siteCount))
		c.positions[i] = site
		c.addPath(site, +1)
	}
	return c, nil
}

// addPath moves the count of every link from site to the root by d (±1)
// and updates pairSum and treeLinks once for the whole walk. A +1 at count c
// changes c·(n−c) by n−2c−1 and a −1 by 2c−n−1, so a path of `links` links
// whose old counts sum to sum adds d·(links·(n−d) − 2·sum). The tree gains
// (loses) one link per count that leaves (reaches) 0, that is per link
// whose smaller count old+low is 0.
func (c *Chain) addPath(site int32, d int32) {
	cnt, recip := c.cnt, c.m.recip
	low := (d - 1) >> 1 // 0 for +1, −1 for −1
	var sum int64
	links, zeros := 0, 0
	for v := uint64(site); v != 0; v = parentOf(v, recip) {
		old := cnt[v]
		cnt[v] = old + d
		sum += int64(old)
		links++
		zeros += int(uint32(old+low-1) >> 31) // 1 iff old+low == 0
	}
	d64 := int64(d)
	c.pairSum += d64 * (int64(links)*(int64(c.n)-d64) - 2*sum)
	c.treeLinks += int(d) * zeros
}

// TreeSize returns the current delivery-tree size L(α).
func (c *Chain) TreeSize() int { return c.treeLinks }

// AvgPairDist returns d̂(α), the mean pairwise receiver distance; 0 when
// n < 2.
func (c *Chain) AvgPairDist() float64 {
	if c.n < 2 {
		return 0
	}
	pairs := int64(c.n) * int64(c.n-1) / 2
	return float64(c.pairSum) / float64(pairs)
}

// Beta returns the chain's affinity parameter.
func (c *Chain) Beta() float64 { return c.beta }

// N returns the number of receivers.
func (c *Chain) N() int { return c.n }

// AcceptanceRate returns the fraction of proposals accepted so far (1 before
// any proposal).
func (c *Chain) AcceptanceRate() float64 {
	if c.proposed == 0 {
		return 1
	}
	return float64(c.accepted) / float64(c.proposed)
}

// Step proposes moving one uniformly chosen receiver to a uniformly chosen
// site and accepts with the Metropolis probability min(1, e^{−β·Δd̂}).
func (c *Chain) Step() {
	c.proposed++
	i := c.rand.Intn(c.n)
	from := c.positions[i]
	to := int32(c.siteBase + c.rand.Intn(c.siteCount))
	if to == from {
		c.accepted++
		return
	}
	// Commit the move, then revert it if rejected.
	oldPair := c.pairSum
	c.addPath(from, -1)
	c.addPath(to, +1)
	if !accepts(c.rand, c.beta, c.pairSum-oldPair, c.n) {
		c.addPath(to, -1)
		c.addPath(from, +1)
		return
	}
	c.positions[i] = to
	c.accepted++
}

// acceptMargin pads both cheap bounds in metropolis. Near 1 it is 2¹³ ulps,
// far above the rounding error of evaluating the bounds (under 2⁻⁵⁰ where
// they can decide) and of math.Exp, so neither bound can contradict
// u < math.Exp(x).
const acceptMargin = 0x1p-40

// accepts is the Metropolis rule min(1, e^{−β·Δd̂}) for a move that changes
// the pair-distance sum of n receivers by delta, so Δd̂ = delta/C(n, 2). A
// move that is downhill or flat for β is accepted without a draw; an uphill
// one draws one uniform from r.
func accepts(r randSource, beta float64, delta int64, n int) bool {
	if delta == 0 || beta == 0 || (delta > 0) != (beta > 0) {
		return true
	}
	pairs := float64(int64(n) * int64(n-1) / 2)
	return metropolis(r.Float64(), -beta*(float64(delta)/pairs))
}

// metropolis reports u < math.Exp(x) for x ≤ 0. There 1+x ≤ e^x ≤ 1+x+x²/2,
// so u below the lower bound accepts and u above the upper bound rejects;
// only u inside the window, of width about x²/2, pays for math.Exp.
func metropolis(u, x float64) bool {
	if u < 1+x-acceptMargin {
		return true
	}
	if u >= 1+x+x*x/2+acceptMargin {
		return false
	}
	return u < math.Exp(x)
}

// Sweep performs n Steps (one proposal per receiver on average). At β = 0
// every move is accepted and no decision reads the link counts, so when n
// Steps would walk more links than the tree has nodes, the sweep makes
// Step's two draws per move, moves only positions, and rebuilds the counts
// once at the end.
func (c *Chain) Sweep() {
	if c.beta != 0 || 2*c.n*c.m.Depth < c.m.nodes {
		for i := 0; i < c.n; i++ {
			c.Step()
		}
		return
	}
	for k := 0; k < c.n; k++ {
		i := c.rand.Intn(c.n)
		c.positions[i] = int32(c.siteBase + c.rand.Intn(c.siteCount))
	}
	c.proposed += int64(c.n)
	c.accepted += int64(c.n)
	c.rebuild()
}

// rebuild recomputes cnt, pairSum and treeLinks from positions in
// O(n + nodes): a count per site, then one pass from the last node up that
// adds each node's count to its parent's (level order puts every child
// after its parent) and sums both totals.
func (c *Chain) rebuild() {
	cnt, recip := c.cnt, c.m.recip
	clear(cnt)
	for _, site := range c.positions {
		cnt[site]++
	}
	n64 := int64(c.n)
	var pairSum int64
	links := 0
	for v := len(cnt) - 1; v > 0; v-- {
		x := cnt[v]
		cnt[parentOf(uint64(v), recip)] += x
		pairSum += int64(x) * (n64 - int64(x))
		links += int(uint32(-x) >> 31) // 1 iff x > 0
	}
	cnt[0] = 0
	c.pairSum, c.treeLinks = pairSum, links
}

// CheckInvariants recomputes link counts, pair sum and tree size from
// scratch and compares them to the incremental state. Tests and long runs
// use it to guard against bookkeeping drift.
func (c *Chain) CheckInvariants() error {
	cnt := make([]int32, c.m.Nodes())
	for _, site := range c.positions {
		for v := uint64(site); v != 0; v = parentOf(v, c.m.recip) {
			cnt[v]++
		}
	}
	var pairSum int64
	links := 0
	n64 := int64(c.n)
	for v := 1; v < len(cnt); v++ {
		if cnt[v] != c.cnt[v] {
			return fmt.Errorf("affinity: cnt[%d] = %d, recomputed %d", v, c.cnt[v], cnt[v])
		}
		if cnt[v] > 0 {
			links++
		}
		pairSum += int64(cnt[v]) * (n64 - int64(cnt[v]))
	}
	if links != c.treeLinks {
		return fmt.Errorf("affinity: treeLinks = %d, recomputed %d", c.treeLinks, links)
	}
	if pairSum != c.pairSum {
		return fmt.Errorf("affinity: pairSum = %d, recomputed %d", c.pairSum, pairSum)
	}
	return nil
}

// Positions returns a copy of the current receiver placement.
func (c *Chain) Positions() []int32 {
	return append([]int32(nil), c.positions...)
}
