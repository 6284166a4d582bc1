package mcast

import (
	"slices"
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
)

// naiveBounded is an independently written reference for the bounded-degree
// tree rules: map-backed state, full recounts, no shared code with DynTree.
// The bounded tree's shape is history-dependent, so equivalence is defined
// as "same deterministic rules replayed over the same event history".
type naiveBounded struct {
	g      *graph.Graph
	spt    *graph.SPT
	root   int32
	cap    int32
	member map[int32]int
	parent map[int32]int32
	forced int
}

func newNaiveBounded(g *graph.Graph, spt *graph.SPT, cap int32) *naiveBounded {
	return &naiveBounded{
		g: g, spt: spt, root: int32(spt.Source), cap: cap,
		member: map[int32]int{}, parent: map[int32]int32{},
	}
}

func (nb *naiveBounded) onTree(v int32) bool {
	_, ok := nb.parent[v]
	return ok || v == nb.root
}

func (nb *naiveBounded) deg(v int32) int32 {
	var d int32
	if _, ok := nb.parent[v]; ok {
		d++
	}
	for _, p := range nb.parent {
		if p == v {
			d++
		}
	}
	return d
}

func (nb *naiveBounded) links() int { return len(nb.parent) }

func (nb *naiveBounded) join(r int32) {
	if r < 0 || int(r) >= nb.g.N() || nb.spt.Dist[r] == graph.Unreachable {
		return
	}
	nb.member[r]++
	if nb.member[r] > 1 || nb.onTree(r) {
		return
	}
	a := r
	for !nb.onTree(a) {
		a = nb.spt.Parent[a]
	}
	if nb.cap == 0 || nb.deg(a) < nb.cap {
		nb.graftSPT(r)
		return
	}
	// Deterministic BFS repair: FIFO frontier, ascending neighbors,
	// saturated on-tree nodes are walls.
	prev := map[int32]int32{r: -1}
	queue := []int32{r}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, w := range nb.g.Neighbors(int(u)) {
			if _, seen := prev[w]; seen || w == r {
				continue
			}
			if nb.onTree(w) {
				if nb.deg(w) < nb.cap {
					// Attach the path w→…→r.
					for c := u; ; {
						nb.parent[c] = w
						if c == r {
							return
						}
						w = c
						c = prev[c]
					}
				}
				continue
			}
			prev[w] = u
			queue = append(queue, w)
		}
	}
	nb.forced++
	nb.graftSPT(r)
}

func (nb *naiveBounded) graftSPT(r int32) {
	for v := r; !nb.onTree(v); v = nb.spt.Parent[v] {
		nb.parent[v] = nb.spt.Parent[v]
	}
}

func (nb *naiveBounded) leave(r int32) {
	if nb.member[r] == 0 {
		return
	}
	nb.member[r]--
	if nb.member[r] > 0 {
		return
	}
	v := r
	for v != nb.root && nb.member[v] == 0 {
		hasChild := false
		for _, p := range nb.parent {
			if p == v {
				hasChild = true
				break
			}
		}
		if hasChild {
			return
		}
		p := nb.parent[v]
		delete(nb.parent, v)
		v = p
	}
}

// eventStream deterministically generates nEvents join/leave events
// (including duplicate joins and leaves of absent receivers) over n sites.
func eventStream(seed int64, n, nEvents int) (joins []bool, sites []int32) {
	r := rng.New(seed)
	joins = make([]bool, nEvents)
	sites = make([]int32, nEvents)
	for i := range joins {
		joins[i] = r.Intn(100) < 55 // slight join bias so the tree grows
		sites[i] = int32(r.Intn(n))
	}
	return joins, sites
}

func TestDynTreeMatchesRebuildEveryEvent(t *testing.T) {
	g := randGraph(11, 300, 450)
	spt, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := NewDynTree(g, spt, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewTreeCounter(g.N())
	member := map[int32]int{}
	joins, sites := eventStream(7, g.N(), 4000)
	var active []int32
	for i, isJoin := range joins {
		s := sites[i]
		if isJoin {
			dt.Join(s)
			member[s]++
		} else {
			dt.Leave(s)
			if member[s] > 0 {
				member[s]--
			}
		}
		active = active[:0]
		for v, cnt := range member {
			if cnt > 0 {
				active = append(active, v)
			}
		}
		if want := c.TreeSize(spt, active); want != dt.Links() {
			t.Fatalf("event %d (join=%v site=%d): incremental links=%d, rebuild=%d",
				i, isJoin, s, dt.Links(), want)
		}
		if i%97 == 0 {
			if err := dt.SelfCheck(c); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
		}
	}
	if err := dt.SelfCheck(c); err != nil {
		t.Fatal(err)
	}
}

func TestDynTreeSharedMatchesSharedTreeSize(t *testing.T) {
	g := randGraph(13, 250, 380)
	core, source := 17, 3
	coreSPT, err := g.BFS(core)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := NewDynTree(g, coreSPT, 0)
	if err != nil {
		t.Fatal(err)
	}
	dt.Join(int32(source)) // the source subscribes permanently
	c := NewTreeCounter(g.N())
	member := map[int32]int{}
	joins, sites := eventStream(19, g.N(), 3000)
	var active []int32
	for i, isJoin := range joins {
		s := sites[i]
		if isJoin {
			dt.Join(s)
			member[s]++
		} else if member[s] > 0 {
			dt.Leave(s)
			member[s]--
		}
		active = active[:0]
		for v, cnt := range member {
			if cnt > 0 {
				active = append(active, v)
			}
		}
		if want := c.SharedTreeSize(coreSPT, int32(source), active); want != dt.Links() {
			t.Fatalf("event %d: incremental shared links=%d, SharedTreeSize=%d", i, dt.Links(), want)
		}
	}
}

func TestDynTreeBoundedMatchesNaiveReplay(t *testing.T) {
	for _, cap := range []int{2, 3, 4} {
		g := randGraph(int64(23+cap), 160, 240)
		spt, err := g.BFS(0)
		if err != nil {
			t.Fatal(err)
		}
		dt, err := NewDynTree(g, spt, cap)
		if err != nil {
			t.Fatal(err)
		}
		nb := newNaiveBounded(g, spt, int32(cap))
		joins, sites := eventStream(int64(31*cap), g.N(), 2500)
		for i, isJoin := range joins {
			s := sites[i]
			if isJoin {
				dt.Join(s)
				nb.join(s)
			} else {
				dt.Leave(s)
				nb.leave(s)
			}
			if dt.Links() != nb.links() {
				t.Fatalf("cap=%d event %d (join=%v site=%d): incremental links=%d, naive replay=%d",
					cap, i, isJoin, s, dt.Links(), nb.links())
			}
			if int64(nb.forced) != dt.Forced() {
				t.Fatalf("cap=%d event %d: forced=%d, naive=%d", cap, i, dt.Forced(), nb.forced)
			}
		}
		if err := dt.SelfCheck(nil); err != nil {
			t.Fatalf("cap=%d: %v", cap, err)
		}
		if dt.Forced() == 0 && dt.MaxDegree() > cap {
			t.Fatalf("cap=%d: max degree %d with no forced grafts", cap, dt.MaxDegree())
		}
	}
}

func TestDynTreeBoundedRepairsAroundSaturatedHub(t *testing.T) {
	// Star with a rim cycle: hub 0 joined to every rim node, rim nodes
	// chained in a cycle. With cap 2 the hub saturates after one receiver
	// and later receivers must graft around the rim.
	n := 12
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		if err := b.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v < n; v++ {
		w := v + 1
		if w == n {
			w = 1
		}
		if err := b.AddEdge(v, w); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	spt, err := g.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := NewDynTree(g, spt, 2)
	if err != nil {
		t.Fatal(err)
	}
	dt.Join(5) // hub now has one child: degree 1
	dt.Join(9) // hub reaches degree 2 == cap
	if got := dt.MaxDegree(); got > 2 {
		t.Fatalf("max degree %d after two direct joins, want ≤ 2", got)
	}
	dt.Join(7) // hub saturated: must repair through the rim
	if dt.Forced() != 0 {
		t.Fatalf("forced=%d, want repair to succeed around the rim", dt.Forced())
	}
	if got := dt.MaxDegree(); got > 2 {
		t.Fatalf("max degree %d after repair, want ≤ 2", got)
	}
	if !dt.OnTree(7) {
		t.Fatal("receiver 7 not on tree after repair graft")
	}
	if err := dt.SelfCheck(nil); err != nil {
		t.Fatal(err)
	}
}

func TestDynTreeDuplicateAndAbsent(t *testing.T) {
	g := pathGraph(t, 8)
	spt, _ := g.BFS(0)
	dt, err := NewDynTree(g, spt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := dt.Join(5); got != 5 {
		t.Fatalf("first join grafted %d links, want 5", got)
	}
	if got := dt.Join(5); got != 0 {
		t.Fatalf("duplicate join grafted %d links, want 0", got)
	}
	if got := dt.MemberCount(5); got != 2 {
		t.Fatalf("multiplicity %d, want 2", got)
	}
	if got := dt.Leave(3); got != 0 {
		t.Fatalf("absent leave pruned %d links, want 0", got)
	}
	if got := dt.Join(3); got != 0 {
		t.Fatalf("join of covered relay grafted %d, want 0", got)
	}
	if got := dt.Leave(5); got != 0 {
		t.Fatalf("leave with one member remaining pruned %d, want 0", got)
	}
	if got := dt.Leave(5); got != 2 {
		t.Fatalf("final leave pruned %d links, want 2 (suffix above member 3)", got)
	}
	if got := dt.Leave(3); got != 3 {
		t.Fatalf("last leave pruned %d links, want 3", got)
	}
	if dt.Links() != 0 || dt.Members() != 0 {
		t.Fatalf("links=%d members=%d after full drain, want 0/0", dt.Links(), dt.Members())
	}
	// Out-of-range and unreachable sites are no-ops.
	if got := dt.Join(-1); got != 0 {
		t.Fatalf("negative join = %d", got)
	}
	if got := dt.Join(int32(g.N())); got != 0 {
		t.Fatalf("out-of-range join = %d", got)
	}
}

func TestDynTreeResetReuse(t *testing.T) {
	g1 := randGraph(41, 120, 180)
	g2 := randGraph(43, 260, 300)
	dt := &DynTree{}
	for _, tc := range []struct {
		g    *graph.Graph
		root int
	}{{g1, 0}, {g2, 10}, {g1, 7}} {
		spt, err := tc.g.BFS(tc.root)
		if err != nil {
			t.Fatal(err)
		}
		if err := dt.Reset(tc.g, spt, 0); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewDynTree(tc.g, spt, 0)
		if err != nil {
			t.Fatal(err)
		}
		joins, sites := eventStream(int64(tc.root)+51, tc.g.N(), 600)
		for i := range joins {
			if joins[i] {
				dt.Join(sites[i])
				fresh.Join(sites[i])
			} else {
				dt.Leave(sites[i])
				fresh.Leave(sites[i])
			}
		}
		if dt.Links() != fresh.Links() || dt.MaxDegree() != fresh.MaxDegree() {
			t.Fatalf("reused tree links=%d maxdeg=%d, fresh links=%d maxdeg=%d",
				dt.Links(), dt.MaxDegree(), fresh.Links(), fresh.MaxDegree())
		}
		if err := dt.SelfCheck(NewTreeCounter(tc.g.N())); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDynTreeDegreeHist(t *testing.T) {
	g := pathGraph(t, 6)
	spt, _ := g.BFS(0)
	dt, _ := NewDynTree(g, spt, 0)
	dt.Join(5) // path tree: root deg 1, interiors deg 2, leaf deg 1
	hist := dt.DegreeHist(nil)
	want := []int64{0, 2, 4}
	if !slices.Equal(hist, want) {
		t.Fatalf("degree hist = %v, want %v", hist, want)
	}
	if dt.MaxDegree() != 2 {
		t.Fatalf("max degree = %d, want 2", dt.MaxDegree())
	}
}

func TestNewDynTreeValidates(t *testing.T) {
	g := pathGraph(t, 4)
	spt, _ := g.BFS(0)
	if _, err := NewDynTree(nil, spt, 0); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewDynTree(g, nil, 0); err == nil {
		t.Fatal("nil SPT accepted")
	}
	if _, err := NewDynTree(g, spt, 1); err == nil {
		t.Fatal("degree cap 1 accepted")
	}
	other := pathGraph(t, 9)
	if _, err := NewDynTree(other, spt, 0); err == nil {
		t.Fatal("mis-sized SPT accepted")
	}
}
