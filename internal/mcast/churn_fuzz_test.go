package mcast

import (
	"sync"
	"testing"

	"mtreescale/internal/graph"
)

// fuzzChurnGraphs are the fixed topologies the churn fuzzer replays event
// streams on: a random sparse graph, a path (deep grafts), and a hub-heavy
// star-with-rim (bounded-variant repairs fire constantly).
var fuzzChurnGraphs = struct {
	once sync.Once
	gs   []*graph.Graph
}{}

func fuzzGraphs() []*graph.Graph {
	fuzzChurnGraphs.once.Do(func() {
		star := graph.NewBuilder(40)
		for v := 1; v < 40; v++ {
			_ = star.AddEdge(0, v)
		}
		for v := 1; v < 40; v++ {
			w := v + 1
			if w == 40 {
				w = 1
			}
			_ = star.AddEdge(v, w)
		}
		path := graph.NewBuilder(32)
		for i := 0; i+1 < 32; i++ {
			_ = path.AddEdge(i, i+1)
		}
		fuzzChurnGraphs.gs = []*graph.Graph{
			randGraph(101, 64, 90),
			path.Build(),
			star.Build(),
		}
	})
	return fuzzChurnGraphs.gs
}

// FuzzChurnEquivalence feeds an arbitrary byte string as a churn event
// stream — joins and leaves of arbitrary sites, naturally including
// duplicate joins, leaves of absent receivers, and out-of-range ids — and
// asserts after EVERY event that the incremental link count matches a
// from-scratch rebuild: TreeCounter.TreeSize over the live member set for
// the unbounded tree, and the independent naiveBounded replay for the
// capped tree. Byte layout: bit 0 = join/leave, bits 1..7 = site (shifted
// past N to also exercise the out-of-range guards).
func FuzzChurnEquivalence(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x01, 0x03, 0x01, 0x00, 0x02}, uint8(1))
	f.Add([]byte{0xff, 0xfe, 0xff, 0xfe, 0x81, 0x80}, uint8(2))
	f.Add([]byte("join leave join join leave"), uint8(5))
	f.Fuzz(func(t *testing.T, events []byte, pick uint8) {
		if len(events) > 2048 {
			events = events[:2048]
		}
		gs := fuzzGraphs()
		g := gs[int(pick)%len(gs)]
		degCap := 2 + int(pick>>4)%3 // caps 2..4
		spt, err := g.BFS(0)
		if err != nil {
			t.Fatal(err)
		}
		free, err := NewDynTree(g, spt, 0)
		if err != nil {
			t.Fatal(err)
		}
		capped, err := NewDynTree(g, spt, degCap)
		if err != nil {
			t.Fatal(err)
		}
		naive := newNaiveBounded(g, spt, int32(degCap))
		c := NewTreeCounter(g.N())
		member := map[int32]int{}
		var active []int32
		for i, b := range events {
			// Sites run past N so out-of-range joins/leaves are fuzzed too.
			site := int32(b>>1) % int32(g.N()+3)
			if b&1 == 1 {
				free.Join(site)
				capped.Join(site)
				naive.join(site)
				if int(site) < g.N() {
					member[site]++
				}
			} else {
				free.Leave(site)
				capped.Leave(site)
				naive.leave(site)
				if member[site] > 0 {
					member[site]--
				}
			}
			active = active[:0]
			for v, cnt := range member {
				if cnt > 0 {
					active = append(active, v)
				}
			}
			if want := c.TreeSize(spt, active); want != free.Links() {
				t.Fatalf("event %d (byte %#x): incremental links=%d, rebuild=%d", i, b, free.Links(), want)
			}
			if naive.links() != capped.Links() {
				t.Fatalf("event %d (byte %#x, cap %d): incremental bounded links=%d, naive replay=%d",
					i, b, degCap, capped.Links(), naive.links())
			}
		}
		if err := free.SelfCheck(c); err != nil {
			t.Fatal(err)
		}
		if err := capped.SelfCheck(nil); err != nil {
			t.Fatal(err)
		}
	})
}
