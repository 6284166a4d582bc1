package mcast

import (
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
)

// The engines' pooled scratch keeps the buffers of the largest graph it has
// served: warmed on a 2,000-node graph, every holder serves a 500-node graph
// without allocating.
func TestScratchReuseAllocatesNothing(t *testing.T) {
	type input struct {
		g         *graph.Graph
		spt, lane *graph.SPT // lane: the same tree as a batch lane view, nil Order
	}
	in := func(g *graph.Graph) input {
		spt, err := g.BFS(0)
		if err != nil {
			t.Fatal(err)
		}
		lane := *spt
		lane.Order = nil
		return input{g, spt, &lane}
	}
	big, small := in(randGraph(3, 2000, 1000)), in(randGraph(5, 500, 250))

	r := rng.New(1)
	var (
		smp    Sampler
		recv   = make([]int32, 0, big.g.N())
		rows   rankRows
		pd     []int64
		capped DynTree
		tree   DynTree
		sim    churnSim
	)
	check := func(t *testing.T, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, in input)
	}{
		{"Sampler", func(t *testing.T, in input) {
			check(t, smp.Reset(in.g.N(), 0, r))
			var err error
			recv, err = smp.Distinct(10, recv) // Floyd: marks and draws
			check(t, err)
			recv, err = smp.Distinct(in.g.N()/2, recv) // shuffle buffer
			check(t, err)
			recv, err = smp.WithReplacement(in.g.N(), recv)
			check(t, err)
		}},
		{"rankRows/lane", func(_ *testing.T, in input) { rows.use(in.lane); rows.rank() }},
		{"rankRows/ordered", func(_ *testing.T, in input) { rows.use(in.spt); rows.rank() }},
		{"packTree", func(_ *testing.T, in input) { pd = packTree(in.spt, pd) }},
		{"DynTree/cap3", func(t *testing.T, in input) { check(t, capped.Reset(in.g, in.spt, 3)) }},
		{"churnSim", func(t *testing.T, in input) {
			check(t, tree.Reset(in.g, in.spt, 0))
			sim.initSim(&tree, r, ChurnConfig{TargetMembers: 50}.withDefaults(), in.g.N(), 0)
			for i := 0; i < 1000; i++ {
				sim.step()
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, big)
			if n := testing.AllocsPerRun(10, func() { tc.run(t, small) }); n != 0 {
				t.Fatalf("after a %d-node graph, a %d-node graph allocates %.1f/op", big.g.N(), small.g.N(), n)
			}
		})
	}
}
