package graph

import (
	"context"
	"fmt"

	"mtreescale/internal/rng"
)

// Metrics summarizes a topology the way the paper's Table 1 does, plus a few
// extra diagnostics.
type Metrics struct {
	Name       string
	Nodes      int
	Links      int
	AvgDegree  float64
	MaxDegree  int
	Components int
	// AvgPathLen is the mean shortest-path hop count between the sampled
	// source set and all other nodes (the paper's ū).
	AvgPathLen float64
	// Diameter is the maximum eccentricity observed over the sampled
	// sources (a lower bound on the true diameter for large graphs).
	Diameter int
}

// ComputeMetrics measures g. For graphs with at most exactSourceLimit nodes
// every node is used as a BFS source (exact values); larger graphs sample
// sampleSources distinct sources deterministically from seed, taken in draw
// order. It polls ctx before each source and returns its error, with no
// metrics, once the context is done.
func ComputeMetrics(ctx context.Context, g *Graph, sampleSources int, seed int64) (Metrics, error) {
	const exactSourceLimit = 512
	m := Metrics{
		Name:      g.Name(),
		Nodes:     g.N(),
		Links:     g.M(),
		AvgDegree: g.AvgDegree(),
		MaxDegree: g.MaxDegree(),
	}
	_, m.Components = g.Components()
	if g.N() == 0 {
		return m, nil
	}

	var sources []int
	if g.N() <= exactSourceLimit || sampleSources <= 0 || sampleSources >= g.N() {
		sources = make([]int, g.N())
		for i := range sources {
			sources[i] = i
		}
	} else {
		r := rng.New(seed)
		seen := make([]bool, g.N())
		for len(sources) < sampleSources {
			if v := r.Intn(g.N()); !seen[v] {
				seen[v] = true
				sources = append(sources, v)
			}
		}
	}

	// Every term is an integer, so the float64 sum is exact and does not
	// depend on the order of the sources.
	var distSum float64
	var distN int
	var t SPT
	for _, s := range sources {
		if err := ctx.Err(); err != nil {
			return Metrics{}, err
		}
		if err := g.BFSInto(s, &t); err != nil {
			continue
		}
		for _, v := range t.Order[1:] {
			distSum += float64(t.Dist[v])
			distN++
		}
		if d := t.Depth(); d > m.Diameter {
			m.Diameter = d
		}
	}
	if distN > 0 {
		m.AvgPathLen = distSum / float64(distN)
	}
	return m, nil
}

// String renders a Table 1 style row.
func (m Metrics) String() string {
	return fmt.Sprintf("%-10s nodes=%-6d links=%-6d degavg=%-5.2f pathavg=%-6.2f diam=%d",
		m.Name, m.Nodes, m.Links, m.AvgDegree, m.AvgPathLen, m.Diameter)
}

// DegreeHistogram returns counts[d] = number of nodes with degree d.
func (g *Graph) DegreeHistogram() []int {
	maxD := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > maxD {
			maxD = d
		}
	}
	counts := make([]int, maxD+1)
	for v := 0; v < g.N(); v++ {
		counts[g.Degree(v)]++
	}
	return counts
}
