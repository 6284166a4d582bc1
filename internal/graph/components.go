package graph

// Components labels each node with a connected-component id (0-based, in
// order of discovery) and returns the label slice plus the number of
// components.
func (g *Graph) Components() (labels []int32, count int) {
	n := g.N()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if labels[v] != -1 {
			continue
		}
		id := int32(count)
		count++
		labels[v] = id
		queue = append(queue[:0], int32(v))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, w := range g.Neighbors(int(u)) {
				if labels[w] == -1 {
					labels[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	return labels, count
}

// Connected reports whether the graph is a single connected component.
// The empty graph counts as connected.
func (g *Graph) Connected() bool {
	_, c := g.Components()
	return c <= 1
}

// GiantComponent returns the subgraph induced by the largest connected
// component (the first one found on a tie), with nodes renumbered densely,
// plus the mapping from new ids to original ids. Topology generators use
// this to clean disconnected debris, because the paper's experiments pick
// sources and receivers that must be mutually reachable.
//
// It renumbers the CSR rows directly. Every neighbor of a kept node is kept,
// so degrees do not change, and new ids increase with old ones, so each
// mapped row stays strictly ascending.
func (g *Graph) GiantComponent() (*Graph, []int32) {
	labels, count := g.Components()
	if count <= 1 {
		ids := make([]int32, g.N())
		for i := range ids {
			ids[i] = int32(i)
		}
		return g, ids
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for i, s := range sizes {
		if s > sizes[best] {
			best = i
		}
	}
	newID := make([]int32, g.N())
	oldID := make([]int32, 0, sizes[best])
	offsets := make([]int32, sizes[best]+1)
	for v := 0; v < g.N(); v++ {
		if labels[v] == int32(best) {
			newID[v] = int32(len(oldID))
			oldID = append(oldID, int32(v))
			offsets[len(oldID)] = offsets[len(oldID)-1] + int32(g.Degree(v))
		}
	}
	adj := make([]int32, 0, offsets[len(oldID)])
	for _, v := range oldID {
		for _, w := range g.Neighbors(int(v)) {
			adj = append(adj, newID[w])
		}
	}
	return &Graph{offsets: offsets, adj: adj, name: g.name}, oldID
}
