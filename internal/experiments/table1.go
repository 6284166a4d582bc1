package experiments

import (
	"context"
	"fmt"
	"strconv"

	"mtreescale/internal/graph"
	"mtreescale/internal/reach"
	"mtreescale/internal/topology"
)

func init() {
	mustRegister(&Runner{
		ID:          "table1",
		Title:       "Table 1: description of networks",
		Description: "Builds the eight standard topologies and reports the structural columns of Table 1, plus the measured reachability growth class (the paper's Figure 7 judgment).",
		Run:         runTable1,
	})
}

func runTable1(ctx context.Context, p Profile) (*Result, error) {
	res := &Result{
		ID:     "table1",
		Title:  "Description of networks used in Figure 1",
		Header: []string{"name", "style", "nodes", "links", "avg degree", "avg path", "diameter", "T(r) growth"},
	}
	for _, name := range topology.StandardNames() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spec, err := topology.Lookup(name)
		if err != nil {
			return nil, err
		}
		g, err := topology.GenerateCached(name, 0, p.Scale)
		if err != nil {
			return nil, err
		}
		m, err := graph.ComputeMetrics(ctx, g, p.NSource, p.Seed)
		if err != nil {
			return nil, err
		}
		r, err := reach.MeasureAveragedCached(ctx, g, p.NSource, p.Seed, p.sptCache())
		if err != nil {
			return nil, err
		}
		growth := "n/a"
		if cls, err := r.Classify(0.5); err == nil {
			growth = cls.String()
		}
		res.Rows = append(res.Rows, []string{
			name,
			spec.Style,
			strconv.Itoa(m.Nodes),
			strconv.Itoa(m.Links),
			fmt.Sprintf("%.2f", m.AvgDegree),
			fmt.Sprintf("%.2f", m.AvgPathLen),
			strconv.Itoa(m.Diameter),
			growth,
		})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: N=%d M=%d deg=%.2f growth=%s", name, m.Nodes, m.Links, m.AvgDegree, growth))
	}
	return res, nil
}
