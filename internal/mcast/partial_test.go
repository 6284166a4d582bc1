package mcast

import (
	"encoding/json"
	"fmt"
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/topology"
)

// splitBlocks cuts [0, n) into the given contiguous blocks expressed as
// boundary offsets (0 and n implied).
func splitBlocks(n int, bounds ...int) [][2]int {
	edges := append([]int{0}, bounds...)
	edges = append(edges, n)
	out := make([][2]int, 0, len(edges)-1)
	for i := 0; i+1 < len(edges); i++ {
		out = append(out, [2]int{edges[i], edges[i+1]})
	}
	return out
}

// TestCurvePartialsByteIdentical is the cluster layer's core contract: a
// curve sweep split into source blocks, measured blockwise, and merged must
// equal the unsharded sweep EXACTLY — every float bit — across engine
// configurations and block shapes, with worker counts deliberately skewed
// between the two runs.
func TestCurvePartialsByteIdentical(t *testing.T) {
	g := randGraph(7, 180, 260)
	sizes := []int{1, 3, 9, 27, 80}
	base := Protocol{NSource: 9, NRcvr: 5, Seed: 99}
	configs := []struct {
		name string
		mut  func(*Protocol)
	}{
		{"plain", func(p *Protocol) {}},
		{"batch", func(p *Protocol) { p.BatchBFS = true }},
		{"sptcache", func(p *Protocol) { p.BatchBFS = true; p.SPTCache = true }},
		{"include-source", func(p *Protocol) { p.IncludeSource = true }},
	}
	splits := map[string][][2]int{
		"halves":     splitBlocks(base.NSource, 4),
		"uneven":     splitBlocks(base.NSource, 1, 7),
		"per-source": splitBlocks(base.NSource, 1, 2, 3, 4, 5, 6, 7, 8),
		"whole":      splitBlocks(base.NSource),
	}
	for _, cfg := range configs {
		for splitName, blocks := range splits {
			t.Run(cfg.name+"/"+splitName, func(t *testing.T) {
				p := base
				cfg.mut(&p)
				p.Workers = 3
				want, err := MeasureCurve(g, sizes, Distinct, p)
				if err != nil {
					t.Fatal(err)
				}
				p.Workers = 1
				parts := make([]*CurvePartial, 0, len(blocks))
				// Merge in reversed block order to prove order independence.
				for i := len(blocks) - 1; i >= 0; i-- {
					b := blocks[i]
					part, err := MeasureCurvePartialCtx(nil, g, sizes, Distinct, p, b[0], b[1])
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, part)
				}
				got, err := ReduceCurvePartials(sizes, parts)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("point %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestCurvePartialsJSONRoundTrip: partials travel between coordinator and
// workers as JSON; encoding/json's shortest-round-trip float64 encoding must
// preserve byte-identity of the merged result.
func TestCurvePartialsJSONRoundTrip(t *testing.T) {
	g := randGraph(8, 150, 220)
	sizes := []int{1, 5, 20, 60}
	p := Protocol{NSource: 6, NRcvr: 4, Seed: 3}
	want, err := MeasureCurve(g, sizes, WithReplacement, p)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*CurvePartial
	for _, b := range splitBlocks(p.NSource, 2, 5) {
		part, err := MeasureCurvePartialCtx(nil, g, sizes, WithReplacement, p, b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(part)
		if err != nil {
			t.Fatal(err)
		}
		decoded := new(CurvePartial)
		if err := json.Unmarshal(raw, decoded); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, decoded)
	}
	got, err := ReduceCurvePartials(sizes, parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs after JSON round trip:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestReduceCurvePartialsValidation(t *testing.T) {
	g := randGraph(9, 120, 160)
	sizes := []int{1, 4, 16}
	p := Protocol{NSource: 4, NRcvr: 3, Seed: 5}
	mk := func(lo, hi int) *CurvePartial {
		part, err := MeasureCurvePartialCtx(nil, g, sizes, Distinct, p, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	cases := []struct {
		name  string
		parts []*CurvePartial
	}{
		{"empty", nil},
		{"gap", []*CurvePartial{mk(0, 1), mk(2, 4)}},
		{"overlap", []*CurvePartial{mk(0, 2), mk(1, 4)}},
		{"incomplete", []*CurvePartial{mk(0, 3)}},
		{"duplicate", []*CurvePartial{mk(0, 2), mk(0, 2), mk(2, 4)}},
		{"nil-part", []*CurvePartial{mk(0, 2), nil}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReduceCurvePartials(sizes, tc.parts); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
	// Shape mismatch: partial measured under a different NSource.
	q := p
	q.NSource = 5
	bad, err := MeasureCurvePartialCtx(nil, g, sizes, Distinct, q, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReduceCurvePartials(sizes, []*CurvePartial{mk(0, 4), bad}); err == nil {
		t.Fatal("want shape-mismatch error, got nil")
	}
	if _, err := MeasureCurvePartialCtx(nil, g, sizes, Distinct, p, 3, 3); err == nil {
		t.Fatal("want empty-block error, got nil")
	}
	if _, err := MeasureCurvePartialCtx(nil, g, sizes, Distinct, p, 2, 9); err == nil {
		t.Fatal("want out-of-range block error, got nil")
	}
}

func TestSharedPartialsByteIdentical(t *testing.T) {
	g := randGraph(11, 160, 240)
	sizes := []int{1, 4, 12, 40}
	for _, strategy := range []CoreStrategy{CoreRandom, CoreSource, CoreCenter} {
		for _, batch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/batch=%v", strategy, batch), func(t *testing.T) {
				p := Protocol{NSource: 7, NRcvr: 4, Seed: 17, Workers: 3, BatchBFS: batch}
				want, err := MeasureSharedCurve(g, sizes, strategy, p)
				if err != nil {
					t.Fatal(err)
				}
				p.Workers = 1
				var parts []*SharedPartial
				for _, b := range splitBlocks(p.NSource, 3, 6) {
					part, err := MeasureSharedCurvePartialCtx(nil, g, sizes, strategy, p, b[0], b[1])
					if err != nil {
						t.Fatal(err)
					}
					raw, err := json.Marshal(part)
					if err != nil {
						t.Fatal(err)
					}
					decoded := new(SharedPartial)
					if err := json.Unmarshal(raw, decoded); err != nil {
						t.Fatal(err)
					}
					parts = append(parts, decoded)
				}
				got, err := ReduceSharedPartials(sizes, parts)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("point %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

func TestEnsemblePartialsByteIdentical(t *testing.T) {
	gen := func(seed int64) (*graph.Graph, error) {
		return topology.TransitStubSized(140, 3.6, seed)
	}
	sizes := []int{1, 5, 25}
	p := Protocol{NSource: 4, NRcvr: 4, Seed: 23, Workers: 2}
	const nNets = 5
	want, err := MeasureEnsemble(gen, nNets, sizes, Distinct, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 1
	var parts []*EnsemblePartial
	for _, b := range splitBlocks(nNets, 2, 3) {
		part, err := MeasureEnsemblePartialCtx(nil, gen, nNets, sizes, Distinct, p, b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(part)
		if err != nil {
			t.Fatal(err)
		}
		decoded := new(EnsemblePartial)
		if err := json.Unmarshal(raw, decoded); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, decoded)
	}
	got, err := ReduceEnsemblePartials(sizes, parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	// Tiling violations reject.
	if _, err := ReduceEnsemblePartials(sizes, parts[:1]); err == nil {
		t.Fatal("want incomplete-tiling error, got nil")
	}
}
