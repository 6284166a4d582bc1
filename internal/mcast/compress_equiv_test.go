package mcast

import (
	"testing"

	"mtreescale/internal/graph"
)

// The compressed CSR layout must be a pure storage lever: every engine's
// output over a compressed graph must be byte-identical to the flat-layout
// run — serial or batched, at any worker count. Together with
// batch_equiv_test.go this pins the full knob matrix the CLIs expose.

// compressed returns g in the compressed storage layout.
func compressed(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	cg, err := g.Compress()
	if err != nil {
		t.Fatal(err)
	}
	return cg
}

func TestMeasureCurveCompressedByteIdentical(t *testing.T) {
	g := randGraph(61, 400, 800)
	sizes := []int{1, 3, 10, 40}
	for _, mode := range []Mode{Distinct, WithReplacement} {
		base := Protocol{NSource: 12, NRcvr: 8, Seed: 99}
		graph.SharedSPTs.Clear()
		want, err := MeasureCurve(g, sizes, mode, base)
		if err != nil {
			t.Fatal(err)
		}
		cg := compressed(t, g)
		for _, p := range batchVariants(base) {
			graph.SharedSPTs.Clear()
			got, err := MeasureCurve(cg, sizes, mode, p)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("mode=%v %+v: %+v != flat %+v", mode, p, got[k], want[k])
				}
			}
		}
	}
}

func TestMeasureCurveNestedCompressedByteIdentical(t *testing.T) {
	g := randGraph(67, 300, 600)
	sizes := []int{2, 5, 20, 64}
	base := Protocol{NSource: 10, NRcvr: 6, Seed: 7, SPTCache: true}
	graph.SharedSPTs.Clear()
	want, err := MeasureCurveNested(g, sizes, Distinct, base)
	if err != nil {
		t.Fatal(err)
	}
	cg := compressed(t, g)
	for _, p := range batchVariants(base) {
		graph.SharedSPTs.Clear()
		got, err := MeasureCurveNested(cg, sizes, Distinct, p)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%+v: %+v != flat %+v", p, got[k], want[k])
			}
		}
	}
}

func TestMeasureSharedCurveCompressedByteIdentical(t *testing.T) {
	g := randGraph(71, 350, 700)
	sizes := []int{1, 4, 16}
	for _, strategy := range []CoreStrategy{CoreRandom, CoreSource, CoreCenter} {
		base := Protocol{NSource: 9, NRcvr: 5, Seed: 23}
		want, err := MeasureSharedCurve(g, sizes, strategy, base)
		if err != nil {
			t.Fatal(err)
		}
		cg := compressed(t, g)
		for _, p := range batchVariants(base) {
			got, err := MeasureSharedCurve(cg, sizes, strategy, p)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%v %+v: %+v != flat %+v", strategy, p, got[k], want[k])
				}
			}
		}
	}
}
