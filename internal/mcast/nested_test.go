package mcast

import (
	"math"
	"testing"

	"mtreescale/internal/topology"
)

// TestNestedIndependentEquivalence is the tentpole statistical check: on two
// standard topologies, the nested-growth engine and the paper-faithful
// independent-sets engine must agree per size within 3 pooled standard
// errors.
func TestNestedIndependentEquivalence(t *testing.T) {
	for _, name := range []string{"r100", "ts1000"} {
		g, err := topology.GenerateSeeded(name, 0, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		pop := g.N() - 1
		sizes := LogSpacedSizes(pop, 6)
		p := Protocol{NSource: 25, NRcvr: 25, Seed: 7}
		// Same Protocol for both engines: they measure the same source set,
		// so the difference in means is pure receiver-sampling noise, which
		// the pooled per-sample standard errors bound.
		ind, err := MeasureCurve(g, sizes, Distinct, p)
		if err != nil {
			t.Fatal(err)
		}
		nst, err := MeasureCurveNested(g, sizes, Distinct, p)
		if err != nil {
			t.Fatal(err)
		}
		for k := range sizes {
			a, b := ind[k], nst[k]
			if b.Samples == 0 {
				t.Fatalf("%s m=%d: nested produced no samples", name, sizes[k])
			}
			diff := math.Abs(a.MeanRatio - b.MeanRatio)
			pooled := math.Sqrt(a.RatioStdErr*a.RatioStdErr + b.RatioStdErr*b.RatioStdErr)
			if diff > 3*pooled+1e-12 {
				t.Fatalf("%s m=%d: |%.4f - %.4f| = %.4f exceeds 3×pooled SE %.4f",
					name, sizes[k], a.MeanRatio, b.MeanRatio, diff, 3*pooled)
			}
		}
	}
}

// TestNestedWithReplacementEquivalence covers the L̄(n) protocol: prefixes of
// an i.i.d. draw are i.i.d., so the nested path must agree there too.
func TestNestedWithReplacementEquivalence(t *testing.T) {
	g := randGraph(11, 150, 220)
	sizes := []int{1, 5, 25, 120}
	p := Protocol{NSource: 25, NRcvr: 25, Seed: 3}
	ind, err := MeasureCurve(g, sizes, WithReplacement, p)
	if err != nil {
		t.Fatal(err)
	}
	nst, err := MeasureCurveNested(g, sizes, WithReplacement, p)
	if err != nil {
		t.Fatal(err)
	}
	for k := range sizes {
		a, b := ind[k], nst[k]
		diff := math.Abs(a.MeanRatio - b.MeanRatio)
		pooled := math.Sqrt(a.RatioStdErr*a.RatioStdErr + b.RatioStdErr*b.RatioStdErr)
		if diff > 3*pooled+1e-12 {
			t.Fatalf("n=%d: |%.4f - %.4f| = %.4f exceeds 3×pooled SE %.4f",
				sizes[k], a.MeanRatio, b.MeanRatio, diff, 3*pooled)
		}
	}
}

// TestNestedDeterministicAcrossWorkers asserts bit-exact reproducibility of
// the nested path regardless of scheduling.
func TestNestedDeterministicAcrossWorkers(t *testing.T) {
	g := randGraph(12, 150, 200)
	sizes := []int{1, 7, 40, 100}
	var ref []Point
	for _, workers := range []int{1, 3, 8} {
		pts, err := MeasureCurveNested(g, sizes, Distinct, Protocol{NSource: 12, NRcvr: 9, Seed: 42, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = pts
			continue
		}
		for i := range pts {
			if pts[i] != ref[i] {
				t.Fatalf("workers=%d point %d: %+v vs %+v", workers, i, pts[i], ref[i])
			}
		}
	}
}

// TestProtocolNestedFlagRoutes checks that Protocol.Nested routes
// MeasureCurve through the nested engine.
func TestProtocolNestedFlagRoutes(t *testing.T) {
	g := randGraph(13, 100, 150)
	sizes := []int{1, 10, 50}
	p := Protocol{NSource: 6, NRcvr: 6, Seed: 5, Nested: true}
	via, err := MeasureCurve(g, sizes, Distinct, p)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := MeasureCurveNested(g, sizes, Distinct, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range via {
		if via[i] != direct[i] {
			t.Fatalf("point %d: flag route %+v != direct %+v", i, via[i], direct[i])
		}
	}
}

// TestNestedBasicInvariants mirrors the independent engine's structural
// checks: ratio 1 at m=1, increasing L̄, full sample counts, unsorted and
// duplicate grid sizes handled.
func TestNestedBasicInvariants(t *testing.T) {
	g := randGraph(14, 200, 300)
	sizes := []int{50, 1, 10, 10, 2} // deliberately unsorted with a duplicate
	pts, err := MeasureCurveNested(g, sizes, Distinct, Protocol{NSource: 10, NRcvr: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if pt.Size != sizes[i] {
			t.Fatalf("point %d size %d, want %d", i, pt.Size, sizes[i])
		}
		if pt.Samples != 100 {
			t.Fatalf("point %d samples %d", i, pt.Samples)
		}
		if pt.MeanLinks <= 0 || pt.MeanRatio <= 0 || pt.MeanUnicast <= 0 {
			t.Fatalf("point %d zero stats: %+v", i, pt)
		}
	}
	if math.Abs(pts[1].MeanRatio-1) > 1e-9 {
		t.Fatalf("ratio at m=1 = %v, want 1", pts[1].MeanRatio)
	}
	// Duplicate sizes ride the same growth sequences: identical points.
	if pts[2] != pts[3] {
		t.Fatalf("duplicate sizes diverge: %+v vs %+v", pts[2], pts[3])
	}
	// L̄ must increase along the sorted grid: 1, 2, 10, 50.
	for _, pair := range [][2]int{{1, 4}, {4, 2}, {2, 0}} {
		if pts[pair[1]].MeanLinks <= pts[pair[0]].MeanLinks {
			t.Fatalf("L̄ not increasing from m=%d to m=%d", sizes[pair[0]], sizes[pair[1]])
		}
	}
}

func TestNestedErrors(t *testing.T) {
	g := randGraph(15, 50, 70)
	if _, err := MeasureCurveNested(g, []int{1}, Distinct, Protocol{}); err == nil {
		t.Fatal("zero protocol must error")
	}
	if _, err := MeasureCurveNested(g, []int{0}, Distinct, Protocol{NSource: 1, NRcvr: 1}); err == nil {
		t.Fatal("size 0 must error")
	}
	if _, err := MeasureCurveNested(g, []int{50}, Distinct, Protocol{NSource: 1, NRcvr: 1}); err == nil {
		t.Fatal("m == N must error when source excluded")
	}
	if _, err := MeasureCurveNested(g, []int{1}, Mode(99), Protocol{NSource: 1, NRcvr: 1}); err == nil {
		t.Fatal("unknown mode must error")
	}
}
