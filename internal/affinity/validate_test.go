package affinity

import (
	"context"
	"math"
	"testing"

	"mtreescale/internal/rng"
	"mtreescale/internal/valid"
)

// NaN and ±Inf affinity strengths must be refused up front: NaN silently
// freezes the Metropolis chain (every acceptance comparison is false) and
// ±Inf overflows the acceptance ratio, so neither can produce a sample.
func TestChainRejectsNonFiniteBeta(t *testing.T) {
	m, err := NewTreeModel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := m.NewChain(4, beta, rng.New(1)); !valid.IsParam(err) {
			t.Errorf("NewChain(beta=%v) err = %v, want valid.ErrParam", beta, err)
		}
		if _, err := m.NewLeafChain(4, beta, rng.New(1)); !valid.IsParam(err) {
			t.Errorf("NewLeafChain(beta=%v) err = %v, want valid.ErrParam", beta, err)
		}
		if _, err := EstimateTreeSize(context.Background(), m, 4, beta, Params{Seed: 1}); !valid.IsParam(err) {
			t.Errorf("EstimateTreeSize(beta=%v) err = %v, want valid.ErrParam", beta, err)
		}
	}
	// Finite β still works, extreme magnitudes included.
	if _, err := m.NewChain(4, -50, rng.New(1)); err != nil {
		t.Fatalf("finite beta rejected: %v", err)
	}
}

func TestChainRejectsBadGroupSizeAndParams(t *testing.T) {
	m, err := NewTreeModel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.NewChain(0, 0, rng.New(1)); !valid.IsParam(err) {
		t.Errorf("NewChain(n=0) err = %v, want valid.ErrParam", err)
	}
	if _, err := m.NewChain(-7, 0, rng.New(1)); !valid.IsParam(err) {
		t.Errorf("NewChain(n=-7) err = %v, want valid.ErrParam", err)
	}
	cases := []struct {
		name string
		p    Params
	}{
		{"negative burn-in", Params{BurnInSweeps: -1}},
		{"negative samples", Params{SampleSweeps: -5}},
		{"negative thinning", Params{Thin: -2}},
	}
	for _, c := range cases {
		if _, err := EstimateTreeSize(context.Background(), m, 4, 0, c.p); !valid.IsParam(err) {
			t.Errorf("%s: err = %v, want valid.ErrParam", c.name, err)
		}
	}
}
