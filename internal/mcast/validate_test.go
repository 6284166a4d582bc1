package mcast

import (
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/valid"
)

func validateLineGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// Every malformed curve argument must be rejected with a typed validation
// error before any sampling starts.
func TestCurveArgValidation(t *testing.T) {
	g := validateLineGraph(8)
	ok := Protocol{NSource: 2, NRcvr: 2, Seed: 1}
	cases := []struct {
		name string
		run  func() error
	}{
		{"zero sources", func() error {
			p := ok
			p.NSource = 0
			_, err := MeasureCurve(g, []int{1}, Distinct, p)
			return err
		}},
		{"negative receivers", func() error {
			p := ok
			p.NRcvr = -5
			_, err := MeasureCurve(g, []int{1}, Distinct, p)
			return err
		}},
		{"negative workers", func() error {
			p := ok
			p.Workers = -1
			_, err := MeasureCurve(g, []int{1}, Distinct, p)
			return err
		}},
		{"empty group-size grid", func() error {
			_, err := MeasureCurve(g, nil, Distinct, ok)
			return err
		}},
		{"zero group size", func() error {
			_, err := MeasureCurve(g, []int{2, 0}, Distinct, ok)
			return err
		}},
		{"negative group size", func() error {
			_, err := MeasureCurve(g, []int{-3}, Distinct, ok)
			return err
		}},
		{"receivers exceed population", func() error {
			// N=8 minus the excluded source leaves 7 candidate sites.
			_, err := MeasureCurve(g, []int{8}, Distinct, ok)
			return err
		}},
		{"unknown mode", func() error {
			_, err := MeasureCurve(g, []int{1}, Mode(42), ok)
			return err
		}},
		{"graph too small", func() error {
			_, err := MeasureCurve(validateLineGraph(1), []int{1}, Distinct, ok)
			return err
		}},
		{"removed nested engine", func() error {
			p := ok
			p.Nested = true
			_, err := MeasureCurve(g, []int{1}, Distinct, p)
			return err
		}},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !valid.IsParam(err) {
			t.Errorf("%s: error %v does not wrap valid.ErrParam", c.name, err)
		}
	}

	// m == population is legal in distinct mode, and the full call runs.
	if _, err := MeasureCurve(g, []int{1, 7}, Distinct, ok); err != nil {
		t.Fatalf("legal curve rejected: %v", err)
	}
	// With-replacement mode has no population ceiling.
	if _, err := MeasureCurve(g, []int{20}, WithReplacement, ok); err != nil {
		t.Fatalf("with-replacement n>N rejected: %v", err)
	}
}
