package graph

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// metricsOf is ComputeMetrics under a context that is never cancelled.
func metricsOf(t *testing.T, g *Graph, sampleSources int, seed int64) Metrics {
	t.Helper()
	m, err := ComputeMetrics(context.Background(), g, sampleSources, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// cancelledFromCall is a context whose Err reports context.Canceled from
// its from-th call on, and counts the calls.
type cancelledFromCall struct {
	context.Context
	from, calls int
}

func (c *cancelledFromCall) Err() error {
	if c.calls++; c.calls >= c.from {
		return context.Canceled
	}
	return nil
}

func TestComputeMetricsPath(t *testing.T) {
	g := path(t, 5).WithName("p5")
	m := metricsOf(t, g, 0, 1)
	if m.Nodes != 5 || m.Links != 4 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Components != 1 {
		t.Fatalf("components = %d", m.Components)
	}
	if m.Diameter != 4 {
		t.Fatalf("diameter = %d", m.Diameter)
	}
	if m.MaxDegree != 2 {
		t.Fatalf("max degree = %d", m.MaxDegree)
	}
	// Exact mean pairwise distance of P5: sum over ordered pairs / 20 = 2.
	if m.AvgPathLen != 2 {
		t.Fatalf("avg path len = %v, want 2", m.AvgPathLen)
	}
	if m.Name != "p5" {
		t.Fatalf("name = %q", m.Name)
	}
}

func TestComputeMetricsComplete(t *testing.T) {
	g := complete(t, 6)
	m := metricsOf(t, g, 0, 1)
	if m.AvgPathLen != 1 {
		t.Fatalf("K6 avg path = %v", m.AvgPathLen)
	}
	if m.Diameter != 1 {
		t.Fatalf("K6 diameter = %d", m.Diameter)
	}
	if m.AvgDegree != 5 {
		t.Fatalf("K6 degavg = %v", m.AvgDegree)
	}
}

func TestComputeMetricsSampledClose(t *testing.T) {
	g := randomGraph(10, 2000, 4000)
	exact := metricsOf(t, g, 0, 1)
	sampled := metricsOf(t, g, 100, 1)
	if sampled.Nodes != exact.Nodes || sampled.Links != exact.Links {
		t.Fatal("structural metrics must not depend on sampling")
	}
	rel := (sampled.AvgPathLen - exact.AvgPathLen) / exact.AvgPathLen
	if rel < -0.1 || rel > 0.1 {
		t.Fatalf("sampled path length off by %.1f%% (exact %.3f sampled %.3f)",
			100*rel, exact.AvgPathLen, sampled.AvgPathLen)
	}
}

func TestComputeMetricsDeterministic(t *testing.T) {
	g := randomGraph(4, 1500, 2500)
	a := metricsOf(t, g, 50, 9)
	b := metricsOf(t, g, 50, 9)
	if a != b {
		t.Fatalf("same seed, different metrics: %+v vs %+v", a, b)
	}
}

func TestComputeMetricsEmpty(t *testing.T) {
	g := NewBuilder(0).Build()
	m := metricsOf(t, g, 10, 1)
	if m.Nodes != 0 || m.AvgPathLen != 0 {
		t.Fatalf("empty metrics = %+v", m)
	}
}

// ComputeMetrics polls its context before every source, exact or sampled,
// and stops at the first poll that reports cancellation.
func TestComputeMetricsHonoursCancellation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *Graph
		sources int
	}{
		{"exact", randomGraph(4, 300, 500), 0},
		{"sampled", randomGraph(4, 1500, 2500), 50},
	} {
		for _, from := range []int{1, 2, 7} {
			ctx := &cancelledFromCall{Context: context.Background(), from: from}
			m, err := ComputeMetrics(ctx, tc.g, tc.sources, 9)
			if !errors.Is(err, context.Canceled) || m != (Metrics{}) {
				t.Fatalf("%s, cancelled from poll %d: %+v, %v; want no metrics and context.Canceled", tc.name, from, m, err)
			}
			if ctx.calls != from {
				t.Fatalf("%s: ctx.Err called %d times, want the run to stop at poll %d", tc.name, ctx.calls, from)
			}
		}
	}
}

func TestMetricsString(t *testing.T) {
	m := Metrics{Name: "arpa", Nodes: 47, Links: 64}
	s := m.String()
	if !strings.Contains(s, "arpa") || !strings.Contains(s, "47") {
		t.Fatalf("row = %q", s)
	}
}
