package mcast

import (
	"context"
	"math"
	"testing"
	"time"

	"mtreescale/internal/graph"
)

func churnTestProtocol(workers int) Protocol {
	return Protocol{NSource: 6, NRcvr: 1, Seed: 42, Workers: workers}
}

// stripWall zeroes the wall-clock field so deterministic results compare
// with ==.
func stripWall(r *ChurnResult) ChurnResult {
	cp := *r
	cp.EventsPerSec = 0
	return cp
}

func TestMeasureChurnDeterministicAcrossWorkers(t *testing.T) {
	g := randGraph(3, 400, 600)
	cfg := ChurnConfig{TargetMembers: 40}
	base, err := MeasureChurn(g, cfg, churnTestProtocol(1))
	if err != nil {
		t.Fatal(err)
	}
	defer graph.SharedSPTs.Clear()
	for _, p := range []Protocol{
		churnTestProtocol(4),
		{NSource: 6, NRcvr: 1, Seed: 42, Workers: 3, SPTCache: true},
		{NSource: 6, NRcvr: 1, Seed: 42, Workers: 2, SPTCache: true},
	} {
		got, err := MeasureChurn(g, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if stripWall(got) != stripWall(base) {
			t.Fatalf("churn result differs for %+v:\n got %+v\nwant %+v", p, stripWall(got), stripWall(base))
		}
	}
}

func TestMeasureChurnSteadyState(t *testing.T) {
	// Little's law: the process operates at m̄ active sessions regardless
	// of the session distribution; distinct membership sits slightly below
	// m̄ from site collisions. The engine's warmup defaults must land the
	// measured window inside the steady state.
	g := randGraph(9, 500, 800)
	for _, cfg := range []ChurnConfig{
		{TargetMembers: 40},
		{TargetMembers: 40, Session: SessionPareto},
		{TargetMembers: 40, Session: SessionFixed},
	} {
		res, err := MeasureChurn(g, cfg, churnTestProtocol(0))
		if err != nil {
			t.Fatalf("%v: %v", cfg.Session, err)
		}
		if res.MeanMembers < 28 || res.MeanMembers > 52 {
			t.Fatalf("session=%v: steady-state membership %.1f far from target 40", cfg.Session, res.MeanMembers)
		}
		if res.MeanLinks <= res.MeanMembers {
			t.Fatalf("session=%v: mean links %.1f ≤ mean members %.1f — tree smaller than its leaves",
				cfg.Session, res.MeanLinks, res.MeanMembers)
		}
		if res.Joins == 0 || res.Leaves == 0 {
			t.Fatalf("session=%v: measured window saw joins=%d leaves=%d", cfg.Session, res.Joins, res.Leaves)
		}
		if res.Events != res.Joins+res.Leaves {
			t.Fatalf("event accounting: %d != %d + %d", res.Events, res.Joins, res.Leaves)
		}
		if res.EventsPerSec <= 0 {
			t.Fatalf("session=%v: events/sec not measured", cfg.Session)
		}
	}
}

func TestMeasureChurnSelfCheckEveryEvent(t *testing.T) {
	// The engine-level equivalence gate: every variant re-verified against
	// a from-scratch rebuild after every single event.
	g := randGraph(21, 220, 330)
	for _, variant := range []ChurnVariant{ChurnSPT, ChurnShared, ChurnBounded} {
		cfg := ChurnConfig{
			Variant:        variant,
			TargetMembers:  25,
			SelfCheckEvery: 1,
			WarmupEvents:   200,
			Events:         600,
		}
		if _, err := MeasureChurn(g, cfg, churnTestProtocol(2)); err != nil {
			t.Fatalf("variant %v: %v", variant, err)
		}
	}
}

func TestMeasureChurnBoundedDegreePressure(t *testing.T) {
	g := randGraph(33, 400, 600)
	p := churnTestProtocol(0)
	free, err := MeasureChurn(g, ChurnConfig{TargetMembers: 60}, p)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := MeasureChurn(g, ChurnConfig{Variant: ChurnBounded, TargetMembers: 60, DegreeCap: 4}, p)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Forced == 0 && capped.MaxDegree > 4 {
		t.Fatalf("bounded run: max degree %d exceeds cap 4 with no forced grafts", capped.MaxDegree)
	}
	if free.MaxDegree <= 4 {
		t.Skipf("unbounded max degree %d never exceeded the cap; graph too easy", free.MaxDegree)
	}
	if capped.MaxDegree > free.MaxDegree {
		t.Fatalf("cap raised degree pressure: bounded %d > unbounded %d", capped.MaxDegree, free.MaxDegree)
	}
}

func TestMeasureChurnSharedVariant(t *testing.T) {
	g := randGraph(55, 300, 450)
	res, err := MeasureChurn(g, ChurnConfig{Variant: ChurnShared, TargetMembers: 30, Core: CoreCenter}, churnTestProtocol(0))
	if err != nil {
		t.Fatal(err)
	}
	// The source is a permanent member, so the tree never drains below its
	// source→core branch.
	if res.MeanLinks <= 0 {
		t.Fatalf("shared churn mean links = %.2f", res.MeanLinks)
	}
	if res.Variant != ChurnShared {
		t.Fatalf("variant echo = %v", res.Variant)
	}
}

func TestMeasureChurnCancelMidRun(t *testing.T) {
	// The PR 3 contract adapted to events: cancellation between events
	// yields a valid partial stats report with ctx.Err() recorded, plus
	// the ctx error itself.
	g := randGraph(77, 500, 750)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	cfg := ChurnConfig{TargetMembers: 200, WarmupEvents: 1, Events: 50_000_000}
	p := Protocol{NSource: 4, NRcvr: 1, Seed: 7, Workers: 2}
	res, err := MeasureChurnCtx(ctx, g, cfg, p)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled churn returned no partial result")
	}
	if res.Err == "" {
		t.Fatal("partial result did not record ctx.Err()")
	}
	if res.Events > 0 {
		// Whatever was measured must be internally consistent.
		if res.Events != res.Joins+res.Leaves {
			t.Fatalf("partial accounting: %d != %d + %d", res.Events, res.Joins, res.Leaves)
		}
		if res.MeanLinks < 0 || math.IsNaN(res.MeanLinks) {
			t.Fatalf("partial mean links = %v", res.MeanLinks)
		}
	}
}

func TestMeasureChurnCtxPreCancelled(t *testing.T) {
	g := randGraph(78, 100, 150)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MeasureChurnCtx(ctx, g, ChurnConfig{TargetMembers: 10}, churnTestProtocol(2))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Err == "" {
		t.Fatalf("pre-cancelled run: result %+v must still record the error", res)
	}
	if res.Events != 0 || res.Sources != 0 {
		t.Fatalf("pre-cancelled run measured events=%d sources=%d", res.Events, res.Sources)
	}
}

func TestChurnConfigValidate(t *testing.T) {
	bad := []ChurnConfig{
		{},                                     // TargetMembers missing
		{TargetMembers: -3},                    //
		{TargetMembers: 5, MeanSession: -1},    //
		{TargetMembers: 5, Session: 3},         // unknown dist
		{TargetMembers: 5, Variant: 9},         // unknown variant
		{TargetMembers: 5, DegreeCap: 1},       // cap below 2
		{TargetMembers: 5, WarmupEvents: -1},   //
		{TargetMembers: 5, Events: -1},         //
		{TargetMembers: 5, SelfCheckEvery: -1}, //
		{TargetMembers: 5, Session: SessionPareto, ParetoAlpha: 0.9}, // infinite mean
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: %+v accepted", i, cfg)
		}
	}
	good := ChurnConfig{TargetMembers: 5, Session: SessionPareto, ParetoAlpha: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureChurn(randGraph(1, 50, 60), ChurnConfig{}, churnTestProtocol(1)); err == nil {
		t.Fatal("engine accepted invalid config")
	}
}

func TestParseSessionDist(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SessionDist
	}{{"exp", SessionExp}, {"", SessionExp}, {"pareto", SessionPareto}, {"fixed", SessionFixed}} {
		got, err := ParseSessionDist(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSessionDist(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Fatalf("round trip %q → %q", tc.in, got.String())
		}
	}
	if _, err := ParseSessionDist("zipf"); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}
