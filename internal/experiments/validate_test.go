package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"mtreescale/internal/valid"
)

// Every malformed Profile field must be rejected at the boundary with a
// typed validation error — the serving daemon maps valid.ErrParam to HTTP
// 400, so an untyped (or worse, missing) rejection turns a client mistake
// into a 500 or a wedged measurement loop.
func TestProfileValidateRejectsBadFields(t *testing.T) {
	base := Quick()
	cases := []struct {
		name   string
		mutate func(p *Profile)
	}{
		{"zero scale", func(p *Profile) { p.Scale = 0 }},
		{"negative scale", func(p *Profile) { p.Scale = -0.5 }},
		{"scale above 1", func(p *Profile) { p.Scale = 1.5 }},
		{"NaN scale", func(p *Profile) { p.Scale = math.NaN() }},
		{"+Inf scale", func(p *Profile) { p.Scale = math.Inf(1) }},
		{"zero sources", func(p *Profile) { p.NSource = 0 }},
		{"negative sources", func(p *Profile) { p.NSource = -10 }},
		{"zero receivers", func(p *Profile) { p.NRcvr = 0 }},
		{"negative receivers", func(p *Profile) { p.NRcvr = -3 }},
		{"one grid point", func(p *Profile) { p.GridPoints = 1 }},
		{"negative grid points", func(p *Profile) { p.GridPoints = -2 }},
		{"negative burn-in", func(p *Profile) { p.MCMCBurnIn = -1 }},
		{"zero samples", func(p *Profile) { p.MCMCSamples = 0 }},
		{"negative max group size", func(p *Profile) { p.MaxGroupSize = -1 }},
		{"removed nested engine", func(p *Profile) { p.Nested = true }},
		{"removed compressed layout", func(p *Profile) { p.LargeGraph = true }},
	}
	for _, c := range cases {
		p := base
		c.mutate(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !valid.IsParam(err) {
			t.Errorf("%s: error %v does not wrap valid.ErrParam", c.name, err)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("pristine Quick() rejected: %v", err)
	}
}

// The scheduler propagates the typed rejection before running anything.
func TestSchedulerRejectsBadProfileTyped(t *testing.T) {
	p := Quick()
	p.Scale = math.NaN()
	stats, err := RunManyCtx(context.Background(), []string{"fig8"}, p, ScheduleOptions{})
	if stats != nil {
		t.Fatal("bad profile still produced stats")
	}
	if !valid.IsParam(err) {
		t.Fatalf("err = %v, want a valid.ErrParam wrap", err)
	}
}

// TestProfileFieldsMatchBenchGolden pins Profile's shape and the medium
// profile's values to the benchmark's golden file. perfbench refuses to run
// unless fmt's %+v of its profile (Medium with its overrides, Seed zeroed)
// equals golden.json's "profile" string, which names every field in order
// with its value, so deleting, renaming or reordering a Profile field, or
// changing a medium value perfbench does not override, breaks every
// benchmark run; this test makes that show in the ordinary test suite.
func TestProfileFieldsMatchBenchGolden(t *testing.T) {
	raw, err := os.ReadFile("../../perfbench/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Profile string `json:"profile"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range regexp.MustCompile(`(?:^\{| )([A-Za-z]\w*):`).FindAllStringSubmatch(golden.Profile, -1) {
		want = append(want, m[1])
	}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Profile{})) {
		got = append(got, f.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Profile fields %v, golden.json profile %q names %v", got, golden.Profile, want)
	}
	// perfbench's benchProfile and profileKey, which the golden digests
	// were computed under.
	bench := Medium()
	bench.Name = "perfbench"
	bench.Scale = 0.5
	bench.NSource, bench.NRcvr = 40, 40
	bench.MCMCBurnIn, bench.MCMCSamples = 40, 80
	bench.Seed = 0
	if key := fmt.Sprintf("%+v", bench); key != golden.Profile {
		t.Fatalf("perfbench's profile key\n %s\nis not golden.json's\n %s", key, golden.Profile)
	}
}
