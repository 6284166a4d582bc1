package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestParseEntries(t *testing.T) {
	good := []string{
		"journal.write=short",
		"journal.write=short@0.5",
		"serve.handler=latency:300ms@0.25",
		"serve.handler.status=status:503@0.1#2",
		"shard.payload=bitflip#1",
		"cluster.post=error@0.3+5",
		"serve.response.trunc=trunc:32",
		"a=error;b=panic; c=latency:1ms ",
	}
	for _, spec := range good {
		if _, err := Parse(spec, 1); err != nil {
			t.Errorf("Parse(%q) = %v, want ok", spec, err)
		}
	}
	bad := []string{
		"",
		";;",
		"noequals",
		"=error",
		"x=unknownkind",
		"x=latency",         // missing duration
		"x=latency:-3ms",    // non-positive
		"x=status:200",      // not a fault status
		"x=status:notanint", //
		"x=error@0",         // probability out of range
		"x=error@1.5",       //
		"x=error#0",         // limit must be >= 1
		"x=error+-1",        // negative after
		"x=short:12",        // short takes no argument
		"x=trunc:-1",        //
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

// TestDeterministicSchedule: the fire/skip decision sequence of a site is a
// pure function of (seed, hit count) — identical across plans with the same
// seed, whatever other sites did in between.
func TestDeterministicSchedule(t *testing.T) {
	spec := "a=error@0.3;b=error@0.7"
	schedule := func(interleave bool) []bool {
		p, err := Parse(spec, 42)
		if err != nil {
			t.Fatal(err)
		}
		Enable(p)
		defer Disable()
		var out []bool
		for i := 0; i < 200; i++ {
			if interleave {
				Maybe("b") // traffic on b must not perturb a's schedule
			}
			out = append(out, Maybe("a") != nil)
		}
		return out
	}
	base := schedule(false)
	perturbed := schedule(true)
	for i := range base {
		if base[i] != perturbed[i] {
			t.Fatalf("hit %d: schedule of site a changed under cross-site traffic", i)
		}
	}
	fires := 0
	for _, f := range base {
		if f {
			fires++
		}
	}
	if fires < 30 || fires > 90 {
		t.Fatalf("p=0.3 fired %d/200 times, schedule looks broken", fires)
	}

	// A different seed yields a different schedule.
	p2, _ := Parse(spec, 43)
	Enable(p2)
	defer Disable()
	diff := false
	for i := 0; i < 200; i++ {
		if (Maybe("a") != nil) != base[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}

func TestDisabledFastPathIsInert(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled() with no plan")
	}
	if err := Maybe("any.site"); err != nil {
		t.Fatal(err)
	}
	b := []byte("payload")
	got, err := Write("any.site", b)
	if err != nil || !bytes.Equal(got, b) {
		t.Fatalf("Write mutated with chaos disabled: %q, %v", got, err)
	}
	if _, ok := Status("any.site"); ok {
		t.Fatal("Status fired with chaos disabled")
	}
	if _, ok := Trunc("any.site"); ok {
		t.Fatal("Trunc fired with chaos disabled")
	}
}

func TestErrorKindWrapsErrInjected(t *testing.T) {
	p, _ := Parse("x=error", 1)
	Enable(p)
	defer Disable()
	err := Maybe("x")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Maybe = %v, want ErrInjected", err)
	}
	if err := Maybe("unwired.site"); err != nil {
		t.Fatalf("unwired site fired: %v", err)
	}
}

func TestPanicKind(t *testing.T) {
	p, _ := Parse("x=panic", 1)
	Enable(p)
	defer Disable()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic rule did not panic")
		} else if !strings.Contains(fmt.Sprint(r), "chaos: injected panic at x") {
			t.Fatalf("panic value %v", r)
		}
	}()
	_ = Maybe("x")
}

func TestLatencyKindSleeps(t *testing.T) {
	p, _ := Parse("x=latency:30ms", 1)
	Enable(p)
	defer Disable()
	start := time.Now()
	if err := Maybe("x"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("latency rule slept %v, want >= 30ms", d)
	}
}

func TestShortWriteTearsDeterministically(t *testing.T) {
	rec := []byte(`{"key":"k","lo":0,"hi":3}` + "\n")
	cut := func(seed int64) int {
		p, _ := Parse("j=short", seed)
		Enable(p)
		defer Disable()
		got, err := Write("j", rec)
		if err != nil {
			t.Fatal(err)
		}
		return len(got)
	}
	a, b := cut(7), cut(7)
	if a != b {
		t.Fatalf("same seed tore at %d then %d", a, b)
	}
	if a >= len(rec) {
		t.Fatalf("short write did not shorten: %d of %d bytes", a, len(rec))
	}
}

func TestBitFlipCorruptsOneBitOnACopy(t *testing.T) {
	p, _ := Parse("x=bitflip", 3)
	Enable(p)
	defer Disable()
	orig := []byte("0123456789abcdef")
	keep := append([]byte(nil), orig...)
	got, err := Write("x", orig)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, keep) {
		t.Fatal("bitflip mutated the caller's buffer")
	}
	diffBits := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^orig[i])>>b&1 == 1 {
				diffBits++
			}
		}
	}
	if diffBits != 1 {
		t.Fatalf("bitflip changed %d bits, want exactly 1", diffBits)
	}
}

func TestStatusAndTrunc(t *testing.T) {
	p, _ := Parse("s=status:503;t=trunc:48", 1)
	Enable(p)
	defer Disable()
	if code, ok := Status("s"); !ok || code != 503 {
		t.Fatalf("Status = %d, %v", code, ok)
	}
	if limit, ok := Trunc("t"); !ok || limit != 48 {
		t.Fatalf("Trunc = %d, %v", limit, ok)
	}
	// Kind/helper mismatch: a status rule never fires through Maybe or Write.
	if err := Maybe("s"); err != nil {
		t.Fatalf("status rule fired through Maybe: %v", err)
	}
	if _, err := Write("s", []byte("x")); err != nil {
		t.Fatalf("status rule fired through Write: %v", err)
	}
}

func TestLimitAndAfter(t *testing.T) {
	p, _ := Parse("x=error#2+3", 1)
	Enable(p)
	defer Disable()
	var fires []int
	for i := 1; i <= 20; i++ {
		if Maybe("x") != nil {
			fires = append(fires, i)
		}
	}
	if len(fires) != 2 {
		t.Fatalf("limit 2 fired %d times (%v)", len(fires), fires)
	}
	if fires[0] != 4 || fires[1] != 5 {
		t.Fatalf("after 3 should fire first at hits 4 and 5, got %v", fires)
	}
	evs := p.Events()
	if len(evs) != 2 || evs[0].Site != "x" || evs[0].Kind != KindError || evs[0].Hit != 4 || evs[1].Fire != 2 {
		t.Fatalf("events = %+v", evs)
	}
}

func TestSetLogfReportsFires(t *testing.T) {
	p, _ := Parse("x=error#1", 1)
	var lines []string
	p.SetLogf(func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) })
	Enable(p)
	defer Disable()
	_ = Maybe("x")
	if len(lines) != 1 || !strings.Contains(lines[0], "error fired at x") {
		t.Fatalf("logf lines = %q", lines)
	}
	if p.Seed() != 1 || p.Spec() != "x=error#1" {
		t.Fatalf("Seed/Spec = %d, %q", p.Seed(), p.Spec())
	}
}
