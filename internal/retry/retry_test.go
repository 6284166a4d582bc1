package retry

import (
	"testing"
	"time"
)

func TestBackoffExponentialSeries(t *testing.T) {
	b := Backoff{Base: time.Second, Max: 30 * time.Second, Factor: 2}
	want := []time.Duration{
		time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second,
		16 * time.Second, 30 * time.Second, 30 * time.Second,
	}
	for i, w := range want {
		if got := b.Delay(i + 1); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffDefaults(t *testing.T) {
	var b Backoff
	if got := b.Delay(1); got != defaultBase {
		t.Fatalf("zero-value Delay(1) = %v, want %v", got, defaultBase)
	}
	if got := b.Delay(1000); got != defaultMax {
		t.Fatalf("zero-value Delay(1000) = %v, want cap %v", got, defaultMax)
	}
	if got := b.Delay(0); got != b.Delay(1) {
		t.Fatalf("Delay(0) = %v, want Delay(1) = %v", got, b.Delay(1))
	}
}

func TestBackoffCapBelowBase(t *testing.T) {
	b := Backoff{Base: time.Second, Max: time.Millisecond}
	if got := b.Delay(3); got != time.Second {
		t.Fatalf("Delay with Max<Base = %v, want Base %v", got, time.Second)
	}
}

func TestBackoffNoOverflow(t *testing.T) {
	b := Backoff{Base: time.Hour, Max: 1<<62 - 1, Factor: 1e9}
	for i := 1; i < 64; i++ {
		d := b.Delay(i)
		if d <= 0 || d > time.Duration(1<<62-1) {
			t.Fatalf("Delay(%d) overflowed: %v", i, d)
		}
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	b := Backoff{Base: time.Second, Max: time.Minute, Jitter: 0.5}
	for attempt := 1; attempt <= 8; attempt++ {
		d1, d2 := b.Delay(attempt), b.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("Delay(%d) not deterministic: %v vs %v", attempt, d1, d2)
		}
		full := Backoff{Base: b.Base, Max: b.Max}.Delay(attempt)
		if d1 > full {
			t.Fatalf("jittered Delay(%d) = %v exceeds unjittered %v", attempt, d1, full)
		}
		if min := time.Duration(float64(full) * 0.5); d1 < min {
			t.Fatalf("jittered Delay(%d) = %v below floor %v", attempt, d1, min)
		}
	}
}
