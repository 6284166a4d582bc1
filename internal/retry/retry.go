// Package retry is the shared retry policy: capped exponential backoff
// with deterministic jitter. The cluster coordinator's worker benches and
// the serving tier's quarantine windows both draw their delays from it —
// one series, one set of tests.
//
// Determinism matters here the way it does in internal/chaos: a jittered
// delay must be a pure function of the attempt number, never of
// wall-clock entropy, so a replayed soak paces its retries identically.
package retry

import "time"

// Backoff computes the delay before retry number attempt (1-based): the
// classic capped exponential Base × Factor^(attempt-1), clamped to Max,
// with optional deterministic jitter. The zero value of every field has a
// safe meaning (see each field), so Backoff{Base: time.Second} is usable.
//
// Backoff is a value type with no internal state: Delay is a pure
// function, safe for concurrent use and for replay.
type Backoff struct {
	// Base is the first delay. Non-positive means 100ms.
	Base time.Duration
	// Max caps the grown delay (before jitter narrows it). Non-positive
	// means 30s; a Max below Base is raised to Base.
	Max time.Duration
	// Factor is the per-attempt growth multiplier. Values below 1 mean 2.
	Factor float64
	// Jitter, in [0, 1), spreads each delay uniformly over
	// [(1-Jitter)×d, d]: jitter only ever shrinks a delay, so Max stays a
	// hard ceiling and an unjittered consumer (Jitter = 0) sees the exact
	// deterministic series its tests pin. The same attempt always draws
	// the same jitter.
	Jitter float64
}

const (
	defaultBase = 100 * time.Millisecond
	defaultMax  = 30 * time.Second
)

// norm returns b with defaults applied.
func (b Backoff) norm() Backoff {
	if b.Base <= 0 {
		b.Base = defaultBase
	}
	if b.Max <= 0 {
		b.Max = defaultMax
	}
	if b.Max < b.Base {
		b.Max = b.Base
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	if b.Jitter < 0 || b.Jitter >= 1 {
		b.Jitter = 0
	}
	return b
}

// Delay returns the pause before retry attempt (1-based). Attempts below 1
// are treated as 1. The unjittered series is Base, Base×Factor,
// Base×Factor², …, capped at Max without overflow.
func (b Backoff) Delay(attempt int) time.Duration {
	b = b.norm()
	if attempt < 1 {
		attempt = 1
	}
	d := b.Base
	// Multiply stepwise and stop at the cap: no float pow, no overflow —
	// the same shape as the doubling loop this package absorbed.
	for i := 1; i < attempt && d < b.Max; i++ {
		grown := time.Duration(float64(d) * b.Factor)
		if grown <= d { // overflow or Factor rounding to no growth
			d = b.Max
			break
		}
		d = grown
	}
	if d > b.Max {
		d = b.Max
	}
	if b.Jitter > 0 {
		// One splitmix64 scramble of the attempt → uniform in [0, 1).
		u := float64(mix(uint64(attempt)*0x9e3779b97f4a7c15)>>11) / (1 << 53)
		d = time.Duration(float64(d) * (1 - b.Jitter*u))
		if d < 1 {
			d = 1
		}
	}
	return d
}

// mix is the splitmix64 finalizer — the same scramble the chaos package
// uses to derive independent deterministic streams.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
