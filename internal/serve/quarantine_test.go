package serve

import (
	"errors"
	"testing"
	"time"
)

// fakeClock drives a Quarantine deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestQuarantine(base, max time.Duration) (*Quarantine, *fakeClock) {
	q := NewQuarantine(base, max)
	c := &fakeClock{t: time.Unix(1_000_000, 0)}
	q.now = c.now
	return q, c
}

func TestQuarantineExponentialBackoff(t *testing.T) {
	q, clock := newTestQuarantine(time.Second, time.Minute)
	cause := errors.New("panic: boom")

	if b := q.Report("fig1a", cause); b != time.Second {
		t.Fatalf("first strike backoff = %v, want 1s", b)
	}
	if ok, retry := q.Allowed("fig1a"); ok || retry != time.Second {
		t.Fatalf("Allowed = %v, retry %v; want quarantined for 1s", ok, retry)
	}
	// Backoff elapses → allowed again (the retry), strikes retained.
	clock.advance(time.Second)
	if ok, _ := q.Allowed("fig1a"); !ok {
		t.Fatal("still quarantined after backoff elapsed")
	}
	// Failing the retry doubles: 2s, then 4s.
	if b := q.Report("fig1a", cause); b != 2*time.Second {
		t.Fatalf("second strike backoff = %v, want 2s", b)
	}
	clock.advance(2 * time.Second)
	if b := q.Report("fig1a", cause); b != 4*time.Second {
		t.Fatalf("third strike backoff = %v, want 4s", b)
	}
}

func TestQuarantineBackoffCap(t *testing.T) {
	q, _ := newTestQuarantine(time.Second, 3*time.Second)
	for i := 0; i < 10; i++ {
		q.Report("x", nil)
	}
	if b := q.Report("x", nil); b != 3*time.Second {
		t.Fatalf("backoff = %v, want capped at 3s", b)
	}
}

func TestQuarantineClearForgetsStrikes(t *testing.T) {
	q, clock := newTestQuarantine(time.Second, time.Minute)
	q.Report("fig8", nil)
	q.Report("fig8", nil)
	q.Clear("fig8")
	if q.Len() != 0 {
		t.Fatalf("len = %d after Clear, want 0", q.Len())
	}
	if b := q.Report("fig8", nil); b != time.Second {
		t.Fatalf("backoff after Clear = %v, want base again", b)
	}
	clock.advance(time.Hour)
	if ok, _ := q.Allowed("fig8"); !ok {
		t.Fatal("quarantine did not elapse")
	}
}

func TestQuarantineSnapshot(t *testing.T) {
	q, clock := newTestQuarantine(time.Second, time.Minute)
	q.Report("a", errors.New("panic: kaboom\ngoroutine 7 [running]:\nstack..."))
	q.Report("b", nil)
	clock.advance(1500 * time.Millisecond) // a (1s) elapsed, b (1s) elapsed too
	if got := q.Snapshot(); len(got) != 0 {
		t.Fatalf("snapshot after expiry = %+v, want empty", got)
	}
	q.Report("a", nil) // second strike: 2s from now
	snap := q.Snapshot()
	if len(snap) != 1 || snap[0].ID != "a" || snap[0].Strikes != 2 {
		t.Fatalf("snapshot = %+v, want a with 2 strikes", snap)
	}
	q.Report("c", errors.New("panic: kaboom\nstack"))
	// Two live ids come back sorted on every call, whatever the map order.
	for i := 0; i < 20; i++ {
		snap := q.Snapshot()
		if len(snap) != 2 || snap[0].ID != "a" || snap[1].ID != "c" {
			t.Fatalf("snapshot %d = %+v, want a then c", i, snap)
		}
		if snap[1].Cause != "panic: kaboom" {
			t.Fatalf("cause not truncated to first line: %q", snap[1].Cause)
		}
	}
}

func TestQuarantineUnknownIDAllowed(t *testing.T) {
	q, _ := newTestQuarantine(time.Second, time.Minute)
	if ok, retry := q.Allowed("never-seen"); !ok || retry != 0 {
		t.Fatalf("Allowed(unknown) = %v, %v; want true, 0", ok, retry)
	}
}
