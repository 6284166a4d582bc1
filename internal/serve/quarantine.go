package serve

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"time"

	"mtreescale/internal/retry"
)

// ErrQuarantined marks work refused because its id is quarantined: a recent
// run panicked or tripped the heap guard, and the exponential backoff has
// not yet elapsed. The scheduler returns it in RunStats.Err; the daemon maps
// it to 503 with a Retry-After, or answers from the result cache in degraded
// mode.
var ErrQuarantined = errors.New("serve: quarantined")

// Quarantine is a registry of workload ids that have recently proven
// dangerous. Each Report strikes the id and quarantines it for
// base × 2^(strikes-1), capped at max; Allowed admits the id again once the
// backoff has elapsed (the retry), and a successful retry should Clear it.
// Strikes survive an elapsed backoff, so an id that fails on every retry
// backs off exponentially rather than oscillating.
type Quarantine struct {
	mu      sync.Mutex
	backoff retry.Backoff    // unjittered: quarantine windows are test-pinned
	now     func() time.Time // injectable for tests
	entries map[string]*quarantineEntry
}

type quarantineEntry struct {
	strikes int
	until   time.Time
	cause   error
}

// QuarantineInfo describes one quarantined id for health reporting.
type QuarantineInfo struct {
	ID      string    `json:"id"`
	Strikes int       `json:"strikes"`
	Until   time.Time `json:"until"`
	Cause   string    `json:"cause"`
}

// NewQuarantine returns a registry with the given backoff base and cap.
// Non-positive values fall back to 1s base and 5m cap.
func NewQuarantine(base, max time.Duration) *Quarantine {
	if base <= 0 {
		base = time.Second
	}
	if max <= 0 {
		max = 5 * time.Minute
	}
	if max < base {
		max = base
	}
	return &Quarantine{
		backoff: retry.Backoff{Base: base, Max: max, Factor: 2},
		now:     time.Now,
		entries: make(map[string]*quarantineEntry),
	}
}

// SetClock replaces the registry's time source. Tests (including other
// packages') use it to drive strike/elapse/clear transitions without
// sleeping; pass nil to restore the real clock.
func (q *Quarantine) SetClock(now func() time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	q.now = now
}

// Report strikes id with the given cause and returns the backoff applied.
func (q *Quarantine) Report(id string, cause error) time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.entries[id]
	if e == nil {
		e = &quarantineEntry{}
		q.entries[id] = e
	}
	e.strikes++
	// The shared retry layer computes the window: base × 2^(strikes-1),
	// capped, no jitter — the exact series the quarantine tests pin.
	backoff := q.backoff.Delay(e.strikes)
	e.until = q.now().Add(backoff)
	e.cause = cause
	return backoff
}

// Allowed reports whether id may run. When quarantined it also returns the
// remaining backoff, a ready-made Retry-After hint.
func (q *Quarantine) Allowed(id string) (ok bool, retryIn time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.entries[id]
	if e == nil {
		return true, 0
	}
	if remaining := e.until.Sub(q.now()); remaining > 0 {
		return false, remaining
	}
	return true, 0
}

// Clear forgets id entirely — call it after a successful retry.
func (q *Quarantine) Clear(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.entries, id)
}

// Len reports the number of ids currently holding strikes.
func (q *Quarantine) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries)
}

// Snapshot lists the ids whose quarantine has not yet elapsed, sorted by
// id, for health endpoints and logs.
func (q *Quarantine) Snapshot() []QuarantineInfo {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	var out []QuarantineInfo
	for id, e := range q.entries {
		if e.until.After(now) {
			cause := ""
			if e.cause != nil {
				cause = firstLine(e.cause.Error())
			}
			out = append(out, QuarantineInfo{ID: id, Strikes: e.strikes, Until: e.until, Cause: cause})
		}
	}
	slices.SortFunc(out, func(a, b QuarantineInfo) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// firstLine truncates multi-line error text (panic stacks) for reporting.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
