package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// errFromSecondCall is a context whose Err reports context.Canceled from its
// second call on. An engine that polls only once, before its work, runs to
// the end under it; at the quick profile a timer could not cancel such an
// engine mid-run, since it finishes in milliseconds.
type errFromSecondCall struct {
	context.Context
	calls atomic.Int32
}

func (c *errFromSecondCall) Err() error {
	if c.calls.Add(1) >= 2 {
		return context.Canceled
	}
	return nil
}

// TestExtWeightedHonoursCancellation runs ext-weighted under a context that
// is cancelled after its first poll. The weighted sweep must poll again and
// return the cancellation, not a result.
func TestExtWeightedHonoursCancellation(t *testing.T) {
	ctx := &errFromSecondCall{Context: context.Background()}
	res, err := runExtWeighted(ctx, Quick())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("result %v, err = %v; want context.Canceled", res != nil, err)
	}
	if n := ctx.calls.Load(); n != 2 {
		t.Fatalf("ctx.Err called %d times, want the run to stop at the second poll", n)
	}
}
