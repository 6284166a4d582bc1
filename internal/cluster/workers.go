package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// HealthzPath is the worker liveness endpoint a coordinator heartbeats.
const HealthzPath = "/healthz"

// workerRow is one worker's line in a run's worker table (runState.workers,
// guarded by runState.mu). The workers themselves are the fixed list given
// to New. Two independent verdicts live here: eviction (the heartbeat says
// the worker is unreachable; only a good probe ends it) and the bench (the
// worker failed a shard; time ends it).
type workerRow struct {
	probeFails int       // consecutive failed heartbeat probes
	evicted    bool      // probeFails reached HeartbeatFails
	strikes    int       // consecutive failed shards
	benchUntil time.Time // no dispatch before this
}

// workerInput is one observation the table folds into a worker's row.
type workerInput int

const (
	probeFailed    workerInput = iota // GET /healthz failed or timed out
	probeOK                           // GET /healthz answered 2xx
	shardFailed                       // a shard post failed: transport, 5xx, bad payload
	shardDone                         // a shard post returned a valid partial
	shardSaturated                    // a shard post answered 429
)

// gateVerdict is the table's answer to "may this worker's slot dispatch now".
type gateVerdict int

const (
	gateOpen    gateVerdict = iota
	gateBenched             // wait out the bench, then try again
	gateEvicted             // park until a probe readmits the worker
)

// row returns w's row, creating an empty one. The caller holds st.mu.
func (st *runState) row(w string) *workerRow {
	r := st.workers[w]
	if r == nil {
		r = &workerRow{}
		st.workers[w] = r
	}
	return r
}

// observe folds one input into w's row and returns the Event announcing
// the transition it caused, if any (Kind "" otherwise):
//   - "evict": the HeartbeatFails-th consecutive failed probe;
//   - "readmit": a good probe ended an eviction;
//   - "quarantine": a failed shard benched the worker for RetryIn,
//     backoff.Delay(k) for its k-th consecutive strike.
//
// A good probe resets the probe count; a completed shard clears the strikes
// and any bench; a 429 is backpressure from a healthy worker, counted but
// never a strike.
func (c *Coordinator) observe(st *runState, w string, in workerInput, now time.Time) Event {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.row(w)
	switch in {
	case probeFailed:
		r.probeFails++
		if !r.evicted && r.probeFails >= c.opt.HeartbeatFails {
			r.evicted = true
			st.stats.Evictions++
			return Event{Kind: "evict", Worker: w, Err: fmt.Errorf("cluster: %d consecutive heartbeat failures", r.probeFails)}
		}
	case probeOK:
		r.probeFails = 0
		if r.evicted {
			r.evicted = false
			st.stats.Readmissions++
			return Event{Kind: "readmit", Worker: w}
		}
	case shardFailed:
		r.strikes++
		bench := c.backoff.Delay(r.strikes)
		r.benchUntil = now.Add(bench)
		return Event{Kind: "quarantine", Worker: w, RetryIn: bench}
	case shardDone:
		r.strikes = 0
		r.benchUntil = time.Time{}
	case shardSaturated:
		st.stats.Backoffs429++
	}
	return Event{}
}

// gate is the one verdict on whether w's slots may dispatch at now. Both
// workerLoop (before every dispatch) and the speculator (choosing where a
// backup copy may land) ask it. For a benched worker it also returns the
// time left on the bench.
func (st *runState) gate(w string, now time.Time) (gateVerdict, time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.workers[w]
	switch {
	case r == nil:
		return gateOpen, 0
	case r.evicted:
		return gateEvicted, 0
	case now.Before(r.benchUntil):
		return gateBenched, r.benchUntil.Sub(now)
	}
	return gateOpen, 0
}

// probe answers whether worker's GET /healthz succeeded. Any 2xx is healthy;
// refused connections, timeouts and non-2xx statuses are not. The probe
// carries the run's bearer token when one is configured, so an auth-fronted
// worker is not misread as dead.
func (c *Coordinator) probe(ctx context.Context, worker string) bool {
	// The answer deadline is HeartbeatTimeout, not the probe interval: a
	// short interval means frequent probes, not impatient ones.
	pctx, cancel := context.WithTimeout(ctx, c.opt.HeartbeatTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, worker+HealthzPath, nil)
	if err != nil {
		return false
	}
	if c.opt.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.opt.Token)
	}
	resp, err := c.opt.Client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// probeRound probes every worker once and folds the outcomes into the
// worker table.
func (c *Coordinator) probeRound(ctx context.Context, st *runState) {
	for _, w := range c.workers {
		ok := c.probe(ctx, w)
		if ctx.Err() != nil {
			return // the run ended mid-probe: the answer says nothing about w
		}
		in := probeFailed
		if ok {
			in = probeOK
		}
		if ev := c.observe(st, w, in, time.Now()); ev.Kind != "" {
			c.emit(ev)
		}
	}
}

// heartbeatLoop re-probes the fleet every Heartbeat until the run ends.
// It sleeps on a real timer, never Options.Sleep: tests inject instant
// sleeps to skip benches, and an instant heartbeat interval would turn
// this loop into a hot spin against /healthz.
func (c *Coordinator) heartbeatLoop(ctx context.Context, st *runState) {
	for {
		if sleepCtx(ctx, c.opt.Heartbeat) != nil {
			return
		}
		select {
		case <-st.done:
			return
		default:
		}
		c.probeRound(ctx, st)
	}
}
