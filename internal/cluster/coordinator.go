package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mtreescale/internal/atomicio"
	"mtreescale/internal/chaos"
	"mtreescale/internal/retry"
	"mtreescale/internal/valid"
)

// ShardPath is the worker endpoint a coordinator posts ShardSpecs to.
const ShardPath = "/shard"

// Event is one coordinator progress notification. Kind is one of
// "resume" (shard satisfied from the journal), "complete" (worker returned
// a partial), "backoff" (worker answered 429; the slot pauses RetryIn),
// "requeue" (worker failed; the shard goes back to the pool),
// "quarantine" (that failure benched the worker for RetryIn),
// "evict" / "readmit" (heartbeat verdicts on a worker),
// "speculate" (a straggling shard was re-queued to race its original
// dispatch) and "journal-skip" (a resume journal line carried this grid's
// key but failed validation and was discarded).
type Event struct {
	Kind    string
	Worker  string
	Lo, Hi  int
	RetryIn time.Duration
	Err     error
}

// Stats summarizes one coordinator run for mtctl's timing report.
type Stats struct {
	// Planned is the number of shards the grid was cut into; Resumed of
	// those were satisfied from the journal without any dispatch.
	Planned int `json:"planned"`
	Resumed int `json:"resumed"`
	// Attempts counts shard POSTs, Backoffs429 those answered 429, and
	// Requeues those lost to worker failure and re-queued elsewhere.
	Attempts    int `json:"attempts"`
	Backoffs429 int `json:"backoffs_429"`
	Requeues    int `json:"requeues"`
	// Evictions and Readmissions count heartbeat verdicts; Speculations
	// counts straggling shards raced on a second worker; StaleDropped counts
	// results that arrived after their shard was already complete (the
	// losing side of a speculation or requeue race).
	Evictions    int `json:"evictions,omitempty"`
	Readmissions int `json:"readmissions,omitempty"`
	Speculations int `json:"speculations,omitempty"`
	StaleDropped int `json:"stale_dropped,omitempty"`
	// JournalSkipped counts resume journal lines that carried this grid's
	// key but failed validation (stale block bounds, payload mismatch, bad
	// checksum) and were recomputed instead of trusted.
	JournalSkipped int `json:"journal_skipped,omitempty"`
	// PerWorker counts completed shards by worker URL.
	PerWorker map[string]int `json:"per_worker"`
}

// Options tunes a Coordinator. The zero value is usable: one in-flight
// shard per worker, three worker-failure retries per shard, no journal.
type Options struct {
	// Client posts shard requests; nil means a default client with no
	// overall timeout (shards are long; cancellation comes from ctx).
	Client *http.Client
	// Inflight is the per-worker concurrent shard cap (default 1): the
	// bounded fan-out that keeps a coordinator from flooding a worker's
	// admission queue.
	Inflight int
	// Retries is the per-shard worker-failure budget (default 3). 429
	// responses do not consume it — a saturated worker is backpressure,
	// not failure.
	Retries int
	// Backoff and BackoffMax pace worker failures (defaults 1s and 30s). A
	// worker's k-th consecutive failed shard benches it — no dispatch —
	// for Backoff×2^(k-1), capped at BackoffMax and shortened by up to 30%
	// of deterministic jitter; its next completed shard clears the
	// strikes. The failed shard itself goes back to the pool at once.
	// Backoff is also the 429 pause when a worker omits Retry-After.
	Backoff    time.Duration
	BackoffMax time.Duration
	// JournalPath, when set, appends every completed partial to an fsynced
	// JSONL journal; with Resume, partials already journaled for this grid
	// and shard plan are not recomputed.
	JournalPath string
	Resume      bool
	// Token, when set, is sent as "Authorization: Bearer <token>" on every
	// shard post and heartbeat probe (mtsimd -shard-token).
	Token string
	// Heartbeat, when positive, probes every worker's GET /healthz at this
	// interval (plus HeartbeatFails synchronous rounds before dispatch). A
	// worker that fails HeartbeatFails consecutive probes (default 3) is
	// evicted — its slots hand shards back and park, one interval at a
	// time — and re-admitted by the next successful probe. Zero disables
	// heartbeating.
	Heartbeat      time.Duration
	HeartbeatFails int
	// HeartbeatTimeout is each probe's answer deadline (default 2s),
	// independent of the probe interval: a short interval means frequent
	// probes, not impatient ones.
	HeartbeatTimeout time.Duration
	// SpecFactor, when positive, enables speculative re-execution: a shard
	// in flight longer than max(SpecMin, SpecFactor × rolling mean shard
	// latency) is queued a second time so another worker races the
	// straggler; the first structurally valid result wins and the loser is
	// dropped as stale. At most one speculative copy runs per shard.
	// SpecMin (default 1s) floors the deadline before any latency samples
	// exist.
	SpecFactor float64
	SpecMin    time.Duration
	// OnEvent observes progress; called from worker goroutines.
	OnEvent func(Event)
	// Sleep pauses a worker slot (429 backoff, bench); nil means a
	// ctx-aware timer sleep. Tests inject instant sleeps.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Coordinator fans an experiment grid out over mtsimd workers and merges
// the partials deterministically: the merged result is byte-identical to a
// single-process run, whatever the worker count, scheduling, failures or
// restarts along the way.
type Coordinator struct {
	workers []string
	opt     Options
	backoff retry.Backoff // bench series: capped exponential, deterministic jitter
}

// New builds a Coordinator over the given worker base URLs
// (e.g. "http://host:8080"). The list is fixed for the coordinator's life.
func New(workers []string, opt Options) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, valid.Badf("cluster: no workers")
	}
	seen := map[string]bool{}
	for _, w := range workers {
		if w == "" {
			return nil, valid.Badf("cluster: empty worker URL")
		}
		if seen[w] {
			return nil, valid.Badf("cluster: duplicate worker %q", w)
		}
		seen[w] = true
	}
	if opt.Client == nil {
		opt.Client = &http.Client{}
	}
	if opt.Inflight < 1 {
		opt.Inflight = 1
	}
	if opt.Retries < 1 {
		opt.Retries = 3
	}
	if opt.Backoff <= 0 {
		opt.Backoff = time.Second
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = 30 * time.Second
	}
	if opt.Sleep == nil {
		opt.Sleep = sleepCtx
	}
	if opt.HeartbeatFails < 1 {
		opt.HeartbeatFails = 3
	}
	if opt.HeartbeatTimeout <= 0 {
		opt.HeartbeatTimeout = 2 * time.Second
	}
	if opt.SpecMin <= 0 {
		opt.SpecMin = time.Second
	}
	return &Coordinator{
		workers: append([]string(nil), workers...),
		opt:     opt,
		backoff: retry.Backoff{
			Base:   opt.Backoff,
			Max:    opt.BackoffMax,
			Factor: 2,
			Jitter: 0.3,
		},
	}, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Coordinator) emit(ev Event) {
	if c.opt.OnEvent != nil {
		c.opt.OnEvent(ev)
	}
}

// runState is the shared bookkeeping of one Run: which shards remain, how
// often each has failed, which are in flight (and since when, for the
// speculation deadline), the worker table, and the first fatal error.
type runState struct {
	mu         sync.Mutex
	remaining  int
	failures   []int
	parts      []*Partial
	speculated []bool
	inflight   map[int]flight // shard idx -> earliest dispatch
	latSum     time.Duration  // completed-shard latency, for the
	latN       int            // speculation deadline's rolling mean
	fatal      error
	stats      Stats
	workers    map[string]*workerRow // the worker table (workers.go)
	done       chan struct{}         // closed when remaining hits 0
	cancel     context.CancelFunc
}

// complete settles one shard result and reports whether it was accepted.
// Losers of a speculation or requeue race land here after the winner and are
// dropped as stale; only the accepted result may be journaled or counted.
func (st *runState) complete(idx int, p *Partial, worker string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.parts[idx] != nil {
		st.stats.StaleDropped++
		return false
	}
	st.parts[idx] = p
	delete(st.inflight, idx)
	if worker != "" {
		st.stats.PerWorker[worker]++
	}
	st.remaining--
	if st.remaining == 0 {
		close(st.done)
	}
	return true
}

// isComplete reports whether shard idx already has an accepted result.
func (st *runState) isComplete(idx int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.parts[idx] != nil
}

// flight is one in-flight shard dispatch: when it launched and to whom.
type flight struct {
	t0     time.Time
	worker string
}

// markDispatch records a shard entering flight. The earliest dispatch is
// kept when a speculative copy joins, so the straggler's age and worker —
// not the fresh copy's — drive any further deadline math and reporting.
func (st *runState) markDispatch(idx int, worker string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.inflight[idx]; !ok {
		st.inflight[idx] = flight{t0: time.Now(), worker: worker}
	}
}

// recordLatency feeds one successful shard round trip into the rolling mean.
func (st *runState) recordLatency(d time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.latSum += d
	st.latN++
}

func (st *runState) fail(err error) {
	st.mu.Lock()
	if st.fatal == nil {
		st.fatal = err
	}
	st.mu.Unlock()
	st.cancel()
}

// Run shards the grid into nShards blocks, executes them across the
// workers, and merges the partials. On return with a nil error the Merged
// result is byte-identical to RunLocal's for the same grid.
func (c *Coordinator) Run(ctx context.Context, g Grid, nShards int) (*Merged, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	plan, err := Plan(g, nShards)
	if err != nil {
		return nil, nil, err
	}
	st := &runState{
		remaining:  len(plan),
		failures:   make([]int, len(plan)),
		parts:      make([]*Partial, len(plan)),
		speculated: make([]bool, len(plan)),
		inflight:   map[int]flight{},
		workers:    map[string]*workerRow{},
		done:       make(chan struct{}),
		stats:      Stats{Planned: len(plan), PerWorker: map[string]int{}},
	}

	// Resume: shards whose exact block is already journaled for this grid
	// need no dispatch. Blocks from a different plan width don't match and
	// are recomputed — identity is (grid key, lo, hi), nothing looser.
	// Lines for OTHER grids are expected (shared journal files) and skipped
	// silently; lines carrying THIS grid's key that fail validation — stale
	// bounds from an old plan, payload/block mismatch, a checksum that no
	// longer matches — are evidence of damage and are logged and counted
	// before being recomputed. A line's writer does not matter: a partial is
	// a deterministic function of (grid key, lo, hi), so any coordinator
	// that journaled this block journaled the same sealed value.
	if c.opt.JournalPath != "" && c.opt.Resume {
		byBlock := map[[2]int]*Partial{}
		if _, err := atomicio.ReadJournal(c.opt.JournalPath, func(line []byte) error {
			p, err := parseJournalPartial(line, g)
			if err != nil {
				if !errors.Is(err, errForeignJournalLine) {
					st.stats.JournalSkipped++
					c.emit(Event{Kind: "journal-skip", Err: err})
				}
				return err
			}
			byBlock[[2]int{p.Lo, p.Hi}] = p
			return nil
		}); err != nil {
			return nil, nil, err
		}
		for i, spec := range plan {
			if p, ok := byBlock[[2]int{spec.Lo, spec.Hi}]; ok {
				st.parts[i] = p
				st.remaining--
				st.stats.Resumed++
				c.emit(Event{Kind: "resume", Lo: spec.Lo, Hi: spec.Hi})
			}
		}
	}

	var journal *atomicio.Journal
	if c.opt.JournalPath != "" {
		journal, err = atomicio.OpenJournal(c.opt.JournalPath, c.opt.Resume)
		if err != nil {
			return nil, nil, err
		}
		defer journal.Close()
	}

	if st.remaining > 0 {
		runCtx, cancel := context.WithCancel(ctx)
		st.cancel = cancel

		if c.opt.Heartbeat > 0 {
			// HeartbeatFails synchronous rounds first, so a worker that is
			// already dead is evicted before the opening dispatch wave.
			for i := 0; i < c.opt.HeartbeatFails; i++ {
				c.probeRound(runCtx, st)
			}
			go c.heartbeatLoop(runCtx, st)
		}

		// The pool holds every undone shard index; capacity 2×len(plan)
		// means a requeue can never block even with a speculative copy of
		// every shard outstanding.
		pool := make(chan int, 2*len(plan))
		for i := range plan {
			if st.parts[i] == nil {
				pool <- i
			}
		}

		if c.opt.SpecFactor > 0 {
			go c.speculator(runCtx, plan, pool, st)
		}

		// Every worker gets Inflight workerLoop slots for the whole run.
		var wg sync.WaitGroup
		for _, w := range c.workers {
			for s := 0; s < c.opt.Inflight; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.workerLoop(runCtx, w, plan, pool, st, journal)
				}()
			}
		}

		// Every path out of the run ends runCtx except the last shard
		// settling, so wait for either. Then cancel runCtx, so straggling
		// speculation losers abort their posts instead of holding wg.Wait
		// (and the run's wall clock) hostage.
		select {
		case <-st.done:
		case <-runCtx.Done():
		}
		cancel()
		wg.Wait()
	} else {
		close(st.done)
	}

	st.mu.Lock()
	fatal := st.fatal
	stats := st.stats
	parts := st.parts
	remaining := st.remaining
	st.mu.Unlock()
	if fatal != nil {
		return nil, &stats, fatal
	}
	if err := ctx.Err(); err != nil {
		return nil, &stats, err
	}
	if remaining > 0 {
		return nil, &stats, fmt.Errorf("cluster: %d shards incomplete", remaining)
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			return nil, &stats, err
		}
	}
	merged, err := Merge(g, parts)
	if err != nil {
		return nil, &stats, err
	}
	return merged, &stats, nil
}

// workerLoop is one in-flight slot of one worker: pull a shard, post it,
// and settle the outcome until the run completes or dies.
func (c *Coordinator) workerLoop(ctx context.Context, worker string, plan []ShardSpec, pool chan int, st *runState, journal *atomicio.Journal) {
	for {
		var idx int
		select {
		case <-ctx.Done():
			return
		case <-st.done:
			return
		case idx = <-pool:
		}
		spec := plan[idx]

		// A speculation or requeue duplicate whose shard already settled
		// needs no dispatch.
		if st.isComplete(idx) {
			continue
		}

		// One gate decides whether this slot may dispatch now. Refused, it
		// hands the shard back at once so other workers drain the pool, then
		// waits. A benched worker waits out its bench through Options.Sleep.
		// An evicted worker parks for one heartbeat interval on a real timer,
		// never Options.Sleep: only a probe can readmit it, and an instant
		// test sleep would turn parked slots into hot spins that starve the
		// very probes that could.
		switch verdict, wait := st.gate(worker, time.Now()); verdict {
		case gateBenched:
			pool <- idx
			if c.opt.Sleep(ctx, wait) != nil {
				return
			}
			continue
		case gateEvicted:
			pool <- idx
			if sleepCtx(ctx, c.opt.Heartbeat) != nil {
				return
			}
			continue
		}

		st.mu.Lock()
		st.stats.Attempts++
		st.mu.Unlock()
		st.markDispatch(idx, worker)

		start := time.Now()
		p, retryAfter, err := c.postShard(ctx, worker, spec)
		switch {
		case err == nil:
			c.observe(st, worker, shardDone, time.Now())
			st.recordLatency(time.Since(start))
			if st.complete(idx, p, worker) {
				// Journal only the accepted result: the race loser's partial
				// is equal in value but must not produce a duplicate line.
				if journal != nil {
					journal.Append(fmt.Sprintf("shard[%d,%d)", spec.Lo, spec.Hi), p)
				}
				c.emit(Event{Kind: "complete", Worker: worker, Lo: spec.Lo, Hi: spec.Hi})
			}

		case errors.Is(err, errSaturated):
			// Backpressure, not failure: hold the shard, pause this slot for
			// the worker's advertised Retry-After, then hand the shard back
			// for whichever slot frees first.
			c.observe(st, worker, shardSaturated, time.Now())
			c.emit(Event{Kind: "backoff", Worker: worker, Lo: spec.Lo, Hi: spec.Hi, RetryIn: retryAfter})
			if c.opt.Sleep(ctx, retryAfter) != nil {
				return
			}
			pool <- idx

		case valid.IsParam(err):
			// The grid itself is bad; no worker will ever accept it.
			st.fail(err)
			return

		default:
			// A speculation loser failing after the winner landed — its post
			// aborted by the done-watcher's cancel, typically — is not a
			// shard failure: no strike, no retry budget, no requeue.
			if st.isComplete(idx) {
				continue
			}
			// The worker takes a strike and is benched (the gate above makes
			// its slots wait); the shard goes back to the pool at once for
			// whichever worker is free, charged to its own retry budget.
			benched := c.observe(st, worker, shardFailed, time.Now())
			st.mu.Lock()
			st.failures[idx]++
			tries := st.failures[idx]
			st.stats.Requeues++
			st.mu.Unlock()
			if tries > c.opt.Retries {
				st.fail(fmt.Errorf("cluster: shard [%d, %d) failed %d times, last on %s: %w", spec.Lo, spec.Hi, tries, worker, err))
				return
			}
			pool <- idx
			c.emit(Event{Kind: "requeue", Worker: worker, Lo: spec.Lo, Hi: spec.Hi, Err: err})
			c.emit(benched)
		}
	}
}

// speculator watches in-flight shards and re-queues any that has been flying
// longer than max(SpecMin, SpecFactor × rolling mean shard latency), so a
// healthy worker races the straggler. Each shard is speculated at most once;
// the duplicate-completion guards in workerLoop make the race safe whichever
// copy lands first.
func (c *Coordinator) speculator(ctx context.Context, plan []ShardSpec, pool chan int, st *runState) {
	tick := c.opt.SpecMin / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	for {
		if sleepCtx(ctx, tick) != nil {
			return
		}
		select {
		case <-st.done:
			return
		default:
		}
		now := time.Now()
		// A backup copy needs somewhere useful to land: a worker that is not
		// the straggler itself and that the gate would let dispatch (neither
		// evicted nor benched). Snapshot eligibility before taking st.mu (the
		// gate takes it), then decide per straggler under it.
		var eligible []string
		for _, w := range c.workers {
			if verdict, _ := st.gate(w, now); verdict == gateOpen {
				eligible = append(eligible, w)
			}
		}
		hasAlternative := func(straggler string) bool {
			for _, w := range eligible {
				if w != straggler {
					return true
				}
			}
			return false
		}
		st.mu.Lock()
		deadline := c.opt.SpecMin
		if st.latN > 0 {
			if est := time.Duration(float64(st.latSum/time.Duration(st.latN)) * c.opt.SpecFactor); est > deadline {
				deadline = est
			}
		}
		var fire []flight
		var fireIdx []int
		for idx, f := range st.inflight {
			if st.parts[idx] != nil || st.speculated[idx] || now.Sub(f.t0) <= deadline {
				continue
			}
			// No live target other than the straggler: hold the shard's one
			// speculative copy (don't burn st.speculated) until a worker
			// recovers or is readmitted — dispatching the backup to an
			// evicted or benched worker would waste it.
			if !hasAlternative(f.worker) {
				continue
			}
			st.speculated[idx] = true
			st.stats.Speculations++
			fireIdx = append(fireIdx, idx)
			fire = append(fire, f)
		}
		st.mu.Unlock()
		for i, idx := range fireIdx {
			spec := plan[idx]
			c.emit(Event{Kind: "speculate", Worker: fire[i].worker, Lo: spec.Lo, Hi: spec.Hi})
			select {
			case pool <- idx:
			case <-ctx.Done():
				return
			}
		}
	}
}

// errSaturated marks a 429 outcome inside postShard.
var errSaturated = errors.New("cluster: worker saturated")

// postShard posts one ShardSpec and decodes the worker's Partial. A 429
// returns errSaturated with the worker's Retry-After; a 4xx other than 429
// returns a valid.ErrParam-wrapped permanent error; everything else
// (transport errors, 5xx, undecodable bodies) is a retryable worker
// failure.
func (c *Coordinator) postShard(ctx context.Context, worker string, spec ShardSpec) (*Partial, time.Duration, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, 0, valid.Badf("cluster: encoding shard: %v", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+ShardPath, bytes.NewReader(body))
	if err != nil {
		return nil, 0, valid.Badf("cluster: building request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.opt.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.opt.Token)
	}
	// Failpoint "cluster.post": a transport fault on the coordinator side —
	// connection reset, mid-body drop — taking the retryable-failure path.
	if err := chaos.Maybe("cluster.post"); err != nil {
		return nil, 0, fmt.Errorf("cluster: %s: %w", worker, err)
	}
	resp, err := c.opt.Client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: %s: %w", worker, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		var p Partial
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<30)).Decode(&p); err != nil {
			return nil, 0, fmt.Errorf("cluster: %s: decoding partial: %w", worker, err)
		}
		if p.Key != spec.Grid.Key() || p.Lo != spec.Lo || p.Hi != spec.Hi {
			return nil, 0, fmt.Errorf("cluster: %s: partial for wrong shard (got [%d, %d) key %.12s)", worker, p.Lo, p.Hi, p.Key)
		}
		// End-to-end integrity: the payload must still hash to the seal the
		// worker stamped. A mismatch — a flipped bit in transit, a truncated
		// body that happened to stay parseable — is a retryable worker
		// failure: strike, requeue, recompute elsewhere.
		if err := p.VerifySum(); err != nil {
			return nil, 0, fmt.Errorf("cluster: %s: %w", worker, err)
		}
		return &p, 0, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		retryIn := c.opt.Backoff
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				retryIn = time.Duration(secs) * time.Second
			}
		}
		return nil, retryIn, errSaturated
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, 0, valid.Badf("cluster: %s rejected shard [%d, %d): %s: %s", worker, spec.Lo, spec.Hi, resp.Status, bytes.TrimSpace(msg))
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, 0, fmt.Errorf("cluster: %s: %s: %s", worker, resp.Status, bytes.TrimSpace(msg))
	}
}

// errForeignJournalLine marks a journal line that belongs to a different
// grid — expected when several runs share one journal file, and skipped
// without fanfare, unlike damage to a line that claims to be ours. Lines
// with no key at all, such as the fence records older coordinators wrote,
// are foreign to every grid.
var errForeignJournalLine = errors.New("cluster: journal line for another grid")

// parseJournalPartial decodes one journal line and binds it to the grid.
// Lines for other grids return errForeignJournalLine; torn trailing writes,
// payload-less records, blocks outside the grid's axis, payloads whose inner
// bounds disagree with the record's, and checksum failures are all rejected
// (the caller logs and counts them — a rejected line is recomputed, never
// trusted).
func parseJournalPartial(line []byte, g Grid) (*Partial, error) {
	var p Partial
	if len(line) == 0 {
		return nil, valid.Badf("cluster: empty journal line")
	}
	if err := json.Unmarshal(line, &p); err != nil {
		return nil, valid.Badf("cluster: malformed journal line: %v", err)
	}
	if p.Key != g.Key() {
		return nil, errForeignJournalLine
	}
	if err := validateBlockFor(g, &p); err != nil {
		return nil, err
	}
	if err := p.VerifySum(); err != nil {
		return nil, err
	}
	return &p, nil
}

// validateBlockFor checks a partial's block and payload against the grid:
// the outer bounds must land inside the grid's sharding axis, the payload
// kind must match, and the payload's own block and protocol shape must agree
// with the record that carries it. A key match alone is not enough — a
// journal written under an older plan, or a record whose inner payload was
// spliced, must be recomputed, not merged.
func validateBlockFor(g Grid, p *Partial) error {
	if p.Lo < 0 || p.Hi > g.Span() || p.Lo >= p.Hi {
		return valid.Badf("cluster: partial block [%d, %d) out of [0, %d)", p.Lo, p.Hi, g.Span())
	}
	switch g.Kind {
	case KindCurve:
		if p.Curve == nil {
			return valid.Badf("cluster: partial [%d, %d) missing curve payload", p.Lo, p.Hi)
		}
		if p.Curve.SrcLo != p.Lo || p.Curve.SrcHi != p.Hi {
			return valid.Badf("cluster: partial [%d, %d) wraps curve block [%d, %d)", p.Lo, p.Hi, p.Curve.SrcLo, p.Curve.SrcHi)
		}
		if p.Curve.NSource != g.Protocol.NSource || p.Curve.K != len(g.Sizes) {
			return valid.Badf("cluster: partial [%d, %d) measured under NSource=%d K=%d, grid wants %d/%d",
				p.Lo, p.Hi, p.Curve.NSource, p.Curve.K, g.Protocol.NSource, len(g.Sizes))
		}
	case KindShared:
		if p.Shared == nil {
			return valid.Badf("cluster: partial [%d, %d) missing shared payload", p.Lo, p.Hi)
		}
		if p.Shared.SrcLo != p.Lo || p.Shared.SrcHi != p.Hi {
			return valid.Badf("cluster: partial [%d, %d) wraps shared block [%d, %d)", p.Lo, p.Hi, p.Shared.SrcLo, p.Shared.SrcHi)
		}
		if p.Shared.NSource != g.Protocol.NSource || p.Shared.K != len(g.Sizes) {
			return valid.Badf("cluster: partial [%d, %d) measured under NSource=%d K=%d, grid wants %d/%d",
				p.Lo, p.Hi, p.Shared.NSource, p.Shared.K, g.Protocol.NSource, len(g.Sizes))
		}
	case KindEnsemble:
		if p.Ensemble == nil {
			return valid.Badf("cluster: partial [%d, %d) missing ensemble payload", p.Lo, p.Hi)
		}
		if p.Ensemble.NetLo != p.Lo || p.Ensemble.NetHi != p.Hi {
			return valid.Badf("cluster: partial [%d, %d) wraps ensemble block [%d, %d)", p.Lo, p.Hi, p.Ensemble.NetLo, p.Ensemble.NetHi)
		}
		if p.Ensemble.NNetworks != g.NNetworks || len(p.Ensemble.PerNet) != p.Hi-p.Lo {
			return valid.Badf("cluster: partial [%d, %d) measured under NNetworks=%d with %d networks, grid wants %d/%d",
				p.Lo, p.Hi, p.Ensemble.NNetworks, len(p.Ensemble.PerNet), g.NNetworks, p.Hi-p.Lo)
		}
	}
	return nil
}
