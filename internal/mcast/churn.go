// churn.go implements the dynamic-membership workload on top of DynTree:
// receivers arrive as a Poisson process and stay for a random session, so
// the engine measures the steady-state tree cost L(m̄) the way production
// multicast pays it — as a stream of O(path) join/leave deltas, never as a
// from-scratch rebuild (the push-pull regime of arXiv 1210.3187).
//
// Event model: arrivals are Poisson with rate λ = m̄/E[S], each arrival
// draws a uniform receiver site (the source site excluded, matching the
// static protocol) and a session length S from the configured distribution,
// and departs when the session expires. By Little's law the mean number of
// active sessions settles at λ·E[S] = m̄, so TargetMembers is both the
// configuration knob and the steady-state operating point. The first
// WarmupEvents events fill the tree from empty and are discarded; the next
// Events events are measured with time-weighted averages (each inter-event
// gap dt contributes L·dt), so the reported MeanLinks is the fraction of
// time-integrated tree cost, not a per-event snapshot average.
//
// Everything except EventsPerSec (wall clock) is a pure function of
// (graph, config, protocol): sites, sessions and arrival gaps come from the
// per-source rng.NewChild streams and per-source results reduce in source
// order, exactly like the static engines.
package mcast

import (
	"context"
	"math"
	"sync"
	"time"

	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
	"mtreescale/internal/valid"
)

// SessionDist selects the churn session-length distribution.
type SessionDist int

const (
	// SessionExp draws exponential sessions (memoryless; the M/M/∞ model).
	SessionExp SessionDist = iota
	// SessionPareto draws heavy-tailed Pareto sessions with shape
	// ParetoAlpha (> 1 so the mean exists), scaled to mean MeanSession —
	// the empirically observed session shape in P2P membership traces.
	SessionPareto
	// SessionFixed pins every session to exactly MeanSession.
	SessionFixed
)

// String returns the CLI spelling of the distribution.
func (d SessionDist) String() string {
	switch d {
	case SessionPareto:
		return "pareto"
	case SessionFixed:
		return "fixed"
	default:
		return "exp"
	}
}

// ParseSessionDist parses a -churn-session flag value.
func ParseSessionDist(s string) (SessionDist, error) {
	switch s {
	case "exp", "":
		return SessionExp, nil
	case "pareto":
		return SessionPareto, nil
	case "fixed":
		return SessionFixed, nil
	}
	return 0, valid.Badf("mcast: unknown session distribution %q (want exp, pareto or fixed)", s)
}

// ChurnVariant selects which delivery tree the churn events maintain.
type ChurnVariant int

const (
	// ChurnSPT maintains the paper's source-rooted shortest-path tree.
	ChurnSPT ChurnVariant = iota
	// ChurnShared maintains a core-rooted shared tree (the source joins as
	// a permanent member, receivers graft toward the core).
	ChurnShared
	// ChurnBounded maintains the bounded-node-degree tree of arXiv
	// 0906.0379: grafts respect a per-node degree cap via BFS repair.
	ChurnBounded
)

// String returns the variant's report label.
func (v ChurnVariant) String() string {
	switch v {
	case ChurnShared:
		return "shared"
	case ChurnBounded:
		return "bounded"
	default:
		return "spt"
	}
}

// ChurnConfig parameterizes one churn workload.
type ChurnConfig struct {
	// Variant selects the maintained tree (SPT, shared, bounded-degree).
	Variant ChurnVariant
	// TargetMembers is m̄, the steady-state mean membership.
	TargetMembers int
	// MeanSession is E[S]; 0 defaults to 1 (time units are arbitrary —
	// only the λ·E[S] product is observable).
	MeanSession float64
	// Session is the session-length distribution.
	Session SessionDist
	// ParetoAlpha is the Pareto shape (> 1); 0 defaults to 1.5.
	ParetoAlpha float64
	// DegreeCap bounds tree degrees for ChurnBounded (≥ 2; 0 defaults
	// to 4). Ignored by the other variants.
	DegreeCap int
	// Core places the shared variant's core (default CoreRandom, matching
	// MeasureSharedCurve). Ignored by the other variants.
	Core CoreStrategy
	// WarmupEvents fills the tree from empty before measurement starts;
	// 0 defaults to 10·TargetMembers + 100, comfortably past the ~m̄
	// arrivals needed to reach the operating point.
	WarmupEvents int
	// Events is the measured event count; 0 defaults to 20·TargetMembers
	// + 200.
	Events int
	// SelfCheckEvery > 0 re-verifies the incremental state against a
	// from-scratch rebuild every that many events (DynTree.SelfCheck).
	// Testing hook: O(N) per check, never set on production runs.
	SelfCheckEvery int
}

// withDefaults fills the zero-value knobs.
func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.MeanSession == 0 {
		c.MeanSession = 1
	}
	if c.ParetoAlpha == 0 {
		c.ParetoAlpha = 1.5
	}
	if c.Variant == ChurnBounded && c.DegreeCap == 0 {
		c.DegreeCap = 4
	}
	if c.WarmupEvents == 0 {
		c.WarmupEvents = 10*c.TargetMembers + 100
	}
	if c.Events == 0 {
		c.Events = 20*c.TargetMembers + 200
	}
	return c
}

// Validate checks the configuration. Failures wrap valid.ErrParam.
func (c ChurnConfig) Validate() error {
	if c.Variant < ChurnSPT || c.Variant > ChurnBounded {
		return valid.Badf("mcast: unknown churn variant %d", c.Variant)
	}
	if c.TargetMembers <= 0 {
		return valid.Badf("mcast: churn needs TargetMembers > 0 (got %d)", c.TargetMembers)
	}
	if c.MeanSession < 0 {
		return valid.Badf("mcast: negative mean session %g", c.MeanSession)
	}
	if c.Session < SessionExp || c.Session > SessionFixed {
		return valid.Badf("mcast: unknown session distribution %d", c.Session)
	}
	if c.Session == SessionPareto && c.ParetoAlpha != 0 && c.ParetoAlpha <= 1 {
		return valid.Badf("mcast: Pareto shape %g must exceed 1 for a finite mean session", c.ParetoAlpha)
	}
	if c.DegreeCap != 0 && c.DegreeCap < 2 {
		return valid.Badf("mcast: degree cap %d must be 0 (default) or ≥ 2", c.DegreeCap)
	}
	if c.WarmupEvents < 0 || c.Events < 0 || c.SelfCheckEvery < 0 {
		return valid.Badf("mcast: negative event counts in churn config")
	}
	return nil
}

// ChurnResult aggregates one churn run over the protocol's sources. All
// fields except EventsPerSec are deterministic for a (graph, config,
// protocol) triple.
type ChurnResult struct {
	// Variant echoes the configured tree variant.
	Variant ChurnVariant `json:"variant"`
	// TargetMembers echoes m̄.
	TargetMembers int `json:"target_members"`
	// Sources is the number of source simulations that contributed.
	Sources int `json:"sources"`
	// Events is the total measured event count across sources.
	Events int64 `json:"events"`
	// Joins/Leaves/DupJoins break the measured events down. A DupJoin is
	// an arrival at a site that is already a member (counted in Joins too).
	Joins    int64 `json:"joins"`
	Leaves   int64 `json:"leaves"`
	DupJoins int64 `json:"dup_joins"`
	// MeanLinks is the time-weighted steady-state tree size L(m̄).
	MeanLinks float64 `json:"mean_links"`
	// MeanMembers is the time-weighted distinct membership — the PASTA
	// sanity check that the process actually operates at m̄.
	MeanMembers float64 `json:"mean_members"`
	// MeanRepair is the average number of links grafted or pruned per
	// event — the O(path) repair cost the incremental engine pays where a
	// rebuild would pay O(L).
	MeanRepair float64 `json:"mean_repair"`
	// MaxDegree is the largest tree degree observed anywhere in the run;
	// MeanMaxDegree averages the per-source maxima (degree pressure).
	MaxDegree     int     `json:"max_degree"`
	MeanMaxDegree float64 `json:"mean_max_degree"`
	// Forced counts bounded-variant grafts that had to exceed the cap.
	Forced int64 `json:"forced"`
	// EventsPerSec is the measured per-worker event throughput. Wall
	// clock: excluded from deterministic outputs (experiment figures).
	EventsPerSec float64 `json:"events_per_sec"`
	// Err records ctx.Err() when the run was cancelled mid-churn and the
	// remaining fields are a valid partial report (completed sources plus
	// every measured event of interrupted ones).
	Err string `json:"err,omitempty"`
}

// churnSlot is one source's accumulator. Distinct sources never share a
// slot, so workers need no locking; the reducer walks slots in source order.
type churnSlot struct {
	events, joins, leaves, dups int64
	repair                      int64   // Σ |links grafted or pruned|
	linkTime, memTime, span     float64 // ∫L dt, ∫members dt, Σ dt
	maxDeg                      int
	forced                      int64
	wallSec                     float64
	started                     bool // entered the measured window
}

// churnSim drives one tree through the Poisson join/leave process. It is
// shared by the engine and the BenchmarkChurn* suite so benchmarks measure
// exactly the production event path.
type churnSim struct {
	tree        *DynTree
	r           *rng.Rand
	cfg         ChurnConfig
	n           int
	exclude     int32 // site never drawn as a receiver (-1: none)
	now         float64
	nextArrival float64
	arrivalMean float64
	ht          []float64 // departure min-heap: times …
	hv          []int32   // … and sites
}

// initSim arms the process at t = 0 with an empty tree. Heap storage is
// pre-sized to 2·m̄ (the active-session count concentrates at m̄ by Little's
// law), so the steady-state event path performs no allocation.
func (s *churnSim) initSim(tree *DynTree, r *rng.Rand, cfg ChurnConfig, n int, exclude int32) {
	s.tree, s.r, s.cfg, s.n, s.exclude = tree, r, cfg, n, exclude
	s.now = 0
	s.arrivalMean = cfg.MeanSession / float64(cfg.TargetMembers)
	s.nextArrival = expDraw(r, s.arrivalMean)
	hint := 2*cfg.TargetMembers + 64
	s.ht, s.hv = grow(s.ht, hint)[:0], grow(s.hv, hint)[:0]
}

// churnEvent reports what one simulation step did.
type churnEvent struct {
	dt            float64 // time since the previous event
	linksBefore   int     // tree size the system held for dt
	membersBefore int
	delta         int // links grafted (join) or pruned (leave)
	join          bool
	dup           bool
}

// step advances the process by one event: whichever of the next arrival or
// the earliest departure comes first.
func (s *churnSim) step() churnEvent {
	ev := churnEvent{linksBefore: s.tree.Links(), membersBefore: s.tree.Members()}
	if len(s.ht) > 0 && s.ht[0] <= s.nextArrival {
		tm := s.ht[0]
		site := s.hv[0]
		s.popDep()
		ev.dt = tm - s.now
		s.now = tm
		ev.delta = s.tree.Leave(site)
		return ev
	}
	ev.dt = s.nextArrival - s.now
	s.now = s.nextArrival
	site := s.drawSite()
	ev.join = true
	ev.dup = s.tree.MemberCount(site) > 0
	ev.delta = s.tree.Join(site)
	if s.tree.MemberCount(site) > 0 {
		// Reachable (the join registered): this instance departs when its
		// session expires. Unreachable sites never become members and get
		// no departure.
		s.pushDep(s.now+s.sessionDraw(), site)
	}
	s.nextArrival = s.now + expDraw(s.r, s.arrivalMean)
	return ev
}

// drawSite draws a uniform receiver site, skipping the excluded source.
func (s *churnSim) drawSite() int32 {
	if s.exclude < 0 {
		return int32(s.r.Intn(s.n))
	}
	v := int32(s.r.Intn(s.n - 1))
	if v >= s.exclude {
		v++
	}
	return v
}

// sessionDraw draws one session length from the configured distribution.
func (s *churnSim) sessionDraw() float64 {
	switch s.cfg.Session {
	case SessionPareto:
		a := s.cfg.ParetoAlpha
		xm := s.cfg.MeanSession * (a - 1) / a
		return xm * math.Pow(1-s.r.Float64(), -1/a)
	case SessionFixed:
		return s.cfg.MeanSession
	default:
		return expDraw(s.r, s.cfg.MeanSession)
	}
}

// expDraw draws Exp(mean) by inversion. r.Float64 ∈ [0,1) keeps the log
// argument in (0,1].
func expDraw(r *rng.Rand, mean float64) float64 {
	return -mean * math.Log(1-r.Float64())
}

// pushDep pushes a (time, site) departure onto the min-heap.
func (s *churnSim) pushDep(tm float64, site int32) {
	s.ht = append(s.ht, tm)
	s.hv = append(s.hv, site)
	i := len(s.ht) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.ht[p] <= s.ht[i] {
			break
		}
		s.ht[p], s.ht[i] = s.ht[i], s.ht[p]
		s.hv[p], s.hv[i] = s.hv[i], s.hv[p]
		i = p
	}
}

// popDep removes the earliest departure.
func (s *churnSim) popDep() {
	last := len(s.ht) - 1
	s.ht[0], s.hv[0] = s.ht[last], s.hv[last]
	s.ht, s.hv = s.ht[:last], s.hv[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && s.ht[l] < s.ht[small] {
			small = l
		}
		if r < last && s.ht[r] < s.ht[small] {
			small = r
		}
		if small == i {
			return
		}
		s.ht[i], s.ht[small] = s.ht[small], s.ht[i]
		s.hv[i], s.hv[small] = s.hv[small], s.hv[i]
		i = small
	}
}

// churnScratch is the pooled per-worker state of the churn engine: the tree
// buffer, the incremental tree, the departure heap and the self-check
// counter.
type churnScratch struct {
	spt     graph.SPT // written only past the sweep's slab cap
	tree    DynTree
	sim     churnSim
	counter TreeCounter // self-check path only
}

var churnPool = sync.Pool{New: func() any { return new(churnScratch) }}

// MeasureChurn runs the churn workload without cancellation.
func MeasureChurn(g *graph.Graph, cfg ChurnConfig, p Protocol) (*ChurnResult, error) {
	return MeasureChurnCtx(context.Background(), g, cfg, p)
}

// MeasureChurnCtx runs the churn workload over the protocol's NSource
// deterministic source draws (NRcvr is not used — churn replaces the
// receiver-set repetition axis with the event stream). Each source runs an
// independent Poisson join/leave process on its own tree; per-source
// accumulators reduce in source order, so every field except EventsPerSec
// is deterministic for a (graph, config, protocol) triple.
//
// Cancellation follows the grid-point-granularity contract, adapted to
// events: ctx is polled every 64 events, and — unlike the static engines,
// which return nil on cancellation — a cancelled churn run returns BOTH a
// valid partial ChurnResult (completed sources plus every measured event of
// interrupted ones, with Err recording ctx.Err()) AND the ctx error, so
// callers can distinguish a whole report from a truncated one without
// losing the measurements already paid for.
func MeasureChurnCtx(ctx context.Context, g *graph.Graph, cfg ChurnConfig, p Protocol) (*ChurnResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.N() < 2 {
		return nil, valid.Badf("mcast: graph too small for churn (N=%d)", g.N())
	}
	cfg = cfg.withDefaults()
	var sources, roots []int
	if cfg.Variant == ChurnShared {
		s, c, err := drawSharedPairs(g, cfg.Core, p)
		if err != nil {
			return nil, err
		}
		sources, roots = s, c
	} else {
		sources = drawSources(g, p)
		roots = sources
	}
	trees, err := graph.SweepSPTs(g, roots, p.sptCache())
	if err != nil {
		return nil, err
	}
	defer trees.Release()
	slots := make([]churnSlot, p.NSource)
	runErr := runWorkersN(ctx, p.EffectiveWorkers(), p.NSource, func(si int) error {
		return churnOneSource(ctx, g, cfg, p, si, sources[si], trees, &slots[si])
	})
	if runErr != nil && runErr != context.Canceled && runErr != context.DeadlineExceeded {
		return nil, runErr
	}
	res := reduceChurnSlots(cfg, slots)
	if runErr != nil {
		res.Err = runErr.Error()
	}
	return res, runErr
}

// churnOneSource runs one source's event stream, filling slot. On
// cancellation it leaves the measured-so-far sums in the slot and returns
// the ctx error, so the reducer can still fold the partial window in.
func churnOneSource(ctx context.Context, g *graph.Graph, cfg ChurnConfig, p Protocol, si, source int, trees *graph.SweepTrees, slot *churnSlot) error {
	sc := churnPool.Get().(*churnScratch)
	defer churnPool.Put(sc)
	spt, err := trees.Tree(si, &sc.spt)
	if err != nil {
		return err
	}
	degCap := 0
	if cfg.Variant == ChurnBounded {
		degCap = cfg.DegreeCap
	}
	if err := sc.tree.Reset(g, spt, degCap); err != nil {
		return err
	}
	if cfg.Variant == ChurnShared {
		// The source is a permanent member of its core-rooted tree: the
		// measured L includes the source→core branch, matching
		// SharedTreeSize's accounting.
		sc.tree.Join(int32(source))
	}
	sc.sim.initSim(&sc.tree, rng.NewChild(p.Seed, int64(si)), cfg, g.N(), int32(source))
	warm, total := cfg.WarmupEvents, cfg.WarmupEvents+cfg.Events
	var st churnSlot
	var wallStart time.Time
	finish := func() {
		st.maxDeg = sc.tree.MaxDegree()
		st.forced = sc.tree.Forced()
		if st.started {
			st.wallSec = time.Since(wallStart).Seconds()
		}
		*slot = st
	}
	for e := 0; e < total; e++ {
		if e&63 == 0 {
			if err := ctx.Err(); err != nil {
				finish()
				return err
			}
		}
		if e == warm {
			st.started = true
			wallStart = time.Now()
		}
		ev := sc.sim.step()
		if e >= warm {
			st.events++
			st.span += ev.dt
			st.linkTime += float64(ev.linksBefore) * ev.dt
			st.memTime += float64(ev.membersBefore) * ev.dt
			st.repair += int64(ev.delta)
			if ev.join {
				st.joins++
				if ev.dup {
					st.dups++
				}
			} else {
				st.leaves++
			}
		}
		if cfg.SelfCheckEvery > 0 && (e+1)%cfg.SelfCheckEvery == 0 {
			if err := sc.tree.SelfCheck(&sc.counter); err != nil {
				return err
			}
		}
	}
	finish()
	return nil
}

// reduceChurnSlots folds the per-source accumulators in source order.
func reduceChurnSlots(cfg ChurnConfig, slots []churnSlot) *ChurnResult {
	res := &ChurnResult{Variant: cfg.Variant, TargetMembers: cfg.TargetMembers}
	var wall, maxSum float64
	for i := range slots {
		st := &slots[i]
		if st.events == 0 && st.span == 0 {
			continue
		}
		res.Sources++
		res.Events += st.events
		res.Joins += st.joins
		res.Leaves += st.leaves
		res.DupJoins += st.dups
		res.MeanLinks += st.linkTime
		res.MeanMembers += st.memTime
		res.MeanRepair += float64(st.repair)
		res.Forced += st.forced
		if st.maxDeg > res.MaxDegree {
			res.MaxDegree = st.maxDeg
		}
		maxSum += float64(st.maxDeg)
		wall += st.wallSec
	}
	var span float64
	for i := range slots {
		span += slots[i].span
	}
	if span > 0 {
		res.MeanLinks /= span
		res.MeanMembers /= span
	} else {
		res.MeanLinks, res.MeanMembers = 0, 0
	}
	if res.Events > 0 {
		res.MeanRepair /= float64(res.Events)
	} else {
		res.MeanRepair = 0
	}
	if res.Sources > 0 {
		res.MeanMaxDegree = maxSum / float64(res.Sources)
	}
	if wall > 0 {
		res.EventsPerSec = float64(res.Events) / wall
	}
	return res
}
