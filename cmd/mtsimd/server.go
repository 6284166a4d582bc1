package main

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	mtreescale "mtreescale"
	"mtreescale/internal/chaos"
	"mtreescale/internal/serve"
)

// config holds every tunable of the daemon. Tests construct it directly;
// runDaemon fills it from flags.
type config struct {
	addr    string
	dataDir string

	// workerID names this worker in the X-Mtsimd-Worker response header, so
	// a cluster operator can tell which worker answered what. Empty means
	// the hostname (falling back to the listen address).
	workerID string

	maxActive int
	maxWait   int

	deadline        time.Duration
	deadlineCeiling time.Duration
	drainBudget     time.Duration
	shedRetryAfter  time.Duration

	maxHeap uint64

	// churnCap, when nonzero, overrides the profile's degree cap for the
	// churn experiments' bounded variant (≥ 2).
	churnCap int

	// churnSession, when set, overrides the profile's session-length
	// distribution for the churn experiments (exp|pareto|fixed).
	churnSession string

	quarBase time.Duration
	quarMax  time.Duration

	readHeaderTimeout time.Duration

	// shardToken, when set, gates POST /shard behind "Authorization:
	// Bearer <token>" (constant-time compare). Health and curve endpoints
	// stay open: liveness must be probeable, and /curve is the interactive
	// read path. Coordinators pass the token via mtctl -token.
	shardToken string

	// tlsCert/tlsKey, when both set, serve every endpoint over TLS;
	// coordinators reach the worker with mtctl -tls-ca pointed at the CA
	// that signed the certificate.
	tlsCert string
	tlsKey  string
}

func defaultConfig() config {
	active := runtime.GOMAXPROCS(0)
	return config{
		addr:              "127.0.0.1:8080",
		maxActive:         active,
		maxWait:           2 * active,
		deadline:          30 * time.Second,
		deadlineCeiling:   5 * time.Minute,
		drainBudget:       30 * time.Second,
		shedRetryAfter:    time.Second,
		quarBase:          10 * time.Second,
		quarMax:           5 * time.Minute,
		readHeaderTimeout: 5 * time.Second,
	}
}

// cacheKey identifies one precomputed curve: the profile's checkpoint key
// plus the experiment id.
type cacheKey struct {
	profile string
	id      string
}

// resultEntry is a served result: the marshaled Result bytes (written to the
// wire verbatim, so a replayed answer is byte-identical to the fresh one)
// plus where they came from.
type resultEntry struct {
	body   []byte
	source string // "fresh" | "cache" | "checkpoint"
}

// server is the mtsimd serving state: the admission queue bounding the
// compute pool, the drain controller, the quarantine registry shared with
// the experiment scheduler, and the result cache backed by the checkpoint
// journal.
type server struct {
	cfg  config
	logf func(format string, args ...any)

	queue *serve.Queue
	drain *serve.Drainer
	quar  *serve.Quarantine

	// baseCtx is cancelled when the drain budget expires, aborting any
	// in-flight computation that outlived the graceful window.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu     sync.Mutex
	cache  map[cacheKey]resultEntry
	ck     *mtreescale.Checkpointer
	closed bool
}

func newServer(cfg config, logf func(format string, args ...any)) (*server, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.workerID == "" {
		if host, err := os.Hostname(); err == nil && host != "" {
			cfg.workerID = host
		} else {
			cfg.workerID = cfg.addr
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{
		cfg:        cfg,
		logf:       logf,
		queue:      serve.NewQueue(cfg.maxActive, cfg.maxWait),
		drain:      &serve.Drainer{},
		quar:       serve.NewQuarantine(cfg.quarBase, cfg.quarMax),
		baseCtx:    ctx,
		cancelBase: cancel,
		cache:      map[cacheKey]resultEntry{},
	}
	if cfg.dataDir == "" {
		return s, nil
	}
	all, err := mtreescale.LoadAllCheckpoints(cfg.dataDir)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("loading checkpoints: %w", err)
	}
	n := 0
	for profile, results := range all {
		for id, res := range results {
			body, err := json.Marshal(res)
			if err != nil {
				continue
			}
			s.cache[cacheKey{profile, id}] = resultEntry{body, "checkpoint"}
			n++
		}
	}
	ck, err := mtreescale.NewCheckpointer(cfg.dataDir, true)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("opening checkpoint journal: %w", err)
	}
	s.ck = ck
	if n > 0 {
		logf("mtsimd: loaded %d precomputed results from %s", n, cfg.dataDir)
	}
	return s, nil
}

// close cancels any in-flight computation and flushes the checkpoint
// journal. Safe to call more than once; only the first call reports the
// flush error.
func (s *server) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.cancelBase()
	if s.ck != nil {
		return s.ck.Close()
	}
	return nil
}

// handler assembles the route table. Every route sits under the panic
// Recoverer and the worker-identity header; only /curve and /shard pay the
// admission and deadline machinery — and the chaos failpoint middleware, so
// an injected fault schedule never takes down the health endpoints a
// coordinator's eviction logic depends on.
func (s *server) handler() http.Handler {
	faulty := func(h http.HandlerFunc) http.Handler {
		return serve.WithRequestDeadline(s.cfg.deadline, s.cfg.deadlineCeiling, serve.ChaosFaults(h))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /experiments", s.handleExperiments)
	mux.Handle("GET /curve", faulty(s.handleCurve))
	mux.Handle("POST "+mtreescale.ClusterShardPath, faulty(s.handleShard))
	return serve.Recoverer(s.onIncident, s.identify(mux))
}

// identify stamps every response with this worker's id, so cluster
// coordinators and operators can attribute answers to workers.
func (s *server) identify(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Mtsimd-Worker", s.cfg.workerID)
		next.ServeHTTP(w, r)
	})
}

func (s *server) onIncident(id string, pe *mtreescale.PanicError) {
	s.logf("mtsimd: incident %s: %v", id, pe)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	qs := s.queue.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"draining":    s.drain.Draining(),
		"inflight":    s.drain.Inflight(),
		"active":      qs.Active,
		"waiting":     qs.Waiting,
		"admitted":    qs.Admitted,
		"shed":        qs.Shed,
		"quarantined": s.quar.Len(),
	})
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.drain.Draining() {
		serve.WriteJSONError(w, http.StatusServiceUnavailable, "draining", 0)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"experiments": mtreescale.ListExperiments(),
		"profiles":    []string{"paper", "medium", "quick"},
		"quarantined": s.quar.Snapshot(),
	})
}

// handleCurve serves one experiment result:
//
//	validate → cache fast path (degraded reads) → quarantine gate →
//	drain gate → admission queue → compute under the request deadline →
//	cache + checkpoint.
func (s *server) handleCurve(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("experiment")
	if id == "" {
		serve.WriteJSONError(w, http.StatusBadRequest, "missing experiment parameter", 0)
		return
	}
	profName := r.URL.Query().Get("profile")
	if profName == "" {
		profName = "quick"
	}
	p, err := mtreescale.ProfileByName(profName)
	if err != nil {
		serve.WriteJSONError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if s.cfg.churnCap != 0 {
		p.ChurnCap = s.cfg.churnCap
	}
	if s.cfg.churnSession != "" {
		p.ChurnSession = s.cfg.churnSession
	}
	if !knownExperiment(id) {
		serve.WriteJSONError(w, http.StatusNotFound, fmt.Sprintf("unknown experiment %q (see /experiments)", id), 0)
		return
	}
	key := cacheKey{mtreescale.ProfileKey(p), id}

	// Fast path: a precomputed result — from this process or the checkpoint
	// journal — is served without touching the compute pool. This is the
	// degraded mode: cached reads keep answering while the pool is
	// saturated or the experiment is quarantined.
	if ent, ok := s.cached(key); ok {
		s.serveResult(w, ent, s.degradedReason(id))
		return
	}

	if ok, retry := s.quar.Allowed(id); !ok {
		serve.WriteJSONError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("experiment %s is quarantined", id), retry)
		return
	}

	exit, err := s.drain.Enter()
	if err != nil {
		w.Header().Set("Connection", "close")
		serve.WriteJSONError(w, http.StatusServiceUnavailable, "draining", 0)
		return
	}
	defer exit()

	release, err := s.queue.Acquire(r.Context())
	if errors.Is(err, serve.ErrSaturated) {
		serve.WriteJSONError(w, http.StatusTooManyRequests, "compute pool saturated", s.cfg.shedRetryAfter)
		return
	}
	if err != nil {
		// The client's context ended while queued; nobody is listening, but
		// finish the exchange cleanly.
		serve.WriteJSONError(w, http.StatusServiceUnavailable, "request abandoned while queued", 0)
		return
	}
	defer release()

	// The computation obeys both the request deadline (already on
	// r.Context via the middleware) and the drain-budget cancellation.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopAfter := context.AfterFunc(s.baseCtx, cancel)
	defer stopAfter()

	stats, err := mtreescale.RunExperimentsCtx(ctx, []string{id}, p, mtreescale.ScheduleOptions{
		Parallel:     1,
		MaxHeapBytes: s.cfg.maxHeap,
		Quarantine:   s.quar,
	})
	if len(stats) != 1 {
		serve.WriteJSONError(w, http.StatusInternalServerError, fmt.Sprintf("schedule failed: %v", err), 0)
		return
	}
	st := stats[0]
	if st.Err != nil {
		s.writeComputeError(w, r, id, st.Err)
		return
	}
	body, err := json.Marshal(st.Result)
	if err != nil {
		serve.WriteJSONError(w, http.StatusInternalServerError, "encoding result failed", 0)
		return
	}
	s.store(key, body, st.Result)
	s.serveResult(w, resultEntry{body, "fresh"}, "")
}

// handleShard executes one cluster shard:
//
//	decode + validate → quarantine gate → drain gate → admission queue →
//	compute under the request deadline → partial JSON.
//
// The endpoint shares /curve's whole robustness substrate — the same
// admission queue (so a coordinator's fan-out and interactive /curve load
// are bounded together), the same drain and deadline machinery, and the
// same quarantine registry, keyed per shard block so a poison shard is
// refused with backoff while its siblings keep computing.
func (s *server) handleShard(w http.ResponseWriter, r *http.Request) {
	// The auth gate comes first: an unauthenticated coordinator learns
	// nothing about the worker's load or quarantine state, and a 401 is a
	// permanent (4xx) verdict on its side — misconfiguration must fail fast,
	// not burn the shard's retry budget.
	if s.cfg.shardToken != "" {
		want := "Bearer " + s.cfg.shardToken
		got := r.Header.Get("Authorization")
		if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="mtsimd"`)
			serve.WriteJSONError(w, http.StatusUnauthorized, "missing or invalid bearer token", 0)
			return
		}
	}
	var spec mtreescale.ClusterShardSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		serve.WriteJSONError(w, http.StatusBadRequest, "malformed shard spec: "+err.Error(), 0)
		return
	}
	if err := spec.Validate(); err != nil {
		serve.WriteJSONError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	qkey := fmt.Sprintf("shard:%.12s:%d-%d", spec.Grid.Key(), spec.Lo, spec.Hi)

	if ok, retry := s.quar.Allowed(qkey); !ok {
		serve.WriteJSONError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("shard [%d, %d) is quarantined", spec.Lo, spec.Hi), retry)
		return
	}

	exit, err := s.drain.Enter()
	if err != nil {
		w.Header().Set("Connection", "close")
		serve.WriteJSONError(w, http.StatusServiceUnavailable, "draining", 0)
		return
	}
	defer exit()

	release, err := s.queue.Acquire(r.Context())
	if errors.Is(err, serve.ErrSaturated) {
		serve.WriteJSONError(w, http.StatusTooManyRequests, "compute pool saturated", s.cfg.shedRetryAfter)
		return
	}
	if err != nil {
		serve.WriteJSONError(w, http.StatusServiceUnavailable, "request abandoned while queued", 0)
		return
	}
	defer release()

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopAfter := context.AfterFunc(s.baseCtx, cancel)
	defer stopAfter()

	var p *mtreescale.ClusterPartial
	err = mtreescale.CallSafe(func() error {
		var cerr error
		p, cerr = mtreescale.ExecuteClusterShard(ctx, spec)
		return cerr
	})
	if err != nil {
		var pe *mtreescale.PanicError
		if errors.As(err, &pe) {
			s.quar.Report(qkey, err)
		}
		s.writeComputeError(w, r, qkey, err)
		return
	}
	body, err := json.Marshal(p)
	if err != nil {
		serve.WriteJSONError(w, http.StatusInternalServerError, "encoding partial failed", 0)
		return
	}
	body = append(body, '\n')
	// Failpoint "shard.payload": corrupt or tear the partial on the wire.
	// The coordinator's seal verification must catch it and requeue.
	body, err = chaos.Write("shard.payload", body)
	if err != nil {
		serve.WriteJSONError(w, http.StatusInternalServerError, err.Error(), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// writeComputeError maps a scheduler failure onto the HTTP boundary. The
// quarantine registry has already been struck for dangerous failures by the
// scheduler itself.
func (s *server) writeComputeError(w http.ResponseWriter, r *http.Request, id string, cerr error) {
	var pe *mtreescale.PanicError
	switch {
	case errors.As(cerr, &pe):
		// Opaque on the wire, full stack in the log.
		incident := serve.NewIncidentID()
		s.logf("mtsimd: incident %s: experiment %s panicked: %v", incident, id, pe)
		serve.WriteJSONError(w, http.StatusInternalServerError, "internal error (incident "+incident+")", 0)
	case errors.Is(cerr, mtreescale.ErrHeapLimit), errors.Is(cerr, mtreescale.ErrQuarantined):
		_, retry := s.quar.Allowed(id)
		serve.WriteJSONError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("experiment %s refused: %v", id, cerr), retry)
	case errors.Is(cerr, context.DeadlineExceeded):
		serve.WriteJSONError(w, http.StatusGatewayTimeout,
			fmt.Sprintf("deadline exceeded (budget %s; raise with ?deadline=)", serve.RequestBudget(r.Context())), 0)
	case errors.Is(cerr, context.Canceled):
		w.Header().Set("Connection", "close")
		serve.WriteJSONError(w, http.StatusServiceUnavailable, "computation cancelled", 0)
	case errors.Is(cerr, mtreescale.ErrInvalidParam):
		serve.WriteJSONError(w, http.StatusBadRequest, cerr.Error(), 0)
	default:
		serve.WriteJSONError(w, http.StatusInternalServerError, "experiment failed: "+cerr.Error(), 0)
	}
}

func (s *server) cached(key cacheKey) (resultEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.cache[key]
	return ent, ok
}

// store caches a fresh result and journals it. The journal write is fsynced
// per record, so a kill at any later moment cannot tear it.
func (s *server) store(key cacheKey, body []byte, res *mtreescale.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cache[key]; ok {
		return
	}
	s.cache[key] = resultEntry{body, "cache"}
	if s.ck != nil && !s.closed {
		s.ck.Append(key.profile, key.id, res)
	}
}

// degradedReason reports why a cached read is standing in for a fresh
// computation: "" when the pool could have computed it right now.
func (s *server) degradedReason(id string) string {
	if ok, _ := s.quar.Allowed(id); !ok {
		return "quarantined"
	}
	if s.drain.Draining() {
		return "draining"
	}
	qs := s.queue.Stats()
	if qs.Active >= qs.MaxActive && qs.Waiting >= qs.MaxWait {
		return "saturated"
	}
	return ""
}

func (s *server) serveResult(w http.ResponseWriter, ent resultEntry, degraded string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Mtsimd-Source", ent.source)
	if degraded != "" {
		w.Header().Set("X-Mtsimd-Degraded", degraded)
	}
	_, _ = w.Write(ent.body)
}

func knownExperiment(id string) bool {
	for _, info := range mtreescale.ListExperiments() {
		if info.ID == id {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
