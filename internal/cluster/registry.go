package cluster

import (
	"bufio"
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"mtreescale/internal/chaos"
	"mtreescale/internal/serve"
	"mtreescale/internal/valid"
)

// RegisterPath is the registrar endpoint workers announce themselves to
// (POST, JSON body {"url": "http://host:port"}).
const RegisterPath = "/register"

// MemberEvent is one membership transition: Kind "join" when a worker is
// admitted (first announcement, or re-announcement after its lease
// expired), "leave" when its lease expires unrenewed.
type MemberEvent struct {
	Kind   string
	Worker string
}

// Registry is a lease-based worker membership table. Workers enter by
// announcement — their own POST /register, or the coordinator's -discover
// polling — and stay members while their TTL lease keeps being renewed;
// the coordinator's /healthz heartbeats renew the lease of every worker
// that answers, so a worker that stops answering ages out and is retired.
// Static members (the classic -workers list) hold permanent leases: they
// can be evicted by heartbeats but never retired by the sweep, so
// a fixed fleet behaves exactly as it did before registries existed.
//
// All methods are safe for concurrent use. Watchers are invoked
// synchronously, outside the registry lock, in the goroutine that caused
// the transition.
type Registry struct {
	mu       sync.Mutex
	ttl      time.Duration
	now      func() time.Time
	members  map[string]*member
	watchers map[int]func(MemberEvent)
	nextID   int
}

type member struct {
	static  bool
	expires time.Time
}

// DefaultLeaseTTL is the lease length used when none is configured: long
// enough that several consecutive missed heartbeats precede retirement.
const DefaultLeaseTTL = 15 * time.Second

// NewRegistry builds a registry with the given lease TTL (non-positive
// means DefaultLeaseTTL) whose static members never expire.
func NewRegistry(ttl time.Duration, static []string) *Registry {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	r := &Registry{
		ttl:      ttl,
		now:      time.Now,
		members:  map[string]*member{},
		watchers: map[int]func(MemberEvent){},
	}
	for _, w := range static {
		r.members[w] = &member{static: true}
	}
	return r
}

// AddStatic admits workers as static members (permanent leases). Workers
// already present are promoted to static.
func (r *Registry) AddStatic(workers ...string) {
	var joined []MemberEvent
	r.mu.Lock()
	for _, w := range workers {
		m := r.members[w]
		if m == nil {
			r.members[w] = &member{static: true}
			joined = append(joined, MemberEvent{Kind: "join", Worker: w})
			continue
		}
		m.static = true
	}
	r.mu.Unlock()
	r.notify(joined)
}

// SetClock replaces the registry's time source; nil restores the real
// clock. Tests drive lease expiry without sleeping.
func (r *Registry) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	r.now = now
}

// Watch registers fn for membership transitions and returns an
// unsubscribe function. fn runs synchronously in the goroutine that
// caused the transition, after the registry lock is released.
func (r *Registry) Watch(fn func(MemberEvent)) (cancel func()) {
	r.mu.Lock()
	id := r.nextID
	r.nextID++
	r.watchers[id] = fn
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		delete(r.watchers, id)
		r.mu.Unlock()
	}
}

// notify fans events out to the watchers subscribed at call time.
func (r *Registry) notify(events []MemberEvent) {
	if len(events) == 0 {
		return
	}
	r.mu.Lock()
	fns := make([]func(MemberEvent), 0, len(r.watchers))
	for _, fn := range r.watchers {
		fns = append(fns, fn)
	}
	r.mu.Unlock()
	for _, ev := range events {
		for _, fn := range fns {
			fn(ev)
		}
	}
}

// Announce admits worker (or renews its lease if already a member) and
// reports whether this announcement was a join. Worker URLs must parse
// and carry an http or https scheme — the registrar is an open write
// endpoint modulo its bearer token, and a garbage URL would wedge a
// dispatch slot.
//
// Failpoint "registry.announce": an injected error refuses the
// announcement, modeling a dropped or corrupted registration.
func (r *Registry) Announce(worker string) (joined bool, err error) {
	u, err := url.Parse(worker)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return false, valid.Badf("cluster: registry: bad worker URL %q", worker)
	}
	if err := chaos.Maybe("registry.announce"); err != nil {
		return false, fmt.Errorf("cluster: registry: announce %s: %w", worker, err)
	}
	r.mu.Lock()
	m := r.members[worker]
	if m == nil {
		m = &member{}
		r.members[worker] = m
		joined = true
	}
	if !m.static {
		m.expires = r.now().Add(r.ttl)
	}
	r.mu.Unlock()
	if joined {
		r.notify([]MemberEvent{{Kind: "join", Worker: worker}})
	}
	return joined, nil
}

// Renew extends worker's lease — the heartbeat loop calls it on every
// successful /healthz probe. Renewing a non-member or static member is a
// no-op: renewal keeps members alive, it does not admit new ones.
//
// Failpoint "registry.lease": an injected error drops the renewal, so the
// lease keeps aging toward expiry exactly as if the heartbeat had been
// lost on the wire.
func (r *Registry) Renew(worker string) error {
	if err := chaos.Maybe("registry.lease"); err != nil {
		return fmt.Errorf("cluster: registry: lease renewal for %s: %w", worker, err)
	}
	r.mu.Lock()
	if m := r.members[worker]; m != nil && !m.static {
		m.expires = r.now().Add(r.ttl)
	}
	r.mu.Unlock()
	return nil
}

// Sweep retires every dynamic member whose lease has expired, emitting a
// "leave" per retirement, and returns the retired workers.
func (r *Registry) Sweep() []string {
	r.mu.Lock()
	now := r.now()
	var gone []string
	for w, m := range r.members {
		if !m.static && m.expires.Before(now) {
			delete(r.members, w)
			gone = append(gone, w)
		}
	}
	r.mu.Unlock()
	sort.Strings(gone)
	events := make([]MemberEvent, len(gone))
	for i, w := range gone {
		events[i] = MemberEvent{Kind: "leave", Worker: w}
	}
	r.notify(events)
	return gone
}

// Members returns the current membership, sorted for deterministic
// iteration.
func (r *Registry) Members() []string {
	r.mu.Lock()
	out := make([]string, 0, len(r.members))
	for w := range r.members {
		out = append(out, w)
	}
	r.mu.Unlock()
	sort.Strings(out)
	return out
}

// Active reports whether worker currently holds a live membership (static,
// or a lease that has not expired). Expired-but-unswept members count as
// inactive: dispatch decisions must not outrun the sweep.
func (r *Registry) Active(worker string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.members[worker]
	if m == nil {
		return false
	}
	return m.static || !m.expires.Before(r.now())
}

// registerRequest is the POST /register body.
type registerRequest struct {
	URL string `json:"url"`
}

// Handler returns the registrar's HTTP handler: POST /register with a
// JSON {"url": ...} body announces a worker. A non-empty token demands
// "Authorization: Bearer <token>" (constant-time compare), the same gate
// mtsimd puts on /shard — an open registrar would let anyone steer shard
// traffic.
func (r *Registry) Handler(token string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+RegisterPath, func(w http.ResponseWriter, req *http.Request) {
		if token != "" {
			want := "Bearer " + token
			got := req.Header.Get("Authorization")
			if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
				w.Header().Set("WWW-Authenticate", `Bearer realm="mtctl-registry"`)
				serve.WriteJSONError(w, http.StatusUnauthorized, "missing or invalid bearer token", 0)
				return
			}
		}
		var body registerRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 4096)).Decode(&body); err != nil {
			serve.WriteJSONError(w, http.StatusBadRequest, "malformed register body: "+err.Error(), 0)
			return
		}
		joined, err := r.Announce(body.URL)
		if err != nil {
			status := http.StatusInternalServerError
			if valid.IsParam(err) {
				status = http.StatusBadRequest
			}
			serve.WriteJSONError(w, status, err.Error(), 0)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"joined\":%v,\"ttl_ms\":%d}\n", joined, r.ttl.Milliseconds())
	})
	return mux
}

// ReadDiscoverFile parses a -discover address file: one worker base URL
// per line, blank lines and #-comments ignored.
func ReadDiscoverFile(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, sc.Err()
}

// PollDiscoverFile watches a -discover address file until ctx ends,
// re-announcing every listed worker each interval so additions join within
// one poll and removals age out by lease expiry. Read errors are reported
// through onErr (nil ignores them) and retried next round — a transient
// unreadable file must not tear down membership.
func (r *Registry) PollDiscoverFile(ctx context.Context, path string, interval time.Duration, onErr func(error)) {
	if interval <= 0 {
		interval = time.Second
	}
	for {
		workers, err := ReadDiscoverFile(path)
		if err != nil && onErr != nil {
			onErr(err)
		}
		for _, w := range workers {
			if _, err := r.Announce(w); err != nil && onErr != nil {
				onErr(err)
			}
		}
		if sleepCtx(ctx, interval) != nil {
			return
		}
	}
}
