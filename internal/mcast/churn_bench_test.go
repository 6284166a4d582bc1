package mcast

// BenchmarkChurn* is the committed BENCH_8.json suite: the incremental
// delta-maintained tree against recompute-per-event at steady state
// m̄ = 1000 on a 50k-node transit-stub graph (the ISSUE 10 operating
// point). The event dynamics are the memoryless M/M/∞ form — arrival with
// probability λ/(λ+kμ), otherwise a uniformly random active session ends —
// which is exactly the exponential-session churn process, so both engines
// see identical steady-state statistics:
//
//   - ChurnIncremental1k50k: DynTree.Join/Leave, O(path-to-tree) per event.
//   - ChurnRecompute1k50k: the baseline the tentpole replaces — the same
//     membership stream, link count rebuilt from scratch by
//     TreeCounter.TreeSize (O(L+m)) after every event.
//   - ChurnIncrementalBounded1k50k: the degree-capped variant including its
//     BFS repairs.
//   - ChurnEngineStep1k50k: the full production event path (departure
//     heap, session draws, RNG, DynTree) proving 0 allocs/op steady state.

import (
	"sync"
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
	"mtreescale/internal/topology"
)

var churnBench struct {
	once sync.Once
	g    *graph.Graph
	spt  *graph.SPT
	err  error
}

func churnBenchGraph(b *testing.B) (*graph.Graph, *graph.SPT) {
	b.Helper()
	churnBench.once.Do(func() {
		g, err := topology.TransitStubSized(50_000, 3.6, 1)
		if err != nil {
			churnBench.err = err
			return
		}
		churnBench.g = g
		churnBench.spt, churnBench.err = g.BFS(0)
	})
	if churnBench.err != nil {
		b.Fatal(churnBench.err)
	}
	return churnBench.g, churnBench.spt
}

// churnBenchState is the shared membership dynamic: sessions holds one
// entry per active session (duplicates allowed), steady around target.
type churnBenchState struct {
	r        *rng.Rand
	sessions []int32
	n        int
	target   int
}

func newChurnBenchState(g *graph.Graph, target int, seed int64) *churnBenchState {
	return &churnBenchState{
		r:        rng.New(seed),
		sessions: make([]int32, 0, 2*target),
		n:        g.N(),
		target:   target,
	}
}

// next draws the next event: (site, join). Memoryless dynamics: with k
// active sessions, the next event is an arrival with probability
// λ/(λ+kμ) = target/(target+k); otherwise a uniform active session ends.
func (s *churnBenchState) next() (int32, bool) {
	k := len(s.sessions)
	if k == 0 || s.r.Intn(s.target+k) < s.target {
		site := int32(s.r.Intn(s.n))
		s.sessions = append(s.sessions, site)
		return site, true
	}
	i := s.r.Intn(k)
	site := s.sessions[i]
	s.sessions[i] = s.sessions[k-1]
	s.sessions = s.sessions[:k-1]
	return site, false
}

// fill drives the membership straight to the steady-state operating point.
func (s *churnBenchState) fill(tree *DynTree) {
	for len(s.sessions) < s.target {
		site := int32(s.r.Intn(s.n))
		s.sessions = append(s.sessions, site)
		tree.Join(site)
	}
}

func benchIncremental(b *testing.B, degreeCap int) {
	g, spt := churnBenchGraph(b)
	tree, err := NewDynTree(g, spt, degreeCap)
	if err != nil {
		b.Fatal(err)
	}
	st := newChurnBenchState(g, 1000, 7)
	st.fill(tree)
	b.ReportAllocs()
	b.ResetTimer()
	var links int
	for i := 0; i < b.N; i++ {
		site, join := st.next()
		if join {
			tree.Join(site)
		} else {
			tree.Leave(site)
		}
		links = tree.Links()
	}
	_ = links
}

func BenchmarkChurnIncremental1k50k(b *testing.B) { benchIncremental(b, 0) }

func BenchmarkChurnIncrementalBounded1k50k(b *testing.B) { benchIncremental(b, 4) }

// BenchmarkChurnRecompute1k50k is the from-scratch baseline: identical
// membership stream, but the link count is rebuilt by a full TreeCounter
// climb over all ~1000 receivers after every event.
func BenchmarkChurnRecompute1k50k(b *testing.B) {
	g, spt := churnBenchGraph(b)
	c := NewTreeCounter(g.N())
	st := newChurnBenchState(g, 1000, 7)
	for len(st.sessions) < st.target {
		st.sessions = append(st.sessions, int32(st.r.Intn(st.n)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var links int
	for i := 0; i < b.N; i++ {
		st.next()
		links = c.TreeSize(spt, st.sessions)
	}
	_ = links
}

// BenchmarkChurnEngineStep1k50k measures the full production event path —
// Poisson clock, departure heap, session draw, incremental graft/prune —
// and pins the 0 allocs/op steady-state contract.
func BenchmarkChurnEngineStep1k50k(b *testing.B) {
	g, spt := churnBenchGraph(b)
	tree, err := NewDynTree(g, spt, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ChurnConfig{TargetMembers: 1000}.withDefaults()
	var sim churnSim
	sim.initSim(tree, rng.New(11), cfg, g.N(), 0)
	for i := 0; i < 12_000; i++ { // past the ~m̄ arrivals warmup
		sim.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.step()
	}
}
