package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one process share a run id;
// Parent 0 marks an iteration's root.
type span struct {
	Run    string `json:"run"`
	Iter   int    `json:"iter"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans and counters in memory until the run ends. A nil
// tracer records nothing, so untraced code paths can call it freely.
type tracer struct {
	mu     sync.Mutex
	run    string
	iter   int
	epoch  time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{
		run:    fmt.Sprintf("%x-%x", time.Now().UnixNano(), os.Getpid()),
		epoch:  time.Now(),
		counts: map[string]float64{},
	}
}

// start opens a span under parent and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Run: t.run, Iter: t.iter, ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// stop closes span id.
func (t *tracer) stop(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add accumulates a counter measured at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// computeSelf sets every span's self time: its duration minus the part of
// its interval that its children cover.
func (t *tracer) computeSelf() {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max64(k.Start, reach), min64(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// selfByLayer sums self time by layer, the span name up to its first dot.
func (t *tracer) selfByLayer() map[string]float64 {
	t.computeSelf()
	out := map[string]float64{}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(s.Self) / 1e9
	}
	return out
}

// durations lists the durations in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	t.computeSelf()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// metric is one BENCHMARK.json metric as perfbench prints it.
type metric struct{ name, unit string }

var endToEndMetrics = []metric{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"},
	{"alloc_bytes", "bytes"}, {"max_rss_bytes", "bytes"}, {"ok_frac", "ratio"},
}

var perLayerMetrics = []metric{
	{"topology.build_s", "s"}, {"topology.cache_misses", "count"},
	{"graph.spt_fill_s", "s"}, {"graph.spt_hits", "count"}, {"graph.spt_misses", "count"}, {"graph.spt_evictions", "count"},
	{"mcast.curve_s", "s"}, {"mcast.trees", "count"}, {"mcast.ns_per_tree", "ns"},
	{"mcast.tree_count_s", "s"}, {"mcast.sample_s", "s"},
	{"steiner.kmb_s", "s"}, {"steiner.calls", "count"}, {"steiner.terminals", "count"}, {"steiner.alloc_bytes", "bytes"},
	{"runtime.gc_cpu_s", "s"},
	{"affinity.chain_s_p50", "s"}, {"affinity.chain_s_p90", "s"}, {"affinity.chains", "count"},
	{"affinity.accept_frac", "ratio"}, {"affinity.busy_cores", "cores"},
	{"cluster.shard_rtt_s_p50", "s"}, {"cluster.shard_rtt_s_p90", "s"}, {"cluster.shards", "count"},
	{"serve.overhead_s", "s"}, {"cluster.merge_s", "s"}, {"cluster.useful_frac", "ratio"},
	{"cluster.requeues", "count"}, {"cluster.backoffs_429", "count"},
	{"plot.write_s", "s"}, {"plot.bytes", "bytes"},
	{"trace.overhead_frac", "ratio"}, {"trace.spans", "count"},
}

// layerMetrics derives the per-layer metrics from iters traced iterations.
// Sums and counts are per iteration; percentiles pool every span. A layer
// the workload does not exercise reads 0.
func layerMetrics(t *tracer, iters int, overhead float64) map[string]float64 {
	n := float64(iters)
	per := func(v float64) float64 { return v / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	chains := t.durations("affinity.chain")
	rtts := t.durations("cluster.shard")
	curve := t.total("mcast.curve")
	trees := t.counts["mcast.trees"]
	warm := t.durations("serve.rtt_warm")
	m := map[string]float64{
		"topology.build_s":        per(t.total("topology.build")),
		"topology.cache_misses":   per(t.counts["topology.cache_misses"]),
		"graph.spt_fill_s":        per(t.total("graph.spt_fill")),
		"graph.spt_hits":          per(t.counts["graph.spt_hits"]),
		"graph.spt_misses":        per(t.counts["graph.spt_misses"]),
		"graph.spt_evictions":     per(t.counts["graph.spt_evictions"]),
		"mcast.curve_s":           per(curve),
		"mcast.trees":             per(trees),
		"mcast.ns_per_tree":       ratio(curve*1e9, trees),
		"mcast.tree_count_s":      per(t.total("mcast.tree_count")),
		"mcast.sample_s":          per(t.total("mcast.sample")),
		"steiner.kmb_s":           per(t.total("steiner.kmb")),
		"steiner.calls":           per(float64(len(t.durations("steiner.kmb")))),
		"steiner.terminals":       per(t.counts["steiner.terminals"]),
		"steiner.alloc_bytes":     per(t.counts["steiner.alloc_bytes"]),
		"runtime.gc_cpu_s":        per(t.counts["runtime.gc_cpu_s"]),
		"affinity.chain_s_p50":    quantile(chains, 0.5),
		"affinity.chain_s_p90":    quantile(chains, 0.9),
		"affinity.chains":         per(float64(len(chains))),
		"affinity.accept_frac":    ratio(t.counts["affinity.accept_sum"], float64(len(chains))),
		"affinity.busy_cores":     ratio(t.total("affinity.chain"), t.total("bench.measured")),
		"cluster.shard_rtt_s_p50": quantile(rtts, 0.5),
		"cluster.shard_rtt_s_p90": quantile(rtts, 0.9),
		"cluster.shards":          per(float64(len(rtts))),
		"serve.overhead_s":        ratio(t.total("serve.rtt_warm")-t.total("serve.inproc_warm"), float64(len(warm))),
		"cluster.merge_s":         per(t.total("cluster.merge")),
		"cluster.useful_frac":     ratio(t.counts["cluster.planned"], t.counts["cluster.attempts"]),
		"cluster.requeues":        per(t.counts["cluster.requeues"]),
		"cluster.backoffs_429":    per(t.counts["cluster.backoffs_429"]),
		"plot.write_s":            per(t.total("plot.write")),
		"plot.bytes":              per(t.counts["plot.bytes"]),
		"trace.overhead_frac":     overhead,
		"trace.spans":             per(float64(len(t.spans))),
	}
	return m
}
