package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mtreescale"
)

// minSetup is how long each iteration's set-up runs: the set-up (a cold
// topology build, the binary-tree models, a fresh worker) is repeated, cold
// each time, torn down and followed by a collection between repetitions,
// until this much time has passed, and the iteration's setup_s is the
// fastest repetition. A set-up of microseconds (the binary-tree models) is
// otherwise dominated by whether a page fault or a scheduler slice hit it.
const minSetup = 200 * time.Millisecond

// bench is the state of one run.
type bench struct {
	prof    mtreescale.Profile
	golden  map[string]string // result name -> sha256 hex
	mtsimd  string
	procs   int
	seconds float64

	tr     *tracer // set while a traced iteration runs
	root   int     // the traced iteration's root span
	worker *worker // the shards workload's current worker
	// transport carries the coordinator's requests to the current worker.
	transport *http.Transport
	// grid is the shards workload's cluster grid.
	grid *mtreescale.ClusterGrid
}

// sample is one iteration's end-to-end measurement.
type sample struct {
	Setup float64 `json:"setup_s"`
	Wall  float64 `json:"wall_s"`
	CPU   float64 `json:"cpu_s"`
	Alloc float64 `json:"alloc_bytes"`
	RSS   float64 `json:"max_rss_bytes"`
}

// report is a finished run.
type report struct {
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Iterations int                `json:"iterations"`
	CoresBusy  float64            `json:"cores_busy"`
	Metrics    map[string]float64 `json:"metrics"`
	defs       []metric           // the metrics to print, with their units
	SelfTime   map[string]float64 `json:"self_s,omitempty"`
	Failures   []string           `json:"failures,omitempty"`
	// Plain and Traced are the per-iteration samples behind the medians.
	Plain  []sample `json:"plain"`
	Traced []sample `json:"traced,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the run's last line.
func (r *report) result() map[string]any {
	m := make(map[string]metricValue, len(r.defs))
	for _, d := range r.defs {
		m[d.name] = metricValue{Value: r.Metrics[d.name], Unit: d.unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": m}
}

// verify checks one iteration's results against the golden digests and
// counts them into the report: every expected result is one attempted
// operation, and a missing, mismatched or errored one is a failed one.
func (r *report) verify(golden map[string]string, got map[string][]byte, err error) {
	names := make([]string, 0, len(golden))
	for k := range golden {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) == 0 {
		r.Attempted++
		r.Failed++
		r.Failures = append(r.Failures, "no golden digests for this workload and input set")
		return
	}
	for _, n := range names {
		r.Attempted++
		switch body, ok := got[n]; {
		case err != nil:
			r.Failed++
			r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", n, err))
		case !ok:
			r.Failed++
			r.Failures = append(r.Failures, n+": not produced")
		case digest(body) != golden[n]:
			r.Failed++
			r.Failures = append(r.Failures, fmt.Sprintf("%s: digest %s, golden %s", n, digest(body), golden[n]))
		}
	}
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// measure runs the workload for b.seconds. Untraced, it repeats cold
// iterations and reports the end-to-end metrics as medians over them.
// Traced, it alternates an untraced and a traced iteration, and reports the
// per-layer metrics from the traced ones.
func (b *bench) measure(ctx context.Context, w *workload, traced bool) (*report, error) {
	rep := &report{}
	if w.prepare != nil {
		if err := w.prepare(ctx, b); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	// Return the memory prepare used to the OS, so that the iterations'
	// resident sets start from the workload's own state.
	debug.FreeOSMemory()
	var plain, spanned []sample
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	start := time.Now()
	// A round (one iteration, or an untraced and a traced one) starts only
	// if a median round still fits in the budget.
	var rounds []float64
	for len(rounds) == 0 || time.Since(start).Seconds()+quantile(rounds, 0.5) <= b.seconds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := b.iterate(ctx, w, rep, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, s)
		if traced {
			s, err := b.iterate(ctx, w, rep, tr)
			if err != nil {
				return nil, err
			}
			spanned = append(spanned, s)
		}
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	b.tr = tr
	rep.Plain, rep.Traced = plain, spanned
	if w.final != nil {
		got, err := w.final(ctx, b)
		rep.verify(b.golden, got, err)
	}
	rep.Correct = rep.Failed == 0
	rep.Iterations = len(plain)
	wall := medianOf(plain, func(s sample) float64 { return s.Wall })
	rep.CoresBusy = medianOf(plain, func(s sample) float64 { return s.CPU }) / wall
	if !traced {
		rep.Metrics = map[string]float64{
			"wall_s":        wall,
			"cpu_s":         medianOf(plain, func(s sample) float64 { return s.CPU }),
			"setup_s":       medianOf(plain, func(s sample) float64 { return s.Setup }),
			"alloc_bytes":   medianOf(plain, func(s sample) float64 { return s.Alloc }),
			"max_rss_bytes": medianOf(plain, func(s sample) float64 { return s.RSS }),
			"ok_frac":       float64(rep.Attempted-rep.Failed) / float64(rep.Attempted),
		}
		rep.defs = endToEndMetrics
		return rep, nil
	}
	// Each traced iteration is compared with the untraced one just before
	// it, which ran under nearly the same host conditions.
	over := make([]float64, len(spanned))
	for i := range spanned {
		over[i] = spanned[i].Wall/plain[i].Wall - 1
	}
	rep.Metrics = layerMetrics(b.tr, len(spanned), quantile(over, 0.5))
	rep.SelfTime = b.tr.selfByLayer()
	rep.defs = perLayerMetrics
	return rep, nil
}

// iterate runs one cold iteration: set-up, the measured phase, then (traced
// only) the workload's untimed diagnostic pass, and verifies the results.
func (b *bench) iterate(ctx context.Context, w *workload, rep *report, tr *tracer) (sample, error) {
	var s sample
	// Two collections empty sync.Pool and its victim cache, so pooled
	// scratch starts cold too. The peak resident set restarts after them,
	// so the peak read after the measured phase is this iteration's.
	runtime.GC()
	runtime.GC()
	resetPeakRSS()
	b.tr = tr
	if tr != nil {
		tr.iter++
		b.root = tr.start("bench.iteration", 0)
	}
	defer b.teardown(w, rep)
	var reps []float64
	for start := time.Now(); ; {
		t0 := time.Now()
		if err := w.setup(ctx, b); err != nil {
			return s, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		reps = append(reps, time.Since(t0).Seconds())
		if tr != nil || time.Since(start) >= minSetup {
			break
		}
		b.teardown(w, rep)
		// The next repetition starts from a collected heap, as the first
		// did, instead of collecting this one's garbage on its own clock.
		runtime.GC()
	}
	s.Setup = quantile(reps, 0)
	// The measured phase starts from a collected heap too, so it does not
	// collect the set-up's garbage, and its allocation count starts from
	// flushed per-P caches.
	runtime.GC()

	gc0 := readMetric("/cpu/classes/gc/total:cpu-seconds")
	alloc0 := readMetric("/gc/heap/allocs:bytes")
	cpu0 := selfCPU() + b.workerCPU()
	t1 := time.Now()
	var measured int
	if tr != nil {
		measured = tr.start("bench.measured", b.root)
	}
	got, err := w.run(ctx, b)
	s.Wall = time.Since(t1).Seconds()
	s.CPU = selfCPU() + b.workerCPU() - cpu0
	s.Alloc = readMetric("/gc/heap/allocs:bytes") - alloc0
	s.RSS = float64(peakRSS("self"))
	if b.worker != nil {
		s.RSS += float64(b.worker.peakRSS())
	}
	if tr != nil {
		tr.stop(measured)
		tr.add("runtime.gc_cpu_s", readMetric("/cpu/classes/gc/total:cpu-seconds")-gc0)
		tr.add("topology.cache_misses", float64(mtreescale.TopologyCacheInfo().Misses))
		spt := mtreescale.SPTCacheInfo()
		tr.add("graph.spt_hits", float64(spt.Hits))
		tr.add("graph.spt_misses", float64(spt.Misses))
		tr.add("graph.spt_evictions", float64(spt.Evictions))
	}
	rep.verify(b.golden, got, err)
	if tr != nil && err == nil && w.diagnose != nil {
		d := tr.start("bench.diagnose", b.root)
		if err := w.diagnose(ctx, b, d); err != nil {
			return s, fmt.Errorf("%s diagnostics: %w", w.name, err)
		}
		tr.stop(d)
	}
	if tr != nil {
		tr.stop(b.root)
	}
	return s, nil
}

// teardown releases a set-up's per-iteration state; a failure to release
// it (a worker that survives its stop) is a failed operation.
func (b *bench) teardown(w *workload, rep *report) {
	if w.teardown == nil {
		return
	}
	if err := w.teardown(b); err != nil {
		rep.Failed++
		rep.Attempted++
		rep.Failures = append(rep.Failures, "teardown: "+err.Error())
	}
}

func (b *bench) workerCPU() float64 {
	if b.worker == nil {
		return 0
	}
	return b.worker.cpuSeconds()
}

// selfCPU is this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSS is a process's peak resident set (VmHWM) in bytes; pid is a
// process id or "self".
func peakRSS(pid string) int64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb * 1024
		}
	}
	return 0
}

// resetPeakRSS restarts this process's VmHWM from its current resident set.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		// Without the reset the peak is the process's lifetime peak, the
		// same in every later iteration, so runs stay comparable.
		return
	}
	_, _ = f.WriteString("5")
	f.Close()
}

// readMetric reads one cumulative runtime/metrics value as a float.
func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

func medianOf(ss []sample, f func(sample) float64) float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = f(s)
	}
	return quantile(vs, 0.5)
}

// quantile interpolates linearly between the closest ranks.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
