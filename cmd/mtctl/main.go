// Command mtctl coordinates a cluster of mtsimd workers: it cuts one
// experiment grid into contiguous shards, fans the shards out over the
// workers' POST /shard endpoints with bounded in-flight per worker, and
// merges the returned partials deterministically — the merged output is
// byte-identical to a single-process run (-local), whatever the worker
// count, scheduling order, 429 backpressure, worker deaths or coordinator
// restarts in between.
//
// Usage:
//
//	mtctl -workers http://h1:8080,http://h2:8080 -kind ensemble -nets 16
//	mtctl -local -kind ensemble -nets 16          # same grid, in-process
//	mtctl -workers ... -out run1/ -resume         # journal + crash resume
//	mtctl -bench BENCH_7.json                     # committed cluster bench
//
// Failure semantics, in one place:
//
//   - 429 from a worker is backpressure, not failure: the slot honors
//     Retry-After (or -backoff) and the shard re-enters the pool, costing
//     no retry budget and no strike.
//   - Transport errors and 5xx put the shard straight back in the pool,
//     up to -retries times per shard, and strike the worker: its k-th
//     consecutive failed shard benches it (no dispatch) for
//     -backoff×2^(k-1), capped at -backoff-max and shortened by up to 30%
//     of jitter. Its next completed shard clears the strikes.
//   - 4xx other than 429 means the grid itself is bad: fail fast.
//   - With -out, every completed partial is fsynced to
//     <out>/checkpoint.jsonl; -resume replays journal entries whose grid
//     key and shard block match the current plan, so a restarted run (or
//     one that lost a worker mid-flight) recomputes only what is missing.
//     Journal lines that carry this grid's key but fail validation (stale
//     shard bounds from an older plan, a damaged payload, a checksum
//     mismatch) are rejected, reported, and recomputed.
//   - Every partial carries an FNV-1a checksum sealed by the worker and
//     verified on receipt, again on journal replay, and once more at merge:
//     a corrupted payload is a retryable worker failure, never a merged lie.
//   - -heartbeat probes each worker's GET /healthz; after -heartbeat-fails
//     consecutive failures the worker is evicted (no new shards) until a
//     probe succeeds again.
//   - -speculate N dispatches a backup copy of any shard in flight longer
//     than N times the rolling mean shard latency (floor -spec-min); the
//     first valid result wins, the loser is discarded.
//   - -token authenticates POST /shard and heartbeat probes against workers
//     started with mtsimd -shard-token.
//   - -tls-ca pins the CA for https workers (mtsimd -tls-cert/-tls-key).
//
// The -workers list is the whole fleet for the run: workers are evicted,
// benched and readmitted, never added or removed. A killed coordinator is
// recovered by rerunning it with -resume; every partial is a deterministic
// function of its grid key and block, so a resumed run merges the same
// bytes whichever run journaled each block.
//
// -bench measures the coordinator's fan-out overlap against calibrated-
// latency in-process stub workers (1 worker vs 2 over the same grid) and
// writes a BENCH-style JSON document; see EXPERIMENTS.md for methodology.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	mtreescale "mtreescale"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtl(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mtctl:", err)
		os.Exit(1)
	}
}

// runCtl parses flags and runs one coordinator invocation. Progress and
// statistics go to errw; the merged result (when no -out directory is
// given) goes to outw. Tests drive it directly.
func runCtl(ctx context.Context, args []string, outw, errw io.Writer) error {
	fs := flag.NewFlagSet("mtctl", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		version = fs.Bool("version", false, "print build information and exit")
		workers = fs.String("workers", "", "comma-separated mtsimd base URLs (e.g. http://h1:8080,http://h2:8080)")
		local   = fs.Bool("local", false, "run the grid in-process through the unsharded engines (the byte-identity reference)")

		kind     = fs.String("kind", "ensemble", "grid kind: curve|shared|ensemble")
		topo     = fs.String("topo", "r100", "standard topology name (see mtsim -list); ensembles regenerate it per network")
		scale    = fs.Float64("scale", 1.0, "topology scale factor in (0,1]")
		seed     = fs.Int64("seed", 1, "protocol seed; the whole sweep is a deterministic function of it")
		topoSeed = fs.Int64("topo-seed", 0, "generation seed for curve/shared grids (0 = the topology's canonical instance)")
		sizes    = fs.String("sizes", "1,2,5,10,20,50", "comma-separated multicast group sizes")
		nsource  = fs.Int("nsource", 40, "source draws per network (the sharding axis for curve/shared grids)")
		nrcvr    = fs.Int("nrcvr", 8, "receiver sets per source and group size")
		nets     = fs.Int("nets", 16, "ensemble width (the sharding axis for -kind ensemble)")
		mode     = fs.String("mode", "distinct", "receiver draw mode: distinct|replacement")
		strategy = fs.String("strategy", "center", "shared-tree core placement: random|source|center")
		sptcache = fs.Bool("sptcache", true, "reuse shortest-path trees via the process-wide SPT cache")

		shards     = fs.Int("shards", 0, "number of shards to cut the grid into (0 = 2 per worker)")
		inflight   = fs.Int("inflight", 1, "concurrent shards per worker (bounded fan-out)")
		retries    = fs.Int("retries", 3, "worker-failure budget per shard (429s are backpressure and cost nothing)")
		backoff    = fs.Duration("backoff", time.Second, "bench after a worker's first failed shard, doubling per consecutive failure; also the 429 pause when Retry-After is absent")
		backoffMax = fs.Duration("backoff-max", 30*time.Second, "cap on a worker's bench")
		token      = fs.String("token", "", "bearer token sent with every POST /shard and heartbeat probe (matches mtsimd -shard-token)")
		tlsCA      = fs.String("tls-ca", "", "CA certificate pool (PEM) trusted for https workers (mtsimd -tls-cert)")

		heartbeat = fs.Duration("heartbeat", 5*time.Second, "worker liveness probe interval; evicted workers stop receiving shards until a probe succeeds (0 disables)")
		hbFails   = fs.Int("heartbeat-fails", 3, "consecutive heartbeat failures before a worker is evicted")
		speculate = fs.Float64("speculate", 0, "straggler threshold as a multiple of the rolling mean shard latency; past it a backup copy is dispatched (0 disables)")
		specMin   = fs.Duration("spec-min", time.Second, "floor on the speculation deadline, so short shards are never speculated on noise")
		chaosSpec = fs.String("chaos", "", "coordinator-side fault-injection schedule, e.g. 'journal.write=short@0.2;cluster.post=error#1' (testing only; see internal/chaos)")
		chaosSeed = fs.Int64("chaos-seed", 1, "seed for the -chaos schedule; the same seed reproduces the identical fault sequence")

		outDir = fs.String("out", "", "write merged.json and the checkpoint.jsonl shard journal into this directory")
		resume = fs.Bool("resume", false, "replay <out>/checkpoint.jsonl and recompute only missing shards (requires -out)")
		timing = fs.String("timing", "", "write a BENCH-style timing document for this run to this file")

		bench        = fs.String("bench", "", "run the committed cluster benchmark (1 vs 2 calibrated-latency stub workers) and write BENCH-style JSON to this file")
		benchLatency = fs.Duration("bench-latency", 150*time.Millisecond, "per-shard dispatch latency of the benchmark stub workers")
		benchShards  = fs.Int("bench-shards", 8, "shard count for the benchmark grid")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(outw, "mtctl", mtreescale.VersionString())
		return nil
	}
	if *resume && *outDir == "" {
		return fmt.Errorf("-resume requires -out (the checkpoint journal lives in the output directory)")
	}

	grid, err := buildGrid(gridFlags{
		kind: *kind, topo: *topo, scale: *scale, seed: *seed, topoSeed: *topoSeed,
		sizes: *sizes, nsource: *nsource, nrcvr: *nrcvr, nets: *nets,
		mode: *mode, strategy: *strategy, sptcache: *sptcache,
	})
	if err != nil {
		return err
	}

	if *chaosSpec != "" {
		plan, err := mtreescale.ParseChaosPlan(*chaosSpec, *chaosSeed)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		plan.SetLogf(func(format string, args ...any) { fmt.Fprintf(errw, format+"\n", args...) })
		mtreescale.EnableChaos(plan)
		defer mtreescale.DisableChaos()
		fmt.Fprintf(errw, "mtctl: CHAOS ENABLED seed=%d spec=%q\n", *chaosSeed, *chaosSpec)
	}

	if *bench != "" {
		return runBench(ctx, grid, *bench, *benchLatency, *benchShards, *inflight, outw, errw)
	}

	start := time.Now()
	var (
		merged *mtreescale.ClusterMerged
		stats  *mtreescale.ClusterStats
		label  string
	)
	switch {
	case *local:
		label = "LocalRun/" + string(grid.Kind)
		merged, err = mtreescale.RunClusterLocal(ctx, grid)
		if err != nil {
			return err
		}
	case *workers != "":
		label = "ClusterRun/" + string(grid.Kind)
		urls := splitList(*workers)
		opt := mtreescale.ClusterOptions{
			Inflight:       *inflight,
			Retries:        *retries,
			Backoff:        *backoff,
			BackoffMax:     *backoffMax,
			Token:          *token,
			Heartbeat:      *heartbeat,
			HeartbeatFails: *hbFails,
			SpecFactor:     *speculate,
			SpecMin:        *specMin,
			OnEvent:        eventPrinter(errw),
		}
		if *tlsCA != "" {
			client, err := mtreescale.NewClusterTLSClient(*tlsCA)
			if err != nil {
				return fmt.Errorf("-tls-ca: %w", err)
			}
			opt.Client = client
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			opt.JournalPath = filepath.Join(*outDir, mtreescale.CheckpointFile)
			opt.Resume = *resume
		}
		coord, err := mtreescale.NewClusterCoordinator(urls, opt)
		if err != nil {
			return err
		}
		n := *shards
		if n <= 0 {
			n = 2 * len(urls)
		}
		merged, stats, err = coord.Run(ctx, grid, n)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -workers, -local or -bench (try -h)")
	}
	elapsed := time.Since(start)

	if stats != nil {
		fmt.Fprintf(errw, "mtctl: %d shards (%d resumed) in %s; %d attempts, %d backoffs, %d requeues\n",
			stats.Planned, stats.Resumed, elapsed.Round(time.Millisecond),
			stats.Attempts, stats.Backoffs429, stats.Requeues)
		if stats.Evictions+stats.Readmissions+stats.Speculations+stats.JournalSkipped > 0 {
			fmt.Fprintf(errw, "mtctl: %d evictions, %d readmissions, %d speculations, %d journal lines skipped\n",
				stats.Evictions, stats.Readmissions, stats.Speculations, stats.JournalSkipped)
		}
		for _, w := range sortedKeys(stats.PerWorker) {
			fmt.Fprintf(errw, "mtctl:   %s: %d shards\n", w, stats.PerWorker[w])
		}
	} else {
		fmt.Fprintf(errw, "mtctl: local run in %s\n", elapsed.Round(time.Millisecond))
	}

	if *timing != "" {
		doc := newBenchDoc(benchEntry{Name: label, Procs: 1, Iterations: 1,
			NsPerOp: float64(elapsed.Nanoseconds()), BytesPerOp: -1, AllocsPerOp: -1})
		if err := writeJSONFile(*timing, doc); err != nil {
			return err
		}
	}
	return writeMerged(grid, merged, *outDir, outw)
}

// gridFlags carries the flag values buildGrid translates into a ClusterGrid.
type gridFlags struct {
	kind, topo, sizes, mode, strategy string
	scale                             float64
	seed, topoSeed                    int64
	nsource, nrcvr, nets              int
	sptcache                          bool
}

func buildGrid(f gridFlags) (mtreescale.ClusterGrid, error) {
	var g mtreescale.ClusterGrid
	szs, err := parseSizes(f.sizes)
	if err != nil {
		return g, err
	}
	g = mtreescale.ClusterGrid{
		Kind:     mtreescale.ClusterKind(f.kind),
		Topology: f.topo,
		Seed:     f.topoSeed,
		Scale:    f.scale,
		Sizes:    szs,
		Protocol: mtreescale.Protocol{
			NSource: f.nsource,
			NRcvr:   f.nrcvr,
			Seed:    f.seed,
			// Ignored by the engines, but Grid.Key() prints it: set as
			// before, so existing journals and worker caches still match.
			BatchBFS: true,
			SPTCache: f.sptcache,
			Workers:  1,
		},
	}
	switch f.mode {
	case "distinct":
		g.Mode = mtreescale.Distinct
	case "replacement":
		g.Mode = mtreescale.WithReplacement
	default:
		return g, fmt.Errorf("unknown -mode %q (want distinct|replacement)", f.mode)
	}
	switch f.strategy {
	case "random":
		g.Strategy = mtreescale.CoreRandom
	case "source":
		g.Strategy = mtreescale.CoreSource
	case "center":
		g.Strategy = mtreescale.CoreCenter
	default:
		return g, fmt.Errorf("unknown -strategy %q (want random|source|center)", f.strategy)
	}
	if g.Kind == mtreescale.ClusterEnsemble {
		g.NNetworks = f.nets
	}
	return g, g.Validate()
}

// mergedDoc is the serialized result: the grid (so the file is
// self-describing), its key, and the merged points. Both -local and cluster
// runs serialize through this one shape, which is what makes "byte-identical
// merged output" checkable with cmp(1).
type mergedDoc struct {
	Grid   mtreescale.ClusterGrid   `json:"grid"`
	Key    string                   `json:"key"`
	Result mtreescale.ClusterMerged `json:"result"`
}

func writeMerged(g mtreescale.ClusterGrid, m *mtreescale.ClusterMerged, outDir string, outw io.Writer) error {
	doc := mergedDoc{Grid: g, Key: g.Key(), Result: *m}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outDir == "" {
		_, err := outw.Write(data)
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return mtreescale.WriteFileAtomic(filepath.Join(outDir, "merged.json"), data, 0o644)
}

// eventPrinter renders coordinator progress notifications as one stderr
// line each. Events arrive from concurrent worker slots, so writes are
// serialized: errw need not be safe for concurrent use.
func eventPrinter(errw io.Writer) func(mtreescale.ClusterEvent) {
	var mu sync.Mutex
	return func(ev mtreescale.ClusterEvent) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case "resume":
			fmt.Fprintf(errw, "mtctl: shard [%d,%d) resumed from journal\n", ev.Lo, ev.Hi)
		case "complete":
			fmt.Fprintf(errw, "mtctl: shard [%d,%d) complete on %s\n", ev.Lo, ev.Hi, ev.Worker)
		case "backoff":
			fmt.Fprintf(errw, "mtctl: %s saturated; backing off %s (shard [%d,%d) requeued)\n",
				ev.Worker, ev.RetryIn, ev.Lo, ev.Hi)
		case "requeue":
			fmt.Fprintf(errw, "mtctl: shard [%d,%d) requeued after %s failed: %v\n",
				ev.Lo, ev.Hi, ev.Worker, ev.Err)
		case "quarantine":
			fmt.Fprintf(errw, "mtctl: %s benched for %s\n", ev.Worker, ev.RetryIn)
		case "evict":
			fmt.Fprintf(errw, "mtctl: %s evicted: %v\n", ev.Worker, ev.Err)
		case "readmit":
			fmt.Fprintf(errw, "mtctl: %s readmitted after a successful probe\n", ev.Worker)
		case "speculate":
			fmt.Fprintf(errw, "mtctl: shard [%d,%d) straggling on %s; dispatching a backup copy\n",
				ev.Lo, ev.Hi, ev.Worker)
		case "journal-skip":
			fmt.Fprintf(errw, "mtctl: journal line rejected (shard will be recomputed): %v\n", ev.Err)
		}
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -sizes entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; worker lists are tiny
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// benchDoc mirrors cmd/benchjson's document shape so BENCH_7.json sits
// beside the other committed perf-trajectory points and `benchjson -compare`
// can diff it.
type benchDoc struct {
	Goos       string       `json:"goos,omitempty"`
	Goarch     string       `json:"goarch,omitempty"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

type benchEntry struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func newBenchDoc(entries ...benchEntry) benchDoc {
	return benchDoc{Goos: runtime.GOOS, Goarch: runtime.GOARCH, Benchmarks: entries}
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return mtreescale.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// runBench measures coordinator fan-out against calibrated-latency stub
// workers: the same grid dispatched to one worker and then to two, each
// worker sleeping -bench-latency per shard before computing it in-process.
// With per-shard wall clock dominated by the calibrated latency (the
// distributed regime the cluster exists for), the two-worker run overlaps
// dispatches and should land near 2x. The merged bytes of both runs are
// checked against the unsharded local engines before any number is written.
func runBench(ctx context.Context, g mtreescale.ClusterGrid, outFile string, latency time.Duration, nShards, inflight int, outw, errw io.Writer) error {
	want, err := localBytes(ctx, g)
	if err != nil {
		return err
	}

	w1, err := mtreescale.StartClusterStubWorker("bench-0", latency, nil)
	if err != nil {
		return err
	}
	defer w1.Close()
	w2, err := mtreescale.StartClusterStubWorker("bench-1", latency, nil)
	if err != nil {
		return err
	}
	defer w2.Close()

	run := func(urls []string) (time.Duration, error) {
		coord, err := mtreescale.NewClusterCoordinator(urls, mtreescale.ClusterOptions{Inflight: inflight})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		merged, _, err := coord.Run(ctx, g, nShards)
		elapsed := time.Since(start)
		if err != nil {
			return 0, err
		}
		got, err := mergedBytes(g, merged)
		if err != nil {
			return 0, err
		}
		if string(got) != string(want) {
			return 0, fmt.Errorf("merged output of %d-worker run differs from the single-process reference", len(urls))
		}
		return elapsed, nil
	}

	t1, err := run([]string{w1.URL()})
	if err != nil {
		return err
	}
	t2, err := run([]string{w1.URL(), w2.URL()})
	if err != nil {
		return err
	}
	speedup := float64(t1) / float64(t2)

	fmt.Fprintf(errw, "mtctl: bench %s over %d shards, %s/shard latency: 1 worker %s, 2 workers %s (%.2fx); merged bytes identical to single-process\n",
		g.Kind, nShards, latency, t1.Round(time.Millisecond), t2.Round(time.Millisecond), speedup)

	doc := newBenchDoc(
		benchEntry{Name: "ClusterEnsembleWorkers1", Procs: 1, Iterations: 1,
			NsPerOp: float64(t1.Nanoseconds()), BytesPerOp: -1, AllocsPerOp: -1},
		benchEntry{Name: "ClusterEnsembleWorkers2", Procs: 1, Iterations: 1,
			NsPerOp: float64(t2.Nanoseconds()), BytesPerOp: -1, AllocsPerOp: -1},
		// NsPerOp here is the dimensionless t1/t2 speedup ratio, not a time:
		// the scalar the cluster benchmark exists to track.
		benchEntry{Name: "ClusterSpeedupWorkers2", Procs: 1, Iterations: 1,
			NsPerOp: speedup, BytesPerOp: -1, AllocsPerOp: -1},
	)
	if err := writeJSONFile(outFile, doc); err != nil {
		return err
	}
	fmt.Fprintf(outw, "mtctl: wrote %s\n", outFile)
	return nil
}

func localBytes(ctx context.Context, g mtreescale.ClusterGrid) ([]byte, error) {
	m, err := mtreescale.RunClusterLocal(ctx, g)
	if err != nil {
		return nil, err
	}
	return mergedBytes(g, m)
}

func mergedBytes(g mtreescale.ClusterGrid, m *mtreescale.ClusterMerged) ([]byte, error) {
	return json.MarshalIndent(mergedDoc{Grid: g, Key: g.Key(), Result: *m}, "", "  ")
}
