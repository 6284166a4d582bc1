package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"

	"mtreescale"
	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
	"mtreescale/internal/rng"
	"mtreescale/internal/stats"
)

// benchProfile is the profile every workload runs: enlarged past medium
// (half-scale topologies, 40×40 sampling, 40/80 MCMC sweeps) so each
// iteration is seconds long, with the input set's seed.
func benchProfile(set int) mtreescale.Profile {
	p := mtreescale.MediumProfile()
	p.Name = "perfbench"
	p.Scale = 0.5
	p.NSource, p.NRcvr = 40, 40
	p.MCMCBurnIn, p.MCMCSamples = 40, 80
	p.Seed = 1999 + int64(set)
	return p
}

// profileKey identifies the profile the golden digests were computed under.
func profileKey(p mtreescale.Profile) string {
	p.Seed = 0
	return fmt.Sprintf("%+v", p)
}

// A workload is one input family. Untraced, run goes through the same entry
// points mtsim and mtctl use. Traced (b.tr set), curves, steiner and
// affinity run a replica of the experiment loop with spans around every
// layer call, which must reproduce the experiment's output byte for byte;
// shards runs the same coordinator path with every round trip spanned.
type workload struct {
	name string
	// oneProc pins GOMAXPROCS to 1 in perfbench and the worker. The
	// worker-pool workloads take it: on a two-vCPU host, two busy threads
	// slow each other by up to a quarter depending on where the host places
	// the vCPUs, and cpu_s inflates with wall_s, so at two procs these
	// workloads measure placement rather than code (see NOISE.md). The
	// serial workloads keep every core, so a later fan-out shows in wall_s.
	oneProc bool
	// prepare runs once per process, untimed.
	prepare func(ctx context.Context, b *bench) error
	// setup builds the cold state the measured phase starts from. It is
	// repeated, with teardown between repetitions, until minSetup has passed.
	setup func(ctx context.Context, b *bench) error
	// run is the measured phase; it returns every result's bytes by name.
	run func(ctx context.Context, b *bench) (map[string][]byte, error)
	// diagnose runs after a traced iteration's measured phase, untimed, for
	// the per-layer figures that need extra calls.
	diagnose func(ctx context.Context, b *bench, parent int) error
	// teardown releases per-iteration state.
	teardown func(b *bench) error
	// final runs once after the last iteration and is verified like one.
	final func(ctx context.Context, b *bench) (map[string][]byte, error)
}

// procs is the workload's GOMAXPROCS on a host with nproc cores.
func (w *workload) procs(nproc int) int {
	if w.oneProc {
		return 1
	}
	return nproc
}

var workloadOrder = []string{"curves", "steiner", "affinity", "shards"}

var workloads = map[string]*workload{
	"curves": {
		name:    "curves",
		oneProc: true,
		setup:   func(ctx context.Context, b *bench) error { return b.buildTopologies(fig1Topologies()...) },
		run:     runCurves,
	},
	"steiner": {
		name:  "steiner",
		setup: func(ctx context.Context, b *bench) error { return b.buildTopologies("ts1000") },
		run:   runSteiner,
	},
	"affinity": {
		name:  "affinity",
		setup: setupAffinity,
		run:   runAffinity,
	},
	"shards": {
		name:     "shards",
		oneProc:  true,
		prepare:  prepareShards,
		setup:    setupShards,
		run:      runShards,
		diagnose: diagnoseShards,
		teardown: teardownShards,
		final:    finalShards,
	},
}

func fig1Topologies() []string {
	return append(mtreescale.GeneratedTopologies(), mtreescale.RealTopologies()...)
}

// resetCaches empties the process-wide topology and SPT caches, so the next
// calls start cold as they do in a fresh mtsim process.
func resetCaches() {
	mtreescale.ResetTopologyCache()
	mtreescale.ResetSPTCache()
}

// buildTopologies is the cold topology build: caches reset, then every
// named topology generated into the topology cache the experiments read.
func (b *bench) buildTopologies(names ...string) error {
	resetCaches()
	for _, n := range names {
		sp := b.tr.start("topology.build", b.root)
		_, err := mtreescale.GenerateTopologyCachedOpt(n, 0, b.prof.Scale, b.prof.LargeGraph)
		b.tr.stop(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// runExperiments runs experiments through the registry, as mtsim does, and
// renders each figure to CSV.
func runExperiments(ctx context.Context, p mtreescale.Profile, ids ...string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, id := range ids {
		res, err := mtreescale.RunExperimentCtx(ctx, id, p)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := mtreescale.WriteFigureCSV(&buf, res.Figure); err != nil {
			return nil, err
		}
		out[id+".csv"] = buf.Bytes()
	}
	return out, nil
}

// writeCSV renders a replica's figure inside a plot.write span.
func writeCSV(b *bench, parent int, f *mtreescale.Figure) ([]byte, error) {
	sp := b.tr.start("plot.write", parent)
	var buf bytes.Buffer
	err := mtreescale.WriteFigureCSV(&buf, f)
	b.tr.stop(sp)
	b.tr.add("plot.bytes", float64(buf.Len()))
	return buf.Bytes(), err
}

// capSize applies the profile's group-size cap, as the experiments do.
func capSize(p mtreescale.Profile, max int) int {
	if p.MaxGroupSize > 0 && max > p.MaxGroupSize {
		return p.MaxGroupSize
	}
	return max
}

// fillSPTs is the SPT fill a curve engine does first on a cold cache
// (mcast's resolveBatch: the protocol's sources, drawn as drawSources does,
// batch-filled into the shared cache), run inside a graph.spt_fill span so
// the engine call after it measures mcast alone on a warm cache. Timing the
// fill directly resolves it; a cold call minus a warm repeat cannot, as
// the fill is ~1% of a call and calls vary by several percent.
func fillSPTs(b *bench, parent int, g *mtreescale.Topology, prot mtreescale.Protocol, lo, hi int) error {
	if !prot.BatchBFS || !prot.SPTCache {
		return nil
	}
	srcRand := rng.NewChild(prot.Seed, -1)
	sources := make([]int, prot.NSource)
	for i := range sources {
		sources[i] = srcRand.Intn(g.N())
	}
	sp := b.tr.start("graph.spt_fill", parent)
	err := graph.SharedSPTs.FillBatch(g, sources[lo:hi])
	b.tr.stop(sp)
	return err
}

// checkWarm fails a traced engine call that filled SPTs after fillSPTs ran
// for it: the replica's fill no longer matches the engine's, and the call's
// span would count the engine's own fill as mcast time. A batch fill adds
// entries without counting misses, and a lone Get counts one; either may
// evict.
func checkWarm(call string, before mtreescale.SPTCacheStats) error {
	after := mtreescale.SPTCacheInfo()
	if after.Misses == before.Misses && after.Entries == before.Entries && after.Evictions == before.Evictions {
		return nil
	}
	return fmt.Errorf("%s filled SPTs after the replica's fill (misses %d→%d, entries %d→%d, evictions %d→%d)",
		call, before.Misses, after.Misses, before.Entries, after.Entries, before.Evictions, after.Evictions)
}

// ---- curves: fig1a + fig1b ----

func runCurves(ctx context.Context, b *bench) (map[string][]byte, error) {
	if b.tr == nil {
		return runExperiments(ctx, b.prof, "fig1a", "fig1b")
	}
	out := map[string][]byte{}
	for _, fig := range []struct {
		id    string
		names []string
	}{{"fig1a", mtreescale.GeneratedTopologies()}, {"fig1b", mtreescale.RealTopologies()}} {
		csv, err := replicaFig1(ctx, b, fig.id, fig.names)
		if err != nil {
			return nil, err
		}
		out[fig.id+".csv"] = csv
	}
	return out, nil
}

// replicaFig1 is experiments.runFig1 with a span around each layer call.
func replicaFig1(ctx context.Context, b *bench, id string, names []string) ([]byte, error) {
	p := b.prof
	sp := b.tr.start("bench."+id, b.root)
	defer b.tr.stop(sp)
	fig := &mtreescale.Figure{ID: id}
	maxM := 0
	for gi, name := range names {
		g, err := mtreescale.GenerateTopologyCachedOpt(name, 0, p.Scale, p.LargeGraph)
		if err != nil {
			return nil, err
		}
		pop := capSize(p, g.N()-1)
		sizes := mtreescale.LogSpacedSizes(pop, p.GridPoints)
		prot := mtreescale.Protocol{
			NSource: p.NSource, NRcvr: p.NRcvr,
			Seed:     rng.Split(p.Seed, int64(gi)),
			Nested:   p.Nested,
			SPTCache: p.SPTCache,
			BatchBFS: p.BatchBFS,
		}
		if err := fillSPTs(b, sp, g, prot, 0, prot.NSource); err != nil {
			return nil, err
		}
		before := mtreescale.SPTCacheInfo()
		ms := b.tr.start("mcast.curve", sp)
		pts, err := mtreescale.MeasureCurveCtx(ctx, g, sizes, mtreescale.Distinct, prot)
		b.tr.stop(ms)
		if err != nil {
			return nil, err
		}
		if err := checkWarm("MeasureCurveCtx on "+name, before); err != nil {
			return nil, err
		}
		b.tr.add("mcast.trees", float64(prot.NSource*prot.NRcvr*len(sizes)))
		var xs, ys []float64
		for _, pt := range pts {
			xs = append(xs, float64(pt.Size))
			ys = append(ys, pt.MeanRatio)
		}
		if err := fig.AddXY(g.Name(), xs, ys); err != nil {
			return nil, err
		}
		if pop > maxM {
			maxM = pop
		}
		// The experiment fits every curve for its notes; so does the
		// replica, to do the same work.
		_, _ = mtreescale.CurveFromPoints(pts).FitChuangSirbu()
	}
	var rx, ry []float64
	for _, m := range mtreescale.LogSpacedSizes(maxM, p.GridPoints) {
		rx = append(rx, float64(m))
		ry = append(ry, math.Pow(float64(m), 0.8))
	}
	if err := fig.AddXY("m^0.8", rx, ry); err != nil {
		return nil, err
	}
	return writeCSV(b, sp, fig)
}

// ---- steiner: ext-steiner ----

func runSteiner(ctx context.Context, b *bench) (map[string][]byte, error) {
	if b.tr == nil {
		return runExperiments(ctx, b.prof, "ext-steiner")
	}
	csv, err := replicaSteiner(ctx, b)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{"ext-steiner.csv": csv}, nil
}

// replicaSteiner is experiments.runExtSteiner with a span around each
// layer call: SPT lookup, receiver sampling, SPT tree count, KMB tree.
func replicaSteiner(ctx context.Context, b *bench) ([]byte, error) {
	p := b.prof
	tr := b.tr
	sp := tr.start("bench.ext-steiner", b.root)
	defer tr.stop(sp)
	g, err := mtreescale.GenerateTopologyCached("ts1000", 0, p.Scale)
	if err != nil {
		return nil, err
	}
	sizes := mtreescale.LogSpacedSizes(capSize(p, g.N()/2), p.GridPoints)
	nSource := p.NSource/3 + 1
	nRcvr := p.NRcvr/3 + 1
	srcRand := rng.NewChild(p.Seed, -1)
	counter := mtreescale.NewTreeCounter(g.N())
	var xs, sptYs, kmbYs []float64
	for _, m := range sizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var sptSum, kmbSum float64
		n := 0
		for si := 0; si < nSource; si++ {
			source := srcRand.Intn(g.N())
			s := tr.start("graph.spt_fill", sp)
			spt, err := sptFor(g, source, p)
			tr.stop(s)
			if err != nil {
				return nil, err
			}
			smp, err := mcast.NewSampler(g.N(), source, rng.NewChild(p.Seed, int64(si*31+m)))
			if err != nil {
				return nil, err
			}
			var recv []int32
			for rep := 0; rep < nRcvr; rep++ {
				s := tr.start("mcast.sample", sp)
				recv, err = smp.Distinct(m, recv)
				tr.stop(s)
				if err != nil {
					return nil, err
				}
				s = tr.start("mcast.tree_count", sp)
				sptSum += float64(counter.TreeSize(spt, recv))
				tr.stop(s)
				a0 := readMetric("/gc/heap/allocs:bytes")
				s = tr.start("steiner.kmb", sp)
				k, err := mtreescale.SteinerTreeSize(g, source, recv)
				tr.stop(s)
				tr.add("steiner.alloc_bytes", readMetric("/gc/heap/allocs:bytes")-a0)
				tr.add("steiner.terminals", float64(len(recv)+1))
				if err != nil {
					return nil, err
				}
				kmbSum += float64(k)
				n++
			}
		}
		xs = append(xs, float64(m))
		sptYs = append(sptYs, sptSum/float64(n))
		kmbYs = append(kmbYs, kmbSum/float64(n))
	}
	fig := &mtreescale.Figure{ID: "ext-steiner"}
	if err := fig.AddXY("source SPT tree", xs, sptYs); err != nil {
		return nil, err
	}
	if err := fig.AddXY("KMB Steiner tree", xs, kmbYs); err != nil {
		return nil, err
	}
	if _, err := stats.PowerLaw(xs, sptYs); err != nil {
		return nil, err
	}
	if _, err := stats.PowerLaw(xs, kmbYs); err != nil {
		return nil, err
	}
	return writeCSV(b, sp, fig)
}

// sptFor resolves a source's tree under the profile's cache policy, as the
// experiments do.
func sptFor(g *mtreescale.Topology, source int, p mtreescale.Profile) (*mtreescale.SPT, error) {
	if p.SPTCache {
		return graph.SharedSPTs.Get(g, source)
	}
	return g.BFS(source)
}

// ---- affinity: fig9a + fig9b ----

// fig9 lists Figure 9's panels with their tree depths and β sweep.
var (
	fig9Panels = []struct {
		id    string
		depth int
	}{{"fig9a", 10}, {"fig9b", 12}}
	fig9Betas = []float64{-10, -1, -0.1, 0, 0.1, 1, 10}
)

// fig9Depth shrinks a panel's tree depth with the profile scale, as the
// experiment does.
func fig9Depth(depth int, p mtreescale.Profile) int {
	if p.Scale < 0.2 {
		depth -= 4
	} else if p.Scale < 0.75 {
		depth -= 2
	}
	if depth < 4 {
		depth = 4
	}
	return depth
}

// setupAffinity is the affinity workload's cold model build: both panels'
// binary-tree models, the build fig9 starts with. fig9 builds them again
// inside the measured phase, so setup_s here times that first step on its
// own.
func setupAffinity(ctx context.Context, b *bench) error {
	resetCaches()
	for _, f := range fig9Panels {
		sp := b.tr.start("affinity.model", b.root)
		_, err := mtreescale.NewAffinityTreeModel(2, fig9Depth(f.depth, b.prof))
		b.tr.stop(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

func runAffinity(ctx context.Context, b *bench) (map[string][]byte, error) {
	if b.tr == nil {
		return runExperiments(ctx, b.prof, "fig9a", "fig9b")
	}
	out := map[string][]byte{}
	for _, f := range fig9Panels {
		csv, err := replicaFig9(b, f.id, fig9Depth(f.depth, b.prof))
		if err != nil {
			return nil, err
		}
		out[f.id+".csv"] = csv
	}
	return out, nil
}

// replicaFig9 is experiments.runFig9 with affinity.Sweep9 unrolled: one
// affinity.chain span per (β, n) chain.
func replicaFig9(b *bench, id string, depth int) ([]byte, error) {
	p := b.prof
	tr := b.tr
	sp := tr.start("bench."+id, b.root)
	defer tr.stop(sp)
	s := tr.start("affinity.model", sp)
	m, err := mtreescale.NewAffinityTreeModel(2, depth)
	tr.stop(s)
	if err != nil {
		return nil, err
	}
	ns := mtreescale.LogSpacedSizes(capSize(p, 10000), p.GridPoints)
	seed := rng.Split(p.Seed, int64(depth))
	fig := &mtreescale.Figure{ID: id}
	for bi, beta := range fig9Betas {
		var xs, ys []float64
		for ni, n := range ns {
			q := mtreescale.AffinityParams{
				BurnInSweeps: p.MCMCBurnIn,
				SampleSweeps: p.MCMCSamples,
				Seed:         rng.Split(seed, int64(bi*1000003+ni)),
			}
			s := tr.start("affinity.chain", sp)
			est, err := mtreescale.EstimateAffinity(m, n, beta, q)
			tr.stop(s)
			if err != nil {
				return nil, err
			}
			tr.add("affinity.accept_sum", est.AcceptanceRate)
			xs = append(xs, float64(n))
			ys = append(ys, est.MeanTreeSize/float64(n))
		}
		if err := fig.AddXY(fmt.Sprintf("β=%g", beta), xs, ys); err != nil {
			return nil, err
		}
	}
	return writeCSV(b, sp, fig)
}

// ---- shards: one curve grid through the cluster coordinator ----

// The shards workload's grid: the fig1b topology with the most curve work
// (the 28k-node internet map at half scale) with 60 sources, cut into
// blocks of five that keep the worker's engine busy for a few hundred
// milliseconds per round trip.
const (
	shardTopology = "internet"
	shardSources  = 60
	shardCount    = 12
)

// prepareShards plans the grid once: its size grid needs the topology's
// node count.
func prepareShards(ctx context.Context, b *bench) error {
	p := b.prof
	g, err := mtreescale.GenerateTopologyCachedOpt(shardTopology, 0, p.Scale, p.LargeGraph)
	if err != nil {
		return err
	}
	b.grid = &mtreescale.ClusterGrid{
		Kind:     mtreescale.ClusterCurve,
		Topology: shardTopology,
		Scale:    p.Scale,
		Sizes:    mtreescale.LogSpacedSizes(capSize(p, g.N()-1), p.GridPoints),
		Mode:     mtreescale.Distinct,
		Protocol: mtreescale.Protocol{
			NSource: shardSources, NRcvr: p.NRcvr, Seed: p.Seed,
			SPTCache: p.SPTCache, BatchBFS: p.BatchBFS,
		},
	}
	resetCaches()
	return nil
}

// setupShards starts a fresh worker and has it build the grid's topology
// cold, as the other workloads build theirs in set-up: a one-tree shard of
// the same grid makes the worker generate and cache it.
func setupShards(ctx context.Context, b *bench) error {
	resetCaches()
	sp := b.tr.start("serve.start", b.root)
	w, err := startWorker(ctx, b.mtsimd, b.procs)
	b.tr.stop(sp)
	if err != nil {
		return err
	}
	b.worker = w
	b.transport = http.DefaultTransport.(*http.Transport).Clone()
	warm := *b.grid
	warm.Sizes = []int{1}
	warm.Protocol.NSource, warm.Protocol.NRcvr = 1, 1
	sp = b.tr.start("topology.build", b.root)
	_, _, err = b.coordinator(nil).Run(ctx, warm, 1)
	b.tr.stop(sp)
	return err
}

// coordinator builds the cluster coordinator for the current worker, one
// shard in flight (one shard × the worker's one engine worker). With a
// tracer, every POST /shard round trip is a cluster.shard span.
func (b *bench) coordinator(tr *tracer) *mtreescale.ClusterCoordinator {
	client := &http.Client{Transport: b.transport}
	if tr != nil {
		client.Transport = &tracingTransport{base: b.transport, tr: tr, parent: b.root}
	}
	coord, err := mtreescale.NewClusterCoordinator([]string{b.worker.url}, mtreescale.ClusterOptions{Client: client, Inflight: 1})
	if err != nil {
		panic(err) // one non-empty worker URL is always a valid worker list
	}
	return coord
}

func teardownShards(b *bench) error {
	if b.worker == nil {
		return nil
	}
	b.transport.CloseIdleConnections()
	err := b.worker.stop()
	b.worker = nil
	return err
}

// runShards runs the grid through the coordinator against the worker.
func runShards(ctx context.Context, b *bench) (map[string][]byte, error) {
	merged, st, err := b.coordinator(b.tr).Run(ctx, *b.grid, shardCount)
	if err != nil {
		return nil, err
	}
	if b.tr != nil {
		b.tr.add("cluster.planned", float64(st.Planned))
		b.tr.add("cluster.attempts", float64(st.Attempts))
		b.tr.add("cluster.requeues", float64(st.Requeues))
		b.tr.add("cluster.backoffs_429", float64(st.Backoffs429))
	}
	body, err := json.Marshal(merged)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{"merged.json": body}, nil
}

// diagnoseShards splits the traced shards by layer. In process it fills
// each spec's SPTs and measures its partial on the warm cache, as the
// worker did, then merges the partials; and it posts every spec to the
// worker once more, now warm, next to the same spec in process, so the
// round trip minus the in-process time is the serving overhead with the
// compute identical on both sides.
func diagnoseShards(ctx context.Context, b *bench, parent int) error {
	tr := b.tr
	specs, err := mtreescale.PlanCluster(*b.grid, shardCount)
	if err != nil {
		return err
	}
	// The worker built the topology in set-up; its cache is not visible
	// from here, so this in-process mirror of the build counts the misses.
	resetCaches()
	g, err := mtreescale.GenerateTopologyCachedOpt(b.grid.Topology, b.grid.Seed, b.grid.Scale, b.grid.LargeGraph)
	if err != nil {
		return err
	}
	tr.add("topology.cache_misses", float64(mtreescale.TopologyCacheInfo().Misses))
	parts := make([]*mtreescale.ClusterPartial, len(specs))
	for i, spec := range specs {
		if err := fillSPTs(b, parent, g, spec.Grid.Protocol, spec.Lo, spec.Hi); err != nil {
			return err
		}
		before := mtreescale.SPTCacheInfo()
		s := tr.start("mcast.curve", parent)
		parts[i], err = mtreescale.ExecuteClusterShard(ctx, spec)
		tr.stop(s)
		if err != nil {
			return err
		}
		if err := checkWarm(fmt.Sprintf("ExecuteClusterShard [%d, %d)", spec.Lo, spec.Hi), before); err != nil {
			return err
		}
		tr.add("mcast.trees", float64(spec.Hi-spec.Lo)*float64(spec.Grid.Protocol.NRcvr*len(spec.Grid.Sizes)))
	}
	spt := mtreescale.SPTCacheInfo()
	tr.add("graph.spt_hits", float64(spt.Hits))
	tr.add("graph.spt_misses", float64(spt.Misses))
	tr.add("graph.spt_evictions", float64(spt.Evictions))
	s := tr.start("cluster.merge", parent)
	merged, err := mtreescale.MergeClusterPartials(*b.grid, parts)
	tr.stop(s)
	if err != nil {
		return err
	}
	body, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	if digest(body) != b.golden["merged.json"] {
		return fmt.Errorf("in-process shards merged to digest %s, golden %s", digest(body), b.golden["merged.json"])
	}
	client := &http.Client{Transport: b.transport}
	for _, spec := range specs {
		req, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		s := tr.start("serve.rtt_warm", parent)
		resp, err := client.Post(b.worker.url+mtreescale.ClusterShardPath, "application/json", bytes.NewReader(req))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("POST %s: %s", mtreescale.ClusterShardPath, resp.Status)
			}
		}
		tr.stop(s)
		if err != nil {
			return err
		}
		s = tr.start("serve.inproc_warm", parent)
		_, err = mtreescale.ExecuteClusterShard(ctx, spec)
		tr.stop(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// finalShards is the single-process reference the sharded result must
// equal: cluster.RunLocal on the same grid.
func finalShards(ctx context.Context, b *bench) (map[string][]byte, error) {
	resetCaches()
	merged, err := mtreescale.RunClusterLocal(ctx, *b.grid)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(merged)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{"merged.json": body}, nil
}

// tracingTransport records every POST /shard round trip, body included, as
// a cluster.shard span.
type tracingTransport struct {
	base   http.RoundTripper
	tr     *tracer
	parent int
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, mtreescale.ClusterShardPath) {
		return t.base.RoundTrip(req)
	}
	sp := t.tr.start("cluster.shard", t.parent)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.stop(sp)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.tr.stop(sp)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, err
}
