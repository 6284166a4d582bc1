package mtreescale

import (
	"context"
	"io"
	"time"

	"mtreescale/internal/affinity"
	"mtreescale/internal/analytic"
	"mtreescale/internal/cluster"
	"mtreescale/internal/core"
	"mtreescale/internal/experiments"
	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
	"mtreescale/internal/plot"
	"mtreescale/internal/reach"
	"mtreescale/internal/rng"
	"mtreescale/internal/steiner"
	"mtreescale/internal/topology"
	"mtreescale/internal/valid"
	"mtreescale/internal/wgraph"
)

// ChuangSirbuExponent is the empirical scaling exponent of [3]:
// L(m) ∝ m^0.8.
const ChuangSirbuExponent = 0.8

// Topology is an immutable undirected network graph. Build one with
// GenerateTopology, NewKAryTree, or the generator functions, or parse one
// with ReadTopology.
type Topology = graph.Graph

// TopologyBuilder accumulates edges for a custom Topology.
type TopologyBuilder = graph.Builder

// NewTopologyBuilder returns a builder for a graph with n nodes.
func NewTopologyBuilder(n int) *TopologyBuilder { return graph.NewBuilder(n) }

// SPT is a single-source shortest-path tree.
type SPT = graph.SPT

// Metrics summarizes a topology (the paper's Table 1 columns).
type Metrics = graph.Metrics

// ComputeMetrics measures a topology, sampling BFS sources on large graphs.
func ComputeMetrics(g *Topology, sampleSources int, seed int64) Metrics {
	m, _ := graph.ComputeMetrics(context.Background(), g, sampleSources, seed) // never cancelled
	return m
}

// ReadTopology parses the textual edge-list format.
func ReadTopology(r io.Reader) (*Topology, error) { return graph.Read(r) }

// WriteTopology serializes a topology in the textual edge-list format.
func WriteTopology(w io.Writer, g *Topology) error { return graph.Write(w, g) }

// KAryTree is a complete k-ary tree topology with leaf bookkeeping.
type KAryTree = topology.KAryTree

// NewKAryTree builds the complete k-ary tree of the given branching factor
// and depth, with the source at node 0.
func NewKAryTree(k, depth int) (*KAryTree, error) { return topology.NewKAryTree(k, depth) }

// StandardTopologies returns the paper's Table 1 topology names.
func StandardTopologies() []string { return topology.StandardNames() }

// GeneratedTopologies returns the Table 1 generated topology names
// (Figure 1(a)).
func GeneratedTopologies() []string { return topology.GeneratedNames() }

// RealTopologies returns the Table 1 real-map topology names (Figure 1(b));
// see DESIGN.md §4 for the substitutions.
func RealTopologies() []string { return topology.RealNames() }

// GenerateTopology builds the canonical instance of a standard topology.
func GenerateTopology(name string) (*Topology, error) { return topology.Generate(name) }

// GenerateTopologySeeded builds a standard topology with an explicit seed
// (0 = canonical) and scale in (0, 1].
func GenerateTopologySeeded(name string, seed int64, scale float64) (*Topology, error) {
	return topology.GenerateSeeded(name, seed, scale)
}

// GenerateTopologyCached is GenerateTopologySeeded behind a process-wide
// generation cache: repeated requests for the same (name, seed, scale)
// return the identical immutable *Topology, and concurrent first requests
// share one build (singleflight).
func GenerateTopologyCached(name string, seed int64, scale float64) (*Topology, error) {
	return topology.GenerateCached(name, seed, scale)
}

// GenerateTopologyCachedOpt is GenerateTopologyCached with the layout
// choice of the compressed adjacency layout, which has been removed:
// compress=true fails with an ErrInvalidParam error.
//
// Deprecated: use GenerateTopologyCached. It stays because perfbench, the
// benchmark module, still calls it.
func GenerateTopologyCachedOpt(name string, seed int64, scale float64, compress bool) (*Topology, error) {
	if compress {
		return nil, valid.Badf("mtreescale: compress is no longer supported: the compressed adjacency layout was removed")
	}
	return topology.GenerateCached(name, seed, scale)
}

// ResetTopologyCache drops every memoized topology instance.
func ResetTopologyCache() { topology.ResetCache() }

// TopologyCacheStats snapshots the generation cache's size and hit counters.
type TopologyCacheStats = topology.CacheStats

// TopologyCacheInfo returns the generation cache's current statistics.
func TopologyCacheInfo() TopologyCacheStats { return topology.CacheInfo() }

// SetTopologyCacheLimit replaces the generation cache's byte budget
// (evicting immediately if over) and returns the previous limit.
func SetTopologyCacheLimit(maxBytes int64) int64 { return topology.SetCacheLimit(maxBytes) }

// SPTCacheStats snapshots the process-wide shortest-path-tree cache.
type SPTCacheStats = graph.SPTCacheStats

// SPTCacheInfo returns the SPT cache's current statistics.
func SPTCacheInfo() SPTCacheStats { return graph.SharedSPTs.Stats() }

// SetSPTCacheLimit replaces the SPT cache's byte budget (evicting down to it
// immediately) and returns the previous limit.
func SetSPTCacheLimit(maxBytes int64) int64 { return graph.SharedSPTs.SetLimit(maxBytes) }

// ResetSPTCache drops every cached shortest-path tree and zeroes the
// counters.
func ResetSPTCache() { graph.SharedSPTs.Clear() }

// SPTBatch holds the shortest-path trees of up to len(sources) sources in one
// dense slab, as produced by the multi-source BFS kernel.
type SPTBatch = graph.SPTBatch

// BatchSPTs computes the shortest-path trees of all sources through the
// MS-BFS kernel, up to 64 sources per graph traversal. Each tree is
// node-for-node identical to BFS(source). The measurement engines use this
// kernel for every sweep's trees: into one slab without the SPT cache, and
// with it straight into each missing tree's own arrays.
func BatchSPTs(g *Topology, sources []int) (*SPTBatch, error) { return g.BatchSPTs(sources) }

// GNP generates an Erdős–Rényi G(n,p) graph's giant component.
func GNP(n int, p float64, seed int64) (*Topology, error) { return topology.GNP(n, p, seed) }

// Waxman generates a Waxman random graph's giant component.
func Waxman(n int, alpha, beta float64, seed int64) (*Topology, error) {
	return topology.Waxman(n, alpha, beta, seed)
}

// TransitStubSized generates a GT-ITM style transit-stub topology with
// exactly n nodes (n >= 64) and approximately the given average degree.
func TransitStubSized(n int, avgDegree float64, seed int64) (*Topology, error) {
	return topology.TransitStubSized(n, avgDegree, seed)
}

// TiersSized generates a TIERS style three-level topology with
// approximately n nodes.
func TiersSized(n int, seed int64) (*Topology, error) { return topology.TiersSized(n, seed) }

// PreferentialAttachment generates a power-law graph's giant component.
func PreferentialAttachment(n, edgesPerNode, extraShortcuts int, seed int64) (*Topology, error) {
	return topology.PreferentialAttachment(n, edgesPerNode, extraShortcuts, seed)
}

// ARPA returns the deterministic 47-node ARPANET-like topology.
func ARPA() *Topology { return topology.ARPA() }

// Grid builds a rows×cols lattice (torus when wrap is true) — the concrete
// realization of the paper's §4.3 power-law reachability case.
func Grid(rows, cols int, wrap bool) (*Topology, error) { return topology.Grid(rows, cols, wrap) }

// HomogeneousRandom generates a connected random graph with i.i.d. Poisson
// degrees (uniform-tree scaffold), whose reachability grows at a constant
// exponential rate — the generator behind the internet/as stand-ins.
func HomogeneousRandom(n int, avgDegree float64, seed int64) (*Topology, error) {
	return topology.HomogeneousRandom(n, avgDegree, seed)
}

// Protocol is the paper's §2 Monte-Carlo protocol (sources × receiver sets).
type Protocol = mcast.Protocol

// DefaultProtocol returns the paper's 100×100 protocol with the given seed.
func DefaultProtocol(seed int64) Protocol { return mcast.DefaultProtocol(seed) }

// Point is one aggregated tree-size observation.
type Point = mcast.Point

// Mode selects the receiver-drawing protocol.
type Mode = mcast.Mode

// Receiver-drawing modes: Distinct draws exactly m distinct sites (the
// L(m) protocol); WithReplacement draws n sites with replacement (L̄(n)).
const (
	Distinct        = mcast.Distinct
	WithReplacement = mcast.WithReplacement
)

// MeasureCurve runs the §2 protocol on g over the given group sizes.
func MeasureCurve(g *Topology, sizes []int, mode Mode, p Protocol) ([]Point, error) {
	return mcast.MeasureCurve(g, sizes, mode, p)
}

// MeasureCurveCtx is MeasureCurve under a cancellation context: the worker
// pool polls ctx at grid-point granularity and returns ctx's error promptly
// once it is cancelled.
func MeasureCurveCtx(ctx context.Context, g *Topology, sizes []int, mode Mode, p Protocol) ([]Point, error) {
	return mcast.MeasureCurveCtx(ctx, g, sizes, mode, p)
}

// LogSpacedSizes returns up to count group sizes spanning [1, max],
// geometrically spaced.
func LogSpacedSizes(max, count int) []int { return mcast.LogSpacedSizes(max, count) }

// CoreStrategy selects the core of a shared (core-based) multicast tree.
type CoreStrategy = mcast.CoreStrategy

// Shared-tree core placement strategies.
const (
	CoreRandom = mcast.CoreRandom
	CoreSource = mcast.CoreSource
	CoreCenter = mcast.CoreCenter
)

// SharedPoint aggregates one group size of a shared-vs-source comparison.
type SharedPoint = mcast.SharedPoint

// MeasureSharedCurve compares core-based shared trees against source-rooted
// trees under the §2 protocol (the comparison the paper's footnote 1 defers
// to Wei-Estrin).
func MeasureSharedCurve(g *Topology, sizes []int, strategy CoreStrategy, p Protocol) ([]SharedPoint, error) {
	return mcast.MeasureSharedCurve(g, sizes, strategy, p)
}

// MeasureSharedCurveCtx is MeasureSharedCurve under a cancellation context.
func MeasureSharedCurveCtx(ctx context.Context, g *Topology, sizes []int, strategy CoreStrategy, p Protocol) ([]SharedPoint, error) {
	return mcast.MeasureSharedCurveCtx(ctx, g, sizes, strategy, p)
}

// MeasureEnsemble runs the footnote 4 protocol: average MeasureCurve over
// nNetworks fresh topologies built by gen.
func MeasureEnsemble(gen func(seed int64) (*Topology, error), nNetworks int, sizes []int, mode Mode, p Protocol) ([]Point, error) {
	return mcast.MeasureEnsemble(gen, nNetworks, sizes, mode, p)
}

// MeasureEnsembleCtx is MeasureEnsemble under a cancellation context; a
// panicking generator is recovered into an error carrying the panic value
// and stack instead of killing the process.
func MeasureEnsembleCtx(ctx context.Context, gen func(seed int64) (*Topology, error), nNetworks int, sizes []int, mode Mode, p Protocol) ([]Point, error) {
	return mcast.MeasureEnsembleCtx(ctx, gen, nNetworks, sizes, mode, p)
}

// SteinerTreeSize returns the link count of the Kou-Markowsky-Berman
// 2-approximate Steiner tree spanning the source and receivers — the
// near-optimal baseline for the paper's shortest-path trees.
func SteinerTreeSize(g *Topology, source int, receivers []int32) (int, error) {
	return steiner.TreeSize(g, source, receivers)
}

// SteinerEdge is an undirected link of a Steiner tree.
type SteinerEdge = steiner.Edge

// SteinerTree returns the edge set of the KMB approximate Steiner tree.
func SteinerTree(g *Topology, source int, receivers []int32) ([]SteinerEdge, error) {
	return steiner.Tree(g, source, receivers)
}

// WeightedTopology pairs a topology with per-link weights (the footnote 3
// extension: the paper counts hops; this supports length-weighted costs).
type WeightedTopology = wgraph.WGraph

// GeoTopology is a weighted topology with plane coordinates and Euclidean
// link weights.
type GeoTopology = wgraph.GeoGraph

// WeightedPoint is one group size of a hop-vs-weighted comparison.
type WeightedPoint = wgraph.WeightedPoint

// NewWeightedTopology attaches a symmetric positive weight function to a
// topology.
func NewWeightedTopology(g *Topology, weight func(u, v int) float64) (*WeightedTopology, error) {
	return wgraph.New(g, weight)
}

// WaxmanGeo generates a Waxman graph with Euclidean link weights.
func WaxmanGeo(n int, alpha, beta float64, seed int64) (*GeoTopology, error) {
	return wgraph.WaxmanGeo(n, alpha, beta, seed)
}

// MeasureWeightedCurve measures hop-count and length-weighted normalized
// tree sizes on the same samples.
func MeasureWeightedCurve(gg *GeoTopology, sizes []int, nSource, nRcvr int, seed int64) ([]WeightedPoint, error) {
	return wgraph.MeasureWeightedCurve(gg, sizes, nSource, nRcvr, seed)
}

// TreeCounter measures delivery-tree sizes against a fixed SPT.
type TreeCounter = mcast.TreeCounter

// NewTreeCounter returns a counter for graphs of at most n nodes.
func NewTreeCounter(n int) *TreeCounter { return mcast.NewTreeCounter(n) }

// DynTree is an incrementally maintained delivery tree: Join grafts a
// receiver along its shortest path to the first on-tree node and Leave
// prunes the branch it no longer shares, both in O(path-to-tree) — the
// engine behind the churn workload. A positive degree cap enables the
// bounded-degree variant (degree-constrained grafting in the style of
// arXiv 0906.0379).
type DynTree = mcast.DynTree

// NewDynTree builds an incremental delivery tree rooted at spt's source
// (degreeCap 0 = unbounded).
func NewDynTree(g *Topology, spt *SPT, degreeCap int) (*DynTree, error) {
	return mcast.NewDynTree(g, spt, degreeCap)
}

// ChurnConfig parameterizes the dynamic-membership workload: Poisson
// arrivals at rate m̄/E[S] with i.i.d. session lengths, measured at steady
// state.
type ChurnConfig = mcast.ChurnConfig

// ChurnResult aggregates one churn run's steady-state statistics.
type ChurnResult = mcast.ChurnResult

// ChurnVariant selects the tree maintained under churn.
type ChurnVariant = mcast.ChurnVariant

// Churn tree variants: source-rooted shortest-path, core-rooted shared,
// and degree-bounded grafting.
const (
	ChurnSPT     = mcast.ChurnSPT
	ChurnShared  = mcast.ChurnShared
	ChurnBounded = mcast.ChurnBounded
)

// SessionDist selects the churn session-length distribution.
type SessionDist = mcast.SessionDist

// Session-length distributions: exponential (memoryless), Pareto
// (heavy-tailed, α > 1), and fixed-length sessions.
const (
	SessionExp    = mcast.SessionExp
	SessionPareto = mcast.SessionPareto
	SessionFixed  = mcast.SessionFixed
)

// ParseSessionDist resolves "exp", "pareto" or "fixed" (empty = exp).
func ParseSessionDist(s string) (SessionDist, error) { return mcast.ParseSessionDist(s) }

// MeasureChurn drives DynTrees with the Poisson join/leave workload over
// the protocol's sources and reduces the per-source steady-state
// statistics deterministically (only EventsPerSec is wall-clock).
func MeasureChurn(g *Topology, cfg ChurnConfig, p Protocol) (*ChurnResult, error) {
	return mcast.MeasureChurn(g, cfg, p)
}

// MeasureChurnCtx is MeasureChurn under a cancellation context. Unlike the
// static engines, cancellation returns BOTH the partial result (with
// ctx.Err() recorded in its Err field) and the context's error.
func MeasureChurnCtx(ctx context.Context, g *Topology, cfg ChurnConfig, p Protocol) (*ChurnResult, error) {
	return mcast.MeasureChurnCtx(ctx, g, cfg, p)
}

// Increments is the empirical ΔL̄(j) measurement of the §3 derivative
// analysis.
type Increments = mcast.Increments

// MeasureIncrements measures the expected number of links each successive
// receiver adds to the delivery tree.
func MeasureIncrements(g *Topology, maxM int, p Protocol) (*Increments, error) {
	return mcast.MeasureIncrements(g, maxM, p)
}

// AnalyticTree exposes the paper's closed-form k-ary theory (§3, §5.2-5.3).
type AnalyticTree = analytic.Tree

// ExpectedDistinct is Equation 1: E[distinct sites] after n draws from M.
func ExpectedDistinct(M, n float64) (float64, error) { return analytic.ExpectedDistinct(M, n) }

// RequiredDraws inverts Equation 1.
func RequiredDraws(M, m float64) (float64, error) { return analytic.RequiredDraws(M, m) }

// ChuangSirbuReference returns the m^0.8 reference value.
func ChuangSirbuReference(m float64) float64 { return analytic.ChuangSirbuReference(m) }

// Reachability is the paper's S(r)/T(r) machinery (§4).
type Reachability = reach.Reachability

// GrowthClass labels reachability growth (exponential / sub / super).
type GrowthClass = reach.GrowthClass

// Reachability growth classes.
const (
	GrowthExponential      = reach.GrowthExponential
	GrowthSubExponential   = reach.GrowthSubExponential
	GrowthSuperExponential = reach.GrowthSuperExponential
)

// MeasureReachability computes S(r) averaged over nSources random sources.
func MeasureReachability(g *Topology, nSources int, seed int64) (*Reachability, error) {
	return reach.MeasureAveraged(g, nSources, seed)
}

// ReachabilityFigure8Models returns the three synthetic S(r) models of
// Figure 8, normalized to equal S(D).
func ReachabilityFigure8Models(k, lambda float64, depth int) (exp, power, gaussian *Reachability, err error) {
	return reach.Figure8Models(k, lambda, depth)
}

// AffinityTreeModel is the k-ary substrate for affinity sampling (§5).
type AffinityTreeModel = affinity.TreeModel

// AffinityParams controls the Metropolis sampler.
type AffinityParams = affinity.Params

// AffinityEstimate is the sampled L̄_β(n) for one (β, n).
type AffinityEstimate = affinity.Estimate

// NewAffinityTreeModel builds the k-ary tree substrate for affinity
// sampling.
func NewAffinityTreeModel(k, depth int) (*AffinityTreeModel, error) {
	return affinity.NewTreeModel(k, depth)
}

// EstimateAffinity samples L̄_β(n) on a k-ary tree with receivers at all
// non-root sites.
func EstimateAffinity(m *AffinityTreeModel, n int, beta float64, p AffinityParams) (AffinityEstimate, error) {
	return affinity.EstimateTreeSize(context.Background(), m, n, beta, p)
}

// AffinityChain is the k-ary tree Metropolis sampler; build one with
// AffinityTreeModel.NewChain (receivers at all sites, §5.4) or
// AffinityTreeModel.NewLeafChain (receivers at leaves, §5.2-5.3).
type AffinityChain = affinity.Chain

// IntegratedAutocorrTime estimates the autocorrelation time of an MCMC
// series (effective sample size = len/τ).
func IntegratedAutocorrTime(xs []float64) (float64, error) {
	return affinity.IntegratedAutocorrTime(xs)
}

// AffinityGraphChain is the general-graph Metropolis sampler for W_α(β).
type AffinityGraphChain = affinity.GraphChain

// NewAffinityGraphChain builds an affinity chain on an arbitrary connected
// graph (≤ affinity.MaxGraphChainNodes nodes).
func NewAffinityGraphChain(g *Topology, source, n int, beta float64, seed int64) (*AffinityGraphChain, error) {
	return affinity.NewGraphChain(g, source, n, beta, rng.New(seed))
}

// Curve is a measured normalized tree-size curve with model fitting.
type Curve = core.Curve

// PSTFit is the paper's logarithmic-correction model fit.
type PSTFit = core.PSTFit

// Comparison contrasts the Chuang-Sirbu and PST fits of one curve.
type Comparison = core.Comparison

// CurveFromPoints converts estimator output into a fittable Curve.
func CurveFromPoints(pts []Point) Curve { return core.FromPoints(pts) }

// Pricing is the Chuang-Sirbu cost-based multicast tariff.
type Pricing = core.Pricing

// DefaultPricing returns the canonical m^0.8 tariff.
func DefaultPricing(unicastPrice float64) Pricing { return core.DefaultPricing(unicastPrice) }

// CalibratedPricing builds a tariff from a measured curve's fitted exponent.
func CalibratedPricing(c Curve, unicastPrice float64) (Pricing, error) {
	return core.CalibratedPricing(c, unicastPrice)
}

// Profile scales experiments between smoke runs and the paper protocol.
type Profile = experiments.Profile

// Result is the output of one experiment.
type Result = experiments.Result

// Profiles: paper-faithful, CLI default, and test/bench scale.
func PaperProfile() Profile  { return experiments.Paper() }
func MediumProfile() Profile { return experiments.Medium() }
func QuickProfile() Profile  { return experiments.Quick() }

// ProfileByName resolves "paper", "medium" or "quick".
func ProfileByName(name string) (Profile, error) { return experiments.ProfileByName(name) }

// ExperimentIDs lists every reproducible table/figure identifier in paper
// order.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentListing is one registry entry: id, one-line title, description.
type ExperimentListing = experiments.Info

// ListExperiments returns every registered experiment's listing in paper
// order — the listing `mtsim -list` and mtsimd's /experiments print.
func ListExperiments() []ExperimentListing { return experiments.List() }

// ErrInvalidParam is the sentinel wrapped by every boundary-validation
// failure (bad profile fields, impossible group sizes, NaN affinity β).
// Serving layers use errors.Is(err, ErrInvalidParam) to answer 400 instead
// of 500.
var ErrInvalidParam = valid.ErrParam

// RunExperiment reproduces one paper table or figure.
func RunExperiment(id string, p Profile) (*Result, error) { return experiments.Run(id, p) }

// RunExperimentCtx is RunExperiment under a cancellation context: the
// measurement engines poll ctx at grid-point granularity and the run returns
// ctx's error promptly after cancellation.
func RunExperimentCtx(ctx context.Context, id string, p Profile) (*Result, error) {
	return experiments.RunCtx(ctx, id, p)
}

// WriteReport runs every experiment under the profile and writes a
// consolidated Markdown report (the automated skeleton of EXPERIMENTS.md).
func WriteReport(w io.Writer, p Profile) error {
	return experiments.Report(w, p, time.Now())
}

// WriteReportCtx is WriteReport under a cancellation context.
func WriteReportCtx(ctx context.Context, w io.Writer, p Profile) error {
	return experiments.ReportCtx(ctx, w, p, time.Now())
}

// RenderReport writes the report of results already run under the profile,
// one section per result in the order given, without running anything.
func RenderReport(w io.Writer, p Profile, results []*Result) {
	experiments.RenderReport(w, p, results, time.Now())
}

// The cluster names below are not part of the paper's surface. They stay
// because perfbench, the benchmark module, shards a curve grid through
// them; mtctl and mtsimd use internal/cluster directly.

// ClusterGrid describes one shardable experiment sweep: a standard
// topology, a size grid, and the measurement protocol. Grids shard along
// the axes the engines reduce deterministically — source blocks for curve
// and shared sweeps, network blocks for ensembles — so a clustered run
// merges byte-identically to a single-process run.
type ClusterGrid = cluster.Grid

// ClusterCurve is the grid kind of the §2 curve protocol.
const ClusterCurve = cluster.KindCurve

// ClusterShardSpec is one contiguous block of a grid's sharding axis — the
// unit of work a coordinator posts to a worker's /shard endpoint.
type ClusterShardSpec = cluster.ShardSpec

// ClusterPartial is one shard's engine-specific partial sums, bound to its
// grid by key.
type ClusterPartial = cluster.Partial

// ClusterMerged is a grid's final merged result.
type ClusterMerged = cluster.Merged

// ClusterShardPath is the worker endpoint shard specs are posted to.
const ClusterShardPath = cluster.ShardPath

// PlanCluster cuts a grid's sharding axis into at most nShards balanced
// contiguous blocks.
func PlanCluster(g ClusterGrid, nShards int) ([]ClusterShardSpec, error) {
	return cluster.Plan(g, nShards)
}

// ExecuteClusterShard measures one shard in-process: the worker-side engine
// behind mtsimd's POST /shard.
func ExecuteClusterShard(ctx context.Context, spec ClusterShardSpec) (*ClusterPartial, error) {
	return cluster.ExecuteShard(ctx, spec)
}

// MergeClusterPartials folds shard partials into the grid's final result by
// replaying the unsharded engine's reduction order; the partials must tile
// the sharding axis exactly.
func MergeClusterPartials(g ClusterGrid, parts []*ClusterPartial) (*ClusterMerged, error) {
	return cluster.Merge(g, parts)
}

// RunClusterLocal measures a whole grid in-process through the unsharded
// engines — the byte-identity reference for clustered runs.
func RunClusterLocal(ctx context.Context, g ClusterGrid) (*ClusterMerged, error) {
	return cluster.RunLocal(ctx, g)
}

// ClusterCoordinator fans a grid out over mtsimd workers with bounded
// per-worker in-flight, Retry-After-aware 429 backoff, shard re-queue with
// a backoff bench for failing workers, and an fsynced resume journal.
type ClusterCoordinator = cluster.Coordinator

// ClusterOptions tunes a ClusterCoordinator; the zero value is usable.
type ClusterOptions = cluster.Options

// NewClusterCoordinator builds a coordinator over worker base URLs.
func NewClusterCoordinator(workers []string, opt ClusterOptions) (*ClusterCoordinator, error) {
	return cluster.New(workers, opt)
}

// Figure is a plottable set of series.
type Figure = plot.Figure

// Series is one named curve of a Figure.
type Series = plot.Series

// ASCIIOptions controls terminal rendering of figures.
type ASCIIOptions = plot.ASCIIOptions

// RenderASCII draws a figure as text.
func RenderASCII(f *Figure, opts ASCIIOptions) (string, error) { return plot.RenderASCII(f, opts) }

// WriteFigureCSV emits a figure's data in long-form CSV.
func WriteFigureCSV(w io.Writer, f *Figure) error { return plot.WriteCSV(w, f) }

// WriteFigureGnuplot emits a self-contained gnuplot script for a figure.
func WriteFigureGnuplot(w io.Writer, f *Figure) error { return plot.WriteGnuplot(w, f) }
