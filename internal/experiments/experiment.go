// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is registered under the paper's identifier
// (table1, fig1a ... fig9b) and produces a structured Result: a plot.Figure
// for figures, rows for tables, and Notes recording fitted slopes,
// exponents and classifications for EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
	"mtreescale/internal/plot"
	"mtreescale/internal/topology"
	"mtreescale/internal/valid"
)

// Profile scales an experiment between a seconds-long smoke run and the
// paper-faithful protocol.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// Scale shrinks the standard topologies, in (0, 1].
	Scale float64
	// NSource and NRcvr are the Monte-Carlo counts of §2 (paper: 100/100).
	NSource, NRcvr int
	// GridPoints is the number of group sizes per curve.
	GridPoints int
	// Seed drives every random stream.
	Seed int64
	// MCMCBurnIn and MCMCSamples control the affinity sampler sweeps.
	MCMCBurnIn, MCMCSamples int
	// MaxGroupSize caps the largest m/n measured on simulation-based
	// figures (0 = population limit).
	MaxGroupSize int
	// Nested selected the nested-growth curve engine, which has been
	// removed. Validate rejects true. The field stays so ProfileKey, and
	// with it every existing checkpoint journal, is unchanged.
	//
	// Deprecated: the independent-sets engine is the only curve engine;
	// this must be false.
	Nested bool
	// BatchBFS chose between the multi-source BFS kernel and per-source
	// BFS for the experiments' trees, two paths with byte-identical output.
	// It is ignored: graph.SweepSPTs builds every sweep's trees. The field
	// stays, either value valid, and the standard profiles keep setting it,
	// so ProfileKey, and with it every existing checkpoint journal and
	// mtsimd cache, is unchanged.
	//
	// Deprecated: there is one way to build a sweep's trees.
	BatchBFS bool
	// SPTCache routes every shortest-path-tree build through the
	// process-wide graph.SharedSPTs cache. Experiments sharing a profile
	// sweep the same cached topologies and redraw the same source streams,
	// so RunMany stops recomputing their trees. Output is byte-identical
	// with the cache on or off; the standard profiles enable it.
	SPTCache bool
	// LargeGraph selected the compressed adjacency layout, which has been
	// removed. Validate rejects true. The field stays so ProfileKey is
	// unchanged.
	//
	// Deprecated: graphs have one adjacency layout; this must be false.
	LargeGraph bool
	// ChurnCap is the bounded-degree tree variant's per-node degree cap in
	// the churn experiments (≥ 2; exposed as -churn-cap on the CLIs).
	ChurnCap int
	// ChurnSession selects the churn session-length distribution: "exp",
	// "pareto" or "fixed" (exposed as -churn-session on the CLIs).
	ChurnSession string
}

// Validate checks profile sanity. Failures wrap valid.ErrParam so callers at
// a serving boundary can map them to "bad request" rather than "server
// error". The Scale check is written positively so NaN (which fails every
// comparison) is rejected rather than slipping through.
func (p Profile) Validate() error {
	if !(p.Scale > 0 && p.Scale <= 1) {
		return valid.Badf("experiments: scale must be in (0,1], got %v", p.Scale)
	}
	if p.NSource < 1 || p.NRcvr < 1 {
		return valid.Badf("experiments: NSource/NRcvr must be >= 1 (got %d, %d)", p.NSource, p.NRcvr)
	}
	if p.GridPoints < 2 {
		return valid.Badf("experiments: need >= 2 grid points, got %d", p.GridPoints)
	}
	if p.MCMCBurnIn < 0 || p.MCMCSamples < 1 {
		return valid.Badf("experiments: bad MCMC sweeps (%d, %d)", p.MCMCBurnIn, p.MCMCSamples)
	}
	if p.MaxGroupSize < 0 {
		return valid.Badf("experiments: negative MaxGroupSize")
	}
	if p.Nested {
		return valid.Badf("experiments: Profile.Nested is no longer supported: the nested-growth curve engine was removed")
	}
	if p.LargeGraph {
		return valid.Badf("experiments: Profile.LargeGraph is no longer supported: the compressed adjacency layout was removed")
	}
	if p.ChurnCap != 0 && p.ChurnCap < 2 {
		return valid.Badf("experiments: churn degree cap %d must be 0 (default) or ≥ 2", p.ChurnCap)
	}
	if _, err := mcast.ParseSessionDist(p.ChurnSession); err != nil {
		return err
	}
	return nil
}

// Paper is the paper-faithful profile (§2: Nrcvr = 100, Nsource = 100).
// Full-size topologies; hours of CPU on the largest figures.
func Paper() Profile {
	return Profile{
		Name: "paper", Scale: 1, NSource: 100, NRcvr: 100,
		GridPoints: 24, Seed: 1999, MCMCBurnIn: 200, MCMCSamples: 400,
		SPTCache: true, BatchBFS: true, ChurnCap: 4, ChurnSession: "exp",
	}
}

// Medium is the default CLI profile: quarter-scale topologies, 30×30
// sampling. Minutes of CPU for the whole suite.
func Medium() Profile {
	return Profile{
		Name: "medium", Scale: 0.25, NSource: 30, NRcvr: 30,
		GridPoints: 16, Seed: 1999, MCMCBurnIn: 100, MCMCSamples: 200,
		SPTCache: true, BatchBFS: true, ChurnCap: 4, ChurnSession: "exp",
	}
}

// Quick is the test/bench profile: seconds for the whole suite.
func Quick() Profile {
	return Profile{
		Name: "quick", Scale: 0.05, NSource: 8, NRcvr: 8,
		GridPoints: 8, Seed: 1999, MCMCBurnIn: 30, MCMCSamples: 60,
		MaxGroupSize: 2000, SPTCache: true, BatchBFS: true,
		ChurnCap: 4, ChurnSession: "exp",
	}
}

// ProfileByName resolves "paper", "medium" or "quick".
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "paper":
		return Paper(), nil
	case "medium":
		return Medium(), nil
	case "quick":
		return Quick(), nil
	default:
		return Profile{}, fmt.Errorf("experiments: unknown profile %q (want paper|medium|quick)", name)
	}
}

// Result is the output of one experiment.
type Result struct {
	// ID is the experiment identifier (e.g. "fig3a").
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// Figure holds the curves for figure experiments; nil for tables.
	Figure *plot.Figure
	// Header+Rows hold tabular output for table experiments.
	Header []string
	Rows   [][]string
	// Notes records quantitative observations (fits, classifications)
	// used by EXPERIMENTS.md.
	Notes []string
}

// Runner executes one experiment under a profile. Run must observe ctx —
// return ctx.Err() promptly once the context is cancelled — so a scheduled
// suite can be interrupted without throwing away sibling experiments.
type Runner struct {
	ID          string
	Title       string
	Description string
	Run         func(ctx context.Context, p Profile) (*Result, error)
}

var registry = map[string]*Runner{}

// paperOrder is the canonical presentation order (init order across files
// is alphabetical by filename, which is not the paper's order).
var paperOrder = []string{
	"table1",
	"fig1a", "fig1b",
	"fig2a", "fig2b",
	"fig3a", "fig3b",
	"fig4a", "fig4b",
	"fig5a", "fig5b",
	"fig6a", "fig6b",
	"fig7a", "fig7b",
	"fig8",
	"fig9a", "fig9b",
	// Extensions beyond the paper (see extensions.go).
	"ext-shared", "ext-steiner", "ext-ensemble", "ext-weighted", "ext-affinity-graph",
	// The dynamic-membership workload family (see churn.go).
	"churn-steady", "churn-repair",
}

// Register adds an experiment to the registry. It rejects nil runners,
// missing IDs or Run functions, and duplicate IDs with an error instead of
// panicking, so embedders can register extension experiments defensively.
func Register(r *Runner) error {
	if r == nil {
		return fmt.Errorf("experiments: nil runner")
	}
	if r.ID == "" {
		return fmt.Errorf("experiments: runner with empty id")
	}
	if r.Run == nil {
		return fmt.Errorf("experiments: %s: nil Run function", r.ID)
	}
	if _, dup := registry[r.ID]; dup {
		return fmt.Errorf("experiments: duplicate id %q", r.ID)
	}
	registry[r.ID] = r
	return nil
}

// mustRegister is Register for init-time use, where a duplicate id is a
// programming error worth crashing on.
func mustRegister(r *Runner) {
	if err := Register(r); err != nil {
		panic(err)
	}
}

// IDs returns all experiment ids: those of the canonical list in paper
// order, then any others (experiments registered later) sorted by id, so
// the order never depends on map iteration.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, id := range paperOrder {
		if _, ok := registry[id]; ok {
			out = append(out, id)
		}
	}
	var extra []string
	for id := range registry {
		if !slices.Contains(paperOrder, id) {
			extra = append(extra, id)
		}
	}
	slices.Sort(extra)
	return append(out, extra...)
}

// Info is one registry listing entry: the experiment id with its one-line
// title, description and family — the shared shape behind `mtsim -list`
// (which groups by family) and the daemon's /experiments endpoint.
type Info struct {
	ID          string `json:"id"`
	Title       string `json:"title"`
	Description string `json:"description"`
	Family      string `json:"family"`
}

// familyOf derives an experiment's listing family from its id: the paper's
// tables and figures are the core "curve" family, each extension forms its
// own, and churn-* is the dynamic-membership workload family.
func familyOf(id string) string {
	switch {
	case strings.HasPrefix(id, "churn"):
		return "churn"
	case id == "ext-shared":
		return "shared"
	case id == "ext-steiner":
		return "steiner"
	case id == "ext-ensemble":
		return "ensemble"
	case id == "ext-weighted":
		return "weighted"
	case id == "ext-affinity-graph":
		return "affinity"
	default:
		return "curve"
	}
}

// List returns every registered experiment's Info in paper order.
func List() []Info {
	ids := IDs()
	out := make([]Info, 0, len(ids))
	for _, id := range ids {
		r := registry[id]
		out = append(out, Info{ID: id, Title: r.Title, Description: r.Description, Family: familyOf(id)})
	}
	return out
}

// Lookup returns the Runner for an id.
func Lookup(id string) (*Runner, error) {
	r, ok := registry[id]
	if !ok {
		ids := IDs()
		sort.Strings(ids)
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids)
	}
	return r, nil
}

// Run executes the experiment with the given profile.
func Run(id string, p Profile) (*Result, error) {
	return RunCtx(context.Background(), id, p)
}

// RunCtx executes the experiment under a cancellation context: the
// measurement engines poll ctx at grid-point granularity and the run
// returns ctx's error promptly after cancellation. A nil ctx means
// Background.
func RunCtx(ctx context.Context, id string, p Profile) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := r.Run(ctx, p)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return res, nil
}

// buildTopologies fetches the named standard topologies at profile scale
// through the generation cache, so experiments sharing a profile (table1,
// fig1a, fig6a, ...) reuse one instance per (name, seed, scale) instead of
// regenerating identical graphs. It polls ctx before each build.
func buildTopologies(ctx context.Context, names []string, p Profile) ([]*graph.Graph, error) {
	out := make([]*graph.Graph, 0, len(names))
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g, err := topology.GenerateCached(name, 0, p.Scale)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// capSize applies the profile's MaxGroupSize cap.
func (p Profile) capSize(max int) int {
	if p.MaxGroupSize > 0 && max > p.MaxGroupSize {
		return p.MaxGroupSize
	}
	return max
}

// sptCache returns the process-wide SPT cache when the profile enables it,
// nil otherwise — the form the reach package's cached entry points take.
func (p Profile) sptCache() *graph.SPTCache {
	if p.SPTCache {
		return graph.SharedSPTs
	}
	return nil
}
