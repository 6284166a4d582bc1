// Package cluster shards experiment grids across mtsimd workers and merges
// their partial statistics deterministically: a clustered run is
// byte-identical to a single-process run, including after worker failures
// and coordinator restarts.
//
// The layer rests on two properties of the measurement engines:
//
//   - every curve engine keys a source's RNG stream by its GLOBAL protocol
//     index and reduces per-(source, size) partial sums in source order, so
//     a source block measured alone produces exactly the cells the full
//     sweep would (mcast.MeasureCurvePartialCtx and friends);
//   - ensemble instances derive generation and measurement seeds from their
//     global network index and are reduced in network order.
//
// Grids therefore shard along exactly those two axes — source blocks and
// ensemble network blocks. Curve-segment sharding (splitting the sizes
// grid) is deliberately not offered: a source's sampler stream is consumed
// across the whole grid in order, so a segment shard would observe
// different draws than the unsharded run and the merge would not be
// byte-identical.
package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
	"mtreescale/internal/topology"
	"mtreescale/internal/valid"
)

// Kind selects the measurement engine a grid runs through.
type Kind string

const (
	// KindCurve is the §2 L(m)/ū protocol (mcast.MeasureCurve; the nested
	// engine when Protocol.Nested is set).
	KindCurve Kind = "curve"
	// KindShared is the Wei-Estrin shared-tree comparison
	// (mcast.MeasureSharedCurve).
	KindShared Kind = "shared"
	// KindEnsemble is footnote 4's N_network protocol
	// (mcast.MeasureEnsemble); shards by network block.
	KindEnsemble Kind = "ensemble"
)

// Grid describes one shardable sweep: a standard topology, a size grid, and
// the measurement protocol. It is the unit a coordinator plans, the wire
// shape workers receive inside a ShardSpec, and the identity journal records
// bind to (see Key).
type Grid struct {
	Kind Kind `json:"kind"`
	// Topology names a standard topology (topology.StandardNames); Seed 0
	// means its canonical instance. For KindEnsemble the topology is
	// regenerated per network from seeds split off Protocol.Seed, exactly as
	// mcast.MeasureEnsemble does.
	Topology string  `json:"topology"`
	Seed     int64   `json:"seed,omitempty"`
	Scale    float64 `json:"scale"`
	// LargeGraph builds the topology in the compressed CSR layout
	// (byte-identical results; a memory knob).
	LargeGraph bool `json:"large_graph,omitempty"`

	Sizes []int      `json:"sizes"`
	Mode  mcast.Mode `json:"mode"`
	// Strategy is the core placement for KindShared grids.
	Strategy mcast.CoreStrategy `json:"strategy,omitempty"`
	// NNetworks is the ensemble width for KindEnsemble grids.
	NNetworks int `json:"n_networks,omitempty"`

	Protocol mcast.Protocol `json:"protocol"`
}

// Validate checks grid sanity. Failures wrap valid.ErrParam so serving
// boundaries map them to 400 rather than 500.
func (g Grid) Validate() error {
	switch g.Kind {
	case KindCurve, KindShared, KindEnsemble:
	default:
		return valid.Badf("cluster: unknown grid kind %q", g.Kind)
	}
	if _, err := topology.Lookup(g.Topology); err != nil {
		return valid.Badf("cluster: %v", err)
	}
	if !(g.Scale > 0 && g.Scale <= 1) {
		return valid.Badf("cluster: scale must be in (0,1], got %v", g.Scale)
	}
	if len(g.Sizes) == 0 {
		return valid.Badf("cluster: empty size grid")
	}
	if err := g.Protocol.Validate(); err != nil {
		return err
	}
	if g.Kind == KindEnsemble && g.NNetworks < 1 {
		return valid.Badf("cluster: ensemble grid needs NNetworks >= 1, got %d", g.NNetworks)
	}
	return nil
}

// Span is the length of the grid's sharding axis: NSource for curve and
// shared grids, NNetworks for ensembles.
func (g Grid) Span() int {
	if g.Kind == KindEnsemble {
		return g.NNetworks
	}
	return g.Protocol.NSource
}

// Key fingerprints the grid. Results are deterministic functions of the
// grid, so (key, block) identifies a partial exactly — the property journal
// resume and shard re-queue rest on. %#v covers every field including ones
// added later.
func (g Grid) Key() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", g)))
	return hex.EncodeToString(sum[:])
}

// ShardSpec is the unit of work a coordinator posts to a worker: one
// contiguous block [Lo, Hi) of a grid's sharding axis.
type ShardSpec struct {
	Grid Grid `json:"grid"`
	Lo   int  `json:"lo"`
	Hi   int  `json:"hi"`
}

// Validate checks the spec's grid and block.
func (s ShardSpec) Validate() error {
	if err := s.Grid.Validate(); err != nil {
		return err
	}
	if s.Lo < 0 || s.Hi > s.Grid.Span() || s.Lo >= s.Hi {
		return valid.Badf("cluster: shard block [%d, %d) out of [0, %d)", s.Lo, s.Hi, s.Grid.Span())
	}
	return nil
}

// Plan cuts a grid's sharding axis into at most nShards contiguous blocks,
// balanced to within one unit (the first span%nShards blocks are one
// larger). Fewer shards come back when the axis is shorter than nShards.
func Plan(g Grid, nShards int) ([]ShardSpec, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if nShards < 1 {
		return nil, valid.Badf("cluster: need >= 1 shard, got %d", nShards)
	}
	span := g.Span()
	if nShards > span {
		nShards = span
	}
	per, extra := span/nShards, span%nShards
	specs := make([]ShardSpec, 0, nShards)
	lo := 0
	for i := 0; i < nShards; i++ {
		hi := lo + per
		if i < extra {
			hi++
		}
		specs = append(specs, ShardSpec{Grid: g, Lo: lo, Hi: hi})
		lo = hi
	}
	return specs, nil
}

// Partial is one shard's result: the engine-specific partial sums for the
// block [Lo, Hi), tagged with the grid key so a journal line or a worker
// response can be bound to the exact grid that produced it.
type Partial struct {
	Key string `json:"key"`
	Lo  int    `json:"lo"`
	Hi  int    `json:"hi"`

	Curve    *mcast.CurvePartial    `json:"curve,omitempty"`
	Shared   *mcast.SharedPartial   `json:"shared,omitempty"`
	Ensemble *mcast.EnsemblePartial `json:"ensemble,omitempty"`

	// Sum is the payload checksum Seal stamps and VerifySum checks at every
	// trust boundary (wire decode, journal resume, merge); see integrity.go.
	Sum string `json:"sum,omitempty"`
}

// Merged is a grid's final result: Points for curve and ensemble grids,
// SharedPoints for shared grids.
type Merged struct {
	Points       []mcast.Point       `json:"points,omitempty"`
	SharedPoints []mcast.SharedPoint `json:"shared_points,omitempty"`
}

// buildTopology resolves the grid's topology through the generation cache,
// so repeated shards of the same grid on one worker reuse one instance.
func buildTopology(g Grid) (*graph.Graph, error) {
	return topology.GenerateCachedOpt(g.Topology, g.Seed, g.Scale, g.LargeGraph)
}

// ensembleGen builds one ensemble network instance: a fresh, uncached build
// (transient topologies must not pin the generation cache), compressed when
// the grid asks for it.
func ensembleGen(g Grid) func(seed int64) (*graph.Graph, error) {
	return func(seed int64) (*graph.Graph, error) {
		gr, err := topology.GenerateSeeded(g.Topology, seed, g.Scale)
		if err != nil {
			return nil, err
		}
		if g.LargeGraph {
			return gr.Compress()
		}
		return gr, nil
	}
}

// ExecuteShard measures one shard: the worker-side entry point behind
// mtsimd's POST /shard and the coordinator's -local mode. The partial it
// returns is exactly the block the unsharded engine would compute.
func ExecuteShard(ctx context.Context, spec ShardSpec) (*Partial, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := spec.Grid
	out := &Partial{Key: g.Key(), Lo: spec.Lo, Hi: spec.Hi}
	switch g.Kind {
	case KindCurve:
		gr, err := buildTopology(g)
		if err != nil {
			return nil, err
		}
		out.Curve, err = mcast.MeasureCurvePartialCtx(ctx, gr, g.Sizes, g.Mode, g.Protocol, spec.Lo, spec.Hi)
		if err != nil {
			return nil, err
		}
	case KindShared:
		gr, err := buildTopology(g)
		if err != nil {
			return nil, err
		}
		out.Shared, err = mcast.MeasureSharedCurvePartialCtx(ctx, gr, g.Sizes, g.Strategy, g.Protocol, spec.Lo, spec.Hi)
		if err != nil {
			return nil, err
		}
	case KindEnsemble:
		var err error
		out.Ensemble, err = mcast.MeasureEnsemblePartialCtx(ctx, ensembleGen(g), g.NNetworks, g.Sizes, g.Mode, g.Protocol, spec.Lo, spec.Hi)
		if err != nil {
			return nil, err
		}
	}
	if err := out.Seal(); err != nil {
		return nil, err
	}
	return out, nil
}

// Merge folds shard partials into the grid's final result by replaying the
// unsharded engine's reduction order. The partials must tile the grid's
// sharding axis exactly; each must carry the engine payload its kind
// demands and the grid's own key.
func Merge(g Grid, parts []*Partial) (*Merged, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	key := g.Key()
	for _, p := range parts {
		if p == nil {
			return nil, valid.Badf("cluster: nil partial")
		}
		if p.Key != key {
			return nil, valid.Badf("cluster: partial for grid %.12s, want %.12s", p.Key, key)
		}
		// Sealed partials re-verify at the merge — the last line of defense
		// against corruption between decode/resume and here. Unsealed ones
		// (hand-built in-process, e.g. by tests of the reduce layer) pass;
		// the wire and journal boundaries already insist on seals.
		if p.Sum != "" {
			if err := p.VerifySum(); err != nil {
				return nil, err
			}
		}
	}
	switch g.Kind {
	case KindCurve:
		sub := make([]*mcast.CurvePartial, len(parts))
		for i, p := range parts {
			if p.Curve == nil {
				return nil, valid.Badf("cluster: partial [%d, %d) missing curve payload", p.Lo, p.Hi)
			}
			sub[i] = p.Curve
		}
		pts, err := mcast.ReduceCurvePartials(g.Sizes, sub)
		if err != nil {
			return nil, err
		}
		return &Merged{Points: pts}, nil
	case KindShared:
		sub := make([]*mcast.SharedPartial, len(parts))
		for i, p := range parts {
			if p.Shared == nil {
				return nil, valid.Badf("cluster: partial [%d, %d) missing shared payload", p.Lo, p.Hi)
			}
			sub[i] = p.Shared
		}
		pts, err := mcast.ReduceSharedPartials(g.Sizes, sub)
		if err != nil {
			return nil, err
		}
		return &Merged{SharedPoints: pts}, nil
	case KindEnsemble:
		sub := make([]*mcast.EnsemblePartial, len(parts))
		for i, p := range parts {
			if p.Ensemble == nil {
				return nil, valid.Badf("cluster: partial [%d, %d) missing ensemble payload", p.Lo, p.Hi)
			}
			sub[i] = p.Ensemble
		}
		pts, err := mcast.ReduceEnsemblePartials(g.Sizes, sub)
		if err != nil {
			return nil, err
		}
		return &Merged{Points: pts}, nil
	}
	return nil, valid.Badf("cluster: unknown grid kind %q", g.Kind)
}

// RunLocal measures the whole grid in-process through the UNSHARDED engines:
// the reference a clustered run must match byte for byte, and the engine
// behind mtctl -local.
func RunLocal(ctx context.Context, g Grid) (*Merged, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	switch g.Kind {
	case KindCurve:
		gr, err := buildTopology(g)
		if err != nil {
			return nil, err
		}
		pts, err := mcast.MeasureCurveCtx(ctx, gr, g.Sizes, g.Mode, g.Protocol)
		if err != nil {
			return nil, err
		}
		return &Merged{Points: pts}, nil
	case KindShared:
		gr, err := buildTopology(g)
		if err != nil {
			return nil, err
		}
		pts, err := mcast.MeasureSharedCurveCtx(ctx, gr, g.Sizes, g.Strategy, g.Protocol)
		if err != nil {
			return nil, err
		}
		return &Merged{SharedPoints: pts}, nil
	case KindEnsemble:
		pts, err := mcast.MeasureEnsembleCtx(ctx, ensembleGen(g), g.NNetworks, g.Sizes, g.Mode, g.Protocol)
		if err != nil {
			return nil, err
		}
		return &Merged{Points: pts}, nil
	}
	return nil, valid.Badf("cluster: unknown grid kind %q", g.Kind)
}
