package mcast

import (
	"mtreescale/internal/graph"
)

// This file is the engines' batch source-scheduling path: a sweep's source
// trees are resolved through the multi-source BFS kernel in 64-lane batches
// *before* the worker fan-out, instead of one BFS inside each source job.
// Both kernels produce the same canonical trees, so engaging the batch path
// never changes a result — only how fast the trees appear.

// maxBatchSlabBytes caps the dist+parent slab footprint of one engine-level
// batch (512 MiB). A sweep whose (sources × nodes) footprint exceeds the cap
// falls back to per-source BFS rather than risk doubling a simulation-sized
// heap; results are identical either way.
const maxBatchSlabBytes = 512 << 20

// batchTrees holds a sweep's pre-resolved source trees: lane si of the slab
// is the shortest-path tree of sources[si]. Workers read their lane through
// zero-copy views; the slab is read-only once filled, so distinct workers
// need no synchronization.
type batchTrees struct {
	batch *graph.SPTBatch
}

// resolveBatch resolves a sweep's source trees up front when the protocol
// asks for batch scheduling. Outcomes:
//   - (nil, nil): batch path not engaged — flag off, nothing to batch, or
//     the slab would exceed maxBatchSlabBytes. Workers resolve per source
//     exactly as before.
//   - SPTCache on: graph.SharedSPTs is pre-filled via FillBatch (misses
//     computed in 64-lane MS-BFS groups, inserted under the same keys a
//     per-source fill would use); returns (nil, nil) because the workers'
//     cache Gets now all hit.
//   - SPTCache off: returns a batchTrees over exactly the sources slice;
//     the caller must release() it after the worker pool drains.
func resolveBatch(g *graph.Graph, sources []int, p Protocol) (*batchTrees, error) {
	if !p.BatchBFS || len(sources) == 0 {
		return nil, nil
	}
	if p.SPTCache {
		if err := graph.SharedSPTs.FillBatch(g, sources); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if int64(len(sources))*int64(g.N())*8 > maxBatchSlabBytes {
		return nil, nil
	}
	b := graph.AcquireSPTBatch()
	if err := g.BatchSPTsInto(sources, b); err != nil {
		graph.ReleaseSPTBatch(b)
		return nil, err
	}
	return &batchTrees{batch: b}, nil
}

// view fills t with lane si's zero-copy view of the slab. t.Order is nil —
// the measurement loops only read Dist/Parent/Source.
func (bt *batchTrees) view(si int, t *graph.SPT) { bt.batch.Lane(si, t) }

// release returns the slab to the pool. Nil-safe so engines can defer it
// unconditionally; no lane view may be used afterwards.
func (bt *batchTrees) release() {
	if bt != nil && bt.batch != nil {
		graph.ReleaseSPTBatch(bt.batch)
		bt.batch = nil
	}
}
