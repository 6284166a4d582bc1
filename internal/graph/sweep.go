package graph

import (
	"fmt"
	"slices"
	"sync"
)

// This file is the one place a measurement sweep builds its sources'
// shortest-path trees. In the paper's §2 protocol every delivery tree is a
// subtree of its source's shortest-path tree (footnote 1), so every engine
// starts here, and how the trees are built is decided here alone.

// maxSweepSlabBytes caps the dist+parent slab of one uncached sweep (512
// MiB). A sweep whose sources × nodes footprint exceeds it builds each tree
// by BFS when the tree is read instead, rather than risk doubling a
// simulation-sized heap; the trees are the same either way.
const maxSweepSlabBytes = 512 << 20

// SweepTrees holds the shortest-path trees of a sweep's sources: tree i is
// sources[i]'s. Every tree is the canonical one BFSInto builds, however
// SweepSPTs got it.
type SweepTrees struct {
	g       *Graph
	sources []int
	cached  []*SPT // read from the cache, or empty
	batch   *SPTBatch
	views   []SPT // lane views of batch, or empty
}

// sweepPool recycles SweepTrees, so a warm sweep allocates nothing per
// source.
var sweepPool = sync.Pool{New: func() any { return new(SweepTrees) }}

// SweepSPTs builds the shortest-path trees of a sweep's sources:
//   - with a cache, it reads them all from it in one GetBatch, which
//     computes the misses through the MS-BFS kernel in 64-lane groups;
//   - without one, it computes them into one pooled MS-BFS slab, each tree
//     a zero-copy lane view with a nil Order;
//   - without one, when that slab would pass 512 MiB, it computes nothing:
//     Tree runs BFSInto into the caller's buffer.
//
// Duplicate sources are allowed. The trees are read-only, and distinct
// goroutines may read them at once. sources must not change until Release,
// after which no tree of the sweep may be read.
func SweepSPTs(g *Graph, sources []int, cache *SPTCache) (*SweepTrees, error) {
	return sweepSPTs(g, sources, cache, maxSweepSlabBytes)
}

// sweepSPTs is SweepSPTs with the slab cap as a parameter, so a test can
// reach the BFS fallback.
func sweepSPTs(g *Graph, sources []int, cache *SPTCache, maxSlab int64) (*SweepTrees, error) {
	for _, s := range sources {
		if s < 0 || s >= g.N() {
			return nil, fmt.Errorf("graph: BFS source %d out of range [0,%d)", s, g.N())
		}
	}
	st := sweepPool.Get().(*SweepTrees)
	st.g, st.sources = g, sources
	var err error
	switch {
	case len(sources) == 0:
	case cache != nil:
		st.cached, err = cache.GetBatch(g, sources, st.cached)
	case int64(len(sources))*int64(g.N())*8 <= maxSlab:
		st.batch = AcquireSPTBatch()
		if err = g.BatchSPTsInto(sources, st.batch); err == nil {
			st.views = slices.Grow(st.views[:0], len(sources))[:len(sources)]
			for i := range st.views {
				st.batch.Lane(i, &st.views[i])
			}
		}
	}
	if err != nil {
		st.Release()
		return nil, err
	}
	return st, nil
}

// Tree returns sources[i]'s tree. A tree from the cache or the slab is
// shared and buf is left alone; past the slab cap the tree is built into
// buf, which must not be shared across goroutines.
func (st *SweepTrees) Tree(i int, buf *SPT) (*SPT, error) {
	switch {
	case i < len(st.cached):
		return st.cached[i], nil
	case i < len(st.views):
		return &st.views[i], nil
	}
	if err := st.g.BFSInto(st.sources[i], buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Release ends the sweep and recycles its slab.
func (st *SweepTrees) Release() {
	if st.batch != nil {
		ReleaseSPTBatch(st.batch)
		st.batch = nil
	}
	// Drop every pointer into trees and slabs, so the pool pins neither.
	clear(st.cached[:cap(st.cached)])
	clear(st.views[:cap(st.views)])
	st.cached, st.views = st.cached[:0], st.views[:0]
	st.g, st.sources = nil, nil
	sweepPool.Put(st)
}
