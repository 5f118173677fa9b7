package rtree

import (
	"prtree/internal/geom"
	"prtree/internal/parallel"
)

// This file implements the batch query executor: a slice of window queries
// fanned across a GOMAXPROCS-bounded worker pool. Each query runs whole on
// one goroutine with the same traversal as RunWindow, so per-query results and
// statistics are deterministic — identical to running the queries
// sequentially — and with an unbounded (or disabled) page cache the
// aggregate block-I/O is bit-identical too, because the pager's
// single-flight miss path charges each distinct page exactly once no matter
// how many workers race for it.

// QueryBatch runs every query in queries concurrently on up to workers
// goroutines (bounded by GOMAXPROCS; <= 1 means serial on the caller's
// goroutine) and returns per-query statistics indexed like queries. fn, if
// non-nil, receives each result item tagged with the index of the query
// that produced it; it may be called from multiple goroutines concurrently
// (never concurrently for the same query index) and must not mutate the
// tree. fn returning false stops that one query early, not the batch.
func (t *Tree) QueryBatch(queries []geom.Rect, workers int, fn func(qi int, it geom.Item) bool) []QueryStats {
	out := make([]QueryStats, len(queries))
	parallel.Run(workers, len(queries), func(i int) {
		var visit func(geom.Item) bool
		if fn != nil {
			visit = func(it geom.Item) bool { return fn(i, it) }
		}
		out[i], _ = t.RunWindow(queries[i], false, visit, RunOptions{})
	})
	return out
}

// SearchBatch runs every query concurrently on up to workers goroutines and
// returns the matching items per query plus the per-query statistics, both
// indexed like queries. Result slices preserve the traversal order, so
// SearchBatch(qs, w)[i] equals the items RunWindow reports for qs[i], in
// order, for any worker count.
func (t *Tree) SearchBatch(queries []geom.Rect, workers int) ([][]geom.Item, []QueryStats) {
	results := make([][]geom.Item, len(queries))
	stats := t.QueryBatch(queries, workers, func(qi int, it geom.Item) bool {
		results[qi] = append(results[qi], it)
		return true
	})
	return results, stats
}
