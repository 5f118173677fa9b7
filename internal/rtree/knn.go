package rtree

import (
	"sync"

	"prtree/internal/geom"
	"prtree/internal/storage"
)

// This file holds the plumbing of RunNearest's (query.go) best-first
// k-nearest-neighbor search, Hjaltason & Samet's incremental algorithm:
// the result type, the point-to-rectangle metric and the pooled frontier.

// Neighbor is one k-nearest-neighbor result with its squared distance
// from the query point to the rectangle (0 when the point is inside).
type Neighbor struct {
	Item  geom.Item
	Dist2 float64
}

// knnHeaps pools best-first search frontiers across RunNearest calls
// — per-goroutine scratch, like the traversal stacks, so concurrent k-NN
// queries never share a heap. Package-level because the heaps carry no
// per-tree state.
var knnHeaps = sync.Pool{New: func() interface{} { h := make(distHeap, 0, 64); return &h }}

// PointRectDist2 returns the squared Euclidean distance from a point to
// the nearest point of r (0 if inside) — the metric best-first search
// ranks by, exported so callers merging k-NN results from several sources
// (the logarithmic method's buffer and levels) rank identically.
func PointRectDist2(x, y float64, r geom.Rect) float64 {
	var dx, dy float64
	switch {
	case x < r.MinX:
		dx = r.MinX - x
	case x > r.MaxX:
		dx = x - r.MaxX
	}
	switch {
	case y < r.MinY:
		dy = r.MinY - y
	case y > r.MaxY:
		dy = y - r.MaxY
	}
	return dx*dx + dy*dy
}

type distEntry struct {
	dist2  float64
	page   storage.PageID
	isNode bool
	item   geom.Item
}

type distHeap []distEntry

func (h distHeap) Len() int { return len(h) }
func (h distHeap) Less(i, j int) bool {
	if h[i].dist2 != h[j].dist2 {
		return h[i].dist2 < h[j].dist2
	}
	// Pop items before nodes at equal distance so results surface eagerly;
	// among equal-distance items, pop ascending IDs so the emitted order is
	// deterministic regardless of tree shape.
	if h[i].isNode != h[j].isNode {
		return !h[i].isNode
	}
	if !h[i].isNode {
		return h[i].item.ID < h[j].item.ID
	}
	return false
}
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
