package main

import (
	"math"
	"math/rand"

	"prtree"
	"prtree/internal/geom"
	"prtree/internal/serve"
	"prtree/internal/workload"
)

// Query kinds of the workloads' mixes.
const (
	kindWindow = iota // 0.01%-area window centred on a data item
	kindPoint         // point probe at a data item's centre
	kindKNN           // 16 nearest neighbours of a data item's centre
	kindPaper         // uniform square of 0.25-2% area, the paper's regime
)

var kindNames = [...]string{"window", "point", "knn", "paper"}

const knnK = 16

// datasetSeed fixes the generated dataset across runs; --seed varies the
// queries and the write stream. Eastern's cluster layout changes with its
// seed, and with it the answer sizes, which would otherwise dominate the
// run-to-run spread of every latency.
const datasetSeed = 1

type query struct {
	kind int
	rect geom.Rect // window, point (degenerate) and paper queries
	x, y float64   // point and knn
}

// mix gives each query kind's share of a workload, in percent.
type mix struct{ window, point, knn, paper int }

// makePool draws n queries of the given mix from seed. Windows, points
// and k-NN probes are centred on data items, so they land where the data
// is; paper squares come from internal/workload, as in the paper's
// Section 3.3.
func makePool(items []geom.Item, n int, m mix, seed int64) []query {
	rng := rand.New(rand.NewSource(seed))
	world := geom.ItemsMBR(items)
	side := math.Sqrt(1e-4 * world.Area())
	paperAreas := []float64{0.0025, 0.005, 0.01, 0.02}
	paper := make([][]geom.Rect, len(paperAreas))
	for i, a := range paperAreas {
		paper[i] = workload.Squares(world, a, n/len(paperAreas)+1, seed+int64(i)+1)
	}
	pool := make([]query, n)
	for i := range pool {
		c := items[rng.Intn(len(items))].Rect
		cx, cy := (c.MinX+c.MaxX)/2, (c.MinY+c.MaxY)/2
		r := rng.Intn(100)
		switch {
		case r < m.window:
			pool[i] = query{kind: kindWindow, rect: geom.NewRect(cx-side/2, cy-side/2, cx+side/2, cy+side/2)}
		case r < m.window+m.point:
			pool[i] = query{kind: kindPoint, rect: geom.PointRect(cx, cy), x: cx, y: cy}
		case r < m.window+m.point+m.knn:
			pool[i] = query{kind: kindKNN, x: cx, y: cy}
		default:
			a := rng.Intn(len(paperAreas))
			pool[i] = query{kind: kindPaper, rect: paper[a][i/len(paperAreas)]}
		}
	}
	return pool
}

// fingerprint identifies an answer: its size and a hash of its items.
// Window-style answers hash order-independently (a sum of per-item
// mixes); k-NN answers hash their (distance, ID) order too.
type fingerprint struct {
	n int
	h uint64
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func itemHash(it geom.Item) uint64 {
	h := mix64(uint64(it.ID) + 1)
	for _, v := range [4]float64{it.Rect.MinX, it.Rect.MinY, it.Rect.MaxX, it.Rect.MaxY} {
		h = mix64(h ^ math.Float64bits(v))
	}
	return h
}

// setFP accumulates an order-independent fingerprint item by item.
type setFP fingerprint

func (f *setFP) add(it geom.Item) bool {
	f.n++
	f.h += itemHash(it)
	return true
}

func itemsFP(items []geom.Item) fingerprint {
	var f setFP
	for _, it := range items {
		f.add(it)
	}
	return fingerprint(f)
}

func neighborsFP(ids []geom.Item) fingerprint {
	f := fingerprint{n: len(ids)}
	for i, it := range ids {
		f.h = mix64(f.h ^ itemHash(it) ^ uint64(i))
	}
	return f
}

func facadeNeighborsFP(nbs []prtree.Neighbor) fingerprint {
	items := make([]geom.Item, len(nbs))
	for i, nb := range nbs {
		items[i] = nb.Item
	}
	return neighborsFP(items)
}

func wireNeighborsFP(nbs []serve.Neighbor) fingerprint {
	items := make([]geom.Item, len(nbs))
	for i, nb := range nbs {
		items[i] = nb.Item
	}
	return neighborsFP(items)
}

// treeQuery runs q against a static tree through the facade's v2 surface
// and returns its fingerprint. st, when non-nil, receives the traversal
// statistics.
func treeQuery(t *prtree.Tree, q query, st *prtree.QueryStats) (fingerprint, error) {
	if q.kind == kindKNN {
		pq := prtree.Nearest(q.x, q.y, knnK)
		if st != nil {
			pq = pq.WithStats(st)
		}
		nbs, err := t.CollectNearest(pq)
		return facadeNeighborsFP(nbs), err
	}
	pq := prtree.Window(q.rect)
	if st != nil {
		pq = pq.WithStats(st)
	}
	var f setFP
	err := t.Run(pq, f.add)
	return fingerprint(f), err
}

// reference answers every pool query on one unsharded reference tree.
func reference(ref *prtree.Tree, pool []query) ([]fingerprint, error) {
	want := make([]fingerprint, len(pool))
	for i, q := range pool {
		f, err := treeQuery(ref, q, nil)
		if err != nil {
			return nil, err
		}
		want[i] = f
	}
	return want, nil
}

// dynQuery is the benchmark's only call site of the dynamic index's
// v1-style query methods (Query and NearestNeighbors), so moving the
// benchmark to a v2 surface on Dynamic is one edit here. It returns the
// answer's items and, for windows, the traversal statistics.
func dynQuery(d *prtree.Dynamic, q query) ([]geom.Item, prtree.DynamicStats) {
	if q.kind == kindKNN {
		nbs := d.NearestNeighbors(q.x, q.y, knnK)
		out := make([]geom.Item, len(nbs))
		for i, nb := range nbs {
			out[i] = nb.Item
		}
		return out, prtree.DynamicStats{Results: len(out)}
	}
	var out []geom.Item
	st := d.Query(q.rect, func(it geom.Item) bool {
		out = append(out, it)
		return true
	})
	return out, st
}
