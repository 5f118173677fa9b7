package bulk

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
)

// snappedItems returns TIGER-ish rectangles on the 2^-16 grid.
func snappedItems(n int, seed int64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	inv := math.Ldexp(1, -16)
	snap := func(v float64) float64 { return math.Floor(v*65536) * inv }
	items := make([]geom.Item, n)
	for i := range items {
		x, y := snap(rng.Float64()*0.9), snap(rng.Float64()*0.9)
		items[i] = geom.Item{
			Rect: geom.NewRect(x, y, x+snap(rng.Float64()*0.01), y+snap(rng.Float64()*0.01)),
			ID:   uint32(i),
		}
	}
	return items
}

// windowIDSorted returns the items a window query reports, ordered by ID.
func windowIDSorted(tr *rtree.Tree, q geom.Rect) []geom.Item {
	var out []geom.Item
	tr.RunWindow(q, false, func(it geom.Item) bool {
		out = append(out, it)
		return true
	}, rtree.RunOptions{})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestLoadersCompressedLayout runs every loader under the compressed
// layout on both grid-aligned and full-precision data: trees must
// validate, answer queries identically to a raw-layout build of the same
// input, and (on grid data) occupy fewer pages.
func TestLoadersCompressedLayout(t *testing.T) {
	loaders := []Loader{LoaderHilbert, LoaderHilbert4D, LoaderSTR, LoaderTGS, LoaderPR}
	for _, l := range loaders {
		for _, grid := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/grid=%v", l, grid), func(t *testing.T) {
				var items []geom.Item
				if grid {
					items = snappedItems(6000, 42)
				} else {
					items = randItems(6000, 42)
				}
				build := func(layout rtree.Layout) *rtree.Tree {
					disk := storage.NewDisk(storage.DefaultBlockSize)
					pager := storage.NewPager(disk, -1)
					return FromItems(l, pager, items, Options{Layout: layout, MemoryItems: 1 << 14})
				}
				raw := build(rtree.LayoutRaw)
				comp := build(rtree.LayoutCompressed)
				if err := comp.Validate(); err != nil {
					t.Fatalf("compressed tree invalid: %v", err)
				}
				if comp.Len() != len(items) {
					t.Fatalf("lost items: %d != %d", comp.Len(), len(items))
				}
				if grid && comp.Nodes() >= raw.Nodes() {
					t.Errorf("compressed tree not smaller on grid data: %d vs %d pages", comp.Nodes(), raw.Nodes())
				}
				rng := rand.New(rand.NewSource(7))
				for i := 0; i < 25; i++ {
					x, y := rng.Float64(), rng.Float64()
					q := geom.NewRect(x, y, x+0.05+rng.Float64()*0.1, y+0.05+rng.Float64()*0.1)
					if err := rtree.CheckQueryAgainstBruteForce(comp, items, q); err != nil {
						t.Fatalf("compressed: %v", err)
					}
					a := windowIDSorted(raw, q)
					b := windowIDSorted(comp, q)
					if len(a) != len(b) {
						t.Fatalf("query %v: raw %d results, compressed %d", q, len(a), len(b))
					}
					for j := range a {
						if a[j] != b[j] {
							t.Fatalf("query %v result %d: %v != %v", q, j, a[j], b[j])
						}
					}
				}
			})
		}
	}
}

// TestCompressedBuildWritesFewerBlocks checks the bulk-loading side of the
// layout claim: page writes during the build drop with the higher fanout
// (the input streams stay 36-byte records, so the sort I/O is unchanged —
// only the emitted tree shrinks).
func TestCompressedBuildWritesFewerBlocks(t *testing.T) {
	items := snappedItems(20000, 9)
	measure := func(layout rtree.Layout) (uint64, int) {
		disk := storage.NewDisk(storage.DefaultBlockSize)
		pager := storage.NewPager(disk, -1)
		in := storage.NewItemFileFrom(disk, items)
		disk.ResetStats()
		tree := Load(LoaderHilbert, pager, in, Options{Layout: layout, MemoryItems: 1 << 14})
		return disk.Stats().Writes, tree.Nodes()
	}
	rawWrites, rawPages := measure(rtree.LayoutRaw)
	compWrites, compPages := measure(rtree.LayoutCompressed)
	if compPages*2 >= rawPages {
		t.Errorf("compressed pages %d not ~3x below raw %d", compPages, rawPages)
	}
	if compWrites >= rawWrites {
		t.Errorf("compressed build wrote %d blocks, raw %d", compWrites, rawWrites)
	}
}

// TestProbeLosslessDecidesTGSLeafCapacity pins the TGS capacity rule: on
// guaranteed-lossless data TGS packs compressed-capacity leaves; on
// full-precision data it packs raw-capacity leaves (and still validates).
func TestProbeLosslessDecidesTGSLeafCapacity(t *testing.T) {
	leafSizes := func(tr *rtree.Tree) (max int) {
		tr.Walk(func(_ storage.PageID, _ int, isLeaf bool, entries []geom.Item) {
			if isLeaf && len(entries) > max {
				max = len(entries)
			}
		})
		return max
	}
	build := func(items []geom.Item) *rtree.Tree {
		disk := storage.NewDisk(storage.DefaultBlockSize)
		return FromItems(LoaderTGS, storage.NewPager(disk, -1), items,
			Options{Layout: rtree.LayoutCompressed, MemoryItems: 1 << 14})
	}
	grid := build(snappedItems(4000, 3))
	if max := leafSizes(grid); max <= rtree.MaxFanout(storage.DefaultBlockSize) {
		t.Errorf("TGS on guaranteed data packed leaves of at most %d (raw capacity)", max)
	}
	noisy := build(randItems(4000, 3))
	if max := leafSizes(noisy); max > rtree.MaxFanout(storage.DefaultBlockSize) {
		t.Errorf("TGS on full-precision data packed a %d-entry leaf beyond the raw capacity", max)
	}
	for _, tr := range []*rtree.Tree{grid, noisy} {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
