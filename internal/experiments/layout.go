package experiments

import (
	"fmt"

	"prtree/internal/bulk"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
	"prtree/internal/workload"
)

// snapBits is the coordinate grid of the layout experiments: 2^-16 of the
// unit square — the same 16-bit-per-dimension grid the Hilbert loaders
// quantize to, standing in for TIGER/Line's integer coordinates. A leaf
// quantizes losslessly whenever its extent is at most 65535 grid cells, so
// on a 2^16 grid effectively every leaf (including the PR-tree's
// world-spanning priority leaves) compresses and the full fanout win shows
// up at the leaf level where query I/O is paid; finer-grained data
// degrades gracefully, page by page, to raw leaves.
const snapBits = 16

// fig12Areas is the query-area sweep of Figure 12.
var fig12Areas = []float64{0.0025, 0.005, 0.0075, 0.01, 0.0125, 0.015, 0.0175, 0.02}

// layoutResult aggregates one (loader, layout) measurement.
type layoutResult struct {
	Fanout    int
	BuildIO   uint64
	Pages     int
	QueryIO   uint64 // leaf blocks fetched across the whole Fig12 sweep
	Results   uint64
	ResultSum uint64 // order-independent checksum (sum of result IDs)
	LeafUtil  float64
}

// measureLayout builds items with one loader under one layout and replays
// the Figure 12 query sweep in the paper's measurement mode: internal
// nodes pinned, no leaf cache, so query I/O is exactly the leaf blocks
// fetched from the simulated disk.
func measureLayout(l bulk.Loader, items []geom.Item, opt bulk.Options, queries []geom.Rect) layoutResult {
	disk := storage.NewDisk(storage.DefaultBlockSize)
	pager := storage.NewPager(disk, 0)
	in := storage.NewItemFileFrom(disk, items)
	disk.ResetStats()
	tree := bulk.Load(l, pager, in, opt)
	out := layoutResult{
		Fanout:  tree.Config().Fanout,
		BuildIO: disk.Stats().Total(),
		Pages:   tree.Nodes(),
	}
	out.LeafUtil, _ = tree.Utilization()
	tree.PinInternal()
	disk.ResetStats()
	for _, q := range queries {
		tree.RunWindow(q, false, func(it geom.Item) bool {
			out.Results++
			out.ResultSum += uint64(it.ID)
			return true
		}, rtree.RunOptions{})
	}
	out.QueryIO = disk.Stats().Total()
	return out
}

// LayoutSweep reproduces the Figure 9 (bulk-loading I/O) and Figure 12
// (query I/O vs query size) measurements under both page layouts on
// grid-snapped Western TIGER-like data, reporting the block-I/O reduction
// the compressed layout buys per loader. Result counts and an
// order-independent checksum are compared across layouts; any divergence
// is flagged in the row, since the compressed layout must not change what
// a query returns.
func LayoutSweep(cfg Config) Table {
	cfg = cfg.normalized()
	items := dataset.Snap(dataset.Western(cfg.n(120000), cfg.Seed), snapBits)
	world := geom.ItemsMBR(items)
	queries := make([]geom.Rect, 0, len(fig12Areas)*cfg.Queries)
	for qi, area := range fig12Areas {
		queries = append(queries, workload.Squares(world, area, cfg.Queries, cfg.Seed+int64(qi))...)
	}

	t := Table{
		ID:    "layout",
		Title: "Raw vs compressed page layout, Fig9 build I/O + Fig12 query sweep (snapped Western data)",
		Columns: []string{
			"tree", "layout", "fanout", "build I/O", "pages", "query I/O", "leaf util", "query I/O vs raw",
		},
		Notes: "entries: raw 36 B (fanout 113) vs compressed 12 B (fanout 338) at 4 KB; query I/O = leaf blocks fetched over the whole Fig12 area sweep, internals pinned",
	}

	var totalRaw, totalComp uint64
	for _, l := range paperLoaders {
		opt := cfg.bulkOptions()
		opt.Layout = rtree.LayoutRaw
		raw := measureLayout(l, items, opt, queries)
		opt.Layout = rtree.LayoutCompressed
		comp := measureLayout(l, items, opt, queries)
		totalRaw += raw.QueryIO
		totalComp += comp.QueryIO

		equal := "identical results"
		if raw.Results != comp.Results || raw.ResultSum != comp.ResultSum {
			equal = "RESULTS DIVERGED"
		}
		t.Rows = append(t.Rows, []string{
			l.String(), "raw", fmt.Sprintf("%d", raw.Fanout),
			fmtInt(raw.BuildIO), fmt.Sprintf("%d", raw.Pages), fmtInt(raw.QueryIO),
			fmt.Sprintf("%.2f", raw.LeafUtil), "1.00x",
		})
		t.Rows = append(t.Rows, []string{
			l.String(), "compressed", fmt.Sprintf("%d", comp.Fanout),
			fmtInt(comp.BuildIO), fmt.Sprintf("%d", comp.Pages), fmtInt(comp.QueryIO),
			fmt.Sprintf("%.2f", comp.LeafUtil),
			fmt.Sprintf("%.2fx lower (%s)", ratio(raw.QueryIO, comp.QueryIO), equal),
		})
	}
	t.Rows = append(t.Rows, []string{
		"all", "compressed", "", "", "", "",
		"", fmt.Sprintf("%.2fx lower aggregate", ratio(totalRaw, totalComp)),
	})
	return t
}

func ratio(raw, comp uint64) float64 {
	if comp == 0 {
		return 0
	}
	return float64(raw) / float64(comp)
}
