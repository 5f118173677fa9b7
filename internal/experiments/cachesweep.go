package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"prtree/internal/bulk"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/storage"
	"prtree/internal/workload"
)

// CacheSweep measures the raw-speed I/O tier under cache pressure: a
// file-backed Fig12-style tree is served with the pager capacity capped
// far below the index size (10% and 25% of its pages), sweeping the
// eviction policy (lru, s3fifo), the structure-aware prefetcher (off, on)
// and the read path (plain file, mmap). The workload interleaves a hot
// working set — small windows confined to one corner of the world, whose
// leaf pages and ancestors are re-read constantly — with periodic large
// scan windows that flood the cache with one-touch pages: the access
// pattern LRU handles worst and S3-FIFO's probationary queue is built
// for.
//
// Two invariants are gated by TestCacheSweepGate (and CI) on top of the
// headline queries/sec:
//   - demand block reads are bit-identical with prefetch on and off at
//     every capacity, policy and backend — speculative I/O lands in the
//     separate PrefetchReads counter, never in the paper's accounting;
//   - the s3fifo hit rate is at least the lru hit rate on this workload.
func CacheSweep(cfg Config) Table {
	pts := cacheSweepRun(cfg)
	t := Table{
		ID:    "cachesweep",
		Title: "Cache-pressure sweep: eviction policy x prefetch x read path (file backend)",
		Columns: []string{
			"capacity", "backend", "policy", "prefetch", "queries/sec",
			"hit rate", "evictions", "demand reads", "prefetch reads", "demand identity",
		},
		Notes: "hot-set windows interleaved with scan floods; capacity in pages (percent of index); demand reads must be identical prefetch on vs off (speculative I/O is counted separately)",
	}
	for _, p := range pts {
		onOff := "off"
		if p.Prefetch {
			onOff = "on"
		}
		ident := "baseline"
		if p.Prefetch {
			ident = "identical"
			if p.DemandReads != p.BaselineReads {
				ident = fmt.Sprintf("DIVERGED (%+d)", int64(p.DemandReads)-int64(p.BaselineReads))
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d (%d%%)", p.Capacity, p.CapPct),
			p.Backend,
			p.Policy.String(),
			onOff,
			fmt.Sprintf("%.0f", p.QPS),
			fmt.Sprintf("%.1f%%", 100*p.HitRate),
			fmtInt(p.Evictions),
			fmtInt(p.DemandReads),
			fmtInt(p.PrefetchReads),
			ident,
		})
	}
	return t
}

// cachePoint is one sweep configuration's measurement.
type cachePoint struct {
	Backend  string // "file" or "mmap"
	CapPct   int
	Capacity int
	Policy   storage.EvictionPolicy
	Prefetch bool

	QPS           float64
	HitRate       float64
	Evictions     uint64
	DemandReads   uint64
	PrefetchReads uint64
	// BaselineReads is the demand-read count of the matching prefetch-off
	// run (equal to DemandReads for prefetch-off points).
	BaselineReads uint64
}

// cacheSweepWorkload builds the interleaved hot/scan query sequence. The
// hot set lives in the lower-left 25% x 25% corner of the world; every
// round runs hotPerRound tiny windows there and then one large scan
// window placed anywhere, so a policy that lets scans flush the hot
// working set pays on the very next round.
func cacheSweepWorkload(world geom.Rect, rounds int, seed int64) []geom.Rect {
	const hotPerRound = 8
	hotWorld := geom.NewRect(
		world.MinX, world.MinY,
		world.MinX+0.25*world.Width(), world.MinY+0.25*world.Height(),
	)
	hot := workload.Squares(hotWorld, 0.008, rounds*hotPerRound, seed)
	scans := workload.Squares(world, 0.02, rounds, seed+1)
	out := make([]geom.Rect, 0, len(hot)+len(scans))
	for r := 0; r < rounds; r++ {
		out = append(out, hot[r*hotPerRound:(r+1)*hotPerRound]...)
		out = append(out, scans[r])
	}
	return out
}

func cacheSweepRun(cfg Config) []cachePoint {
	cfg = cfg.normalized()
	dir, err := os.MkdirTemp("", "prtree-cachesweep")
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	defer os.RemoveAll(dir)

	fb, err := storage.CreateFile(filepath.Join(dir, "cachesweep.pr"), storage.DefaultBlockSize)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	items := dataset.Western(cfg.n(60000), cfg.Seed)
	var tree *rtree.Tree
	{
		counting := storage.NewCounting(fb)
		pager := storage.NewPager(counting, -1)
		if err := commitTx(counting, &tree, func() {
			tree = bulk.FromItems(bulk.LoaderPR, pager, items, cfg.bulkOptions())
		}); err != nil {
			panic(fmt.Sprintf("experiments: cachesweep build: %v", err))
		}
		if err := counting.Sync(); err != nil {
			panic(fmt.Sprintf("experiments: cachesweep checkpoint: %v", err))
		}
	}
	pages := tree.Nodes()
	world := geom.ItemsMBR(items)
	queries := cacheSweepWorkload(world, 4*cfg.Queries, cfg.Seed)

	// The mmap wrapper shares fb; closing it closes fb too.
	mm, err := storage.NewMmap(fb)
	if err != nil {
		panic(fmt.Sprintf("experiments: cachesweep mmap: %v", err))
	}
	defer mm.Close()

	run := func(dev storage.Backend, capacity int, pol storage.EvictionPolicy, prefetch bool) cachePoint {
		counting := storage.NewCounting(dev)
		pager := storage.NewPagerWith(counting, storage.PagerOptions{
			Capacity: capacity,
			Policy:   pol,
			Prefetch: prefetch,
		})
		defer pager.Close()
		rt, err := rtree.OpenFromMeta(pager, fb.Meta())
		if err != nil {
			panic(fmt.Sprintf("experiments: cachesweep reopen: %v", err))
		}
		start := time.Now()
		for _, q := range queries {
			rt.RunWindow(q, false, nil, rtree.RunOptions{})
		}
		elapsed := time.Since(start)
		// Close drains the prefetch queue before returning, so the
		// counters below are settled (Close is idempotent; the deferred
		// one becomes a no-op).
		pager.Close()
		io := counting.Stats()
		cs := pager.CacheStats()
		return cachePoint{
			Capacity:      capacity,
			Policy:        pol,
			Prefetch:      prefetch,
			QPS:           float64(len(queries)) / elapsed.Seconds(),
			HitRate:       cs.HitRatio(),
			Evictions:     cs.Evictions,
			DemandReads:   io.Reads,
			PrefetchReads: io.PrefetchReads,
		}
	}

	var pts []cachePoint
	for _, pct := range []int{10, 25} {
		capacity := pages * pct / 100
		if capacity < 4 {
			capacity = 4
		}
		for _, bk := range []struct {
			name string
			dev  storage.Backend
		}{{"file", fb}, {"mmap", mm}} {
			policies := []storage.EvictionPolicy{storage.EvictLRU, storage.EvictS3FIFO}
			if bk.name == "mmap" {
				// The mmap rows exist to price the zero-copy read path;
				// the policy comparison is covered by the file rows.
				policies = []storage.EvictionPolicy{storage.EvictS3FIFO}
			}
			for _, pol := range policies {
				var baseline uint64
				for _, prefetch := range []bool{false, true} {
					p := run(bk.dev, capacity, pol, prefetch)
					p.Backend = bk.name
					p.CapPct = pct
					if !prefetch {
						baseline = p.DemandReads
					}
					p.BaselineReads = baseline
					pts = append(pts, p)
				}
			}
		}
	}
	return pts
}
