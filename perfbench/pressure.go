package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"prtree"
	"prtree/internal/dataset"
	"prtree/internal/geom"
)

// query-pressure sizing: the cache holds a tenth of the index's pages,
// so the working set of the query pool does not fit.
const (
	pressureItems   = 500_000
	pressureCallers = 2
	pressurePool    = 16384
	cacheShare      = 0.10
)

var pressureMix = mix{window: 80, knn: 10, paper: 10}

// closedLoop is one closed-loop phase: each caller issues its next query
// when the previous one returns.
type closedLoop struct {
	samples           []sample
	attempted, failed int
	span              time.Duration
}

// runClosedLoop drives callers goroutines, each calling do with pool
// indices from its own seeded stream, for dur. do returns whether the
// answer was right.
func runClosedLoop(callers int, poolLen int, seed int64, dur time.Duration, do func(qi int, log *spanLog) (bool, error), tr *tracer) (*closedLoop, error) {
	out := &closedLoop{span: dur}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	t0 := time.Now()
	end := t0.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := tr.log()
			defer log.flush()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			var samples []sample
			attempted, failed := 0, 0
			var err error
			for start := time.Now(); start.Before(end); start = time.Now() {
				var ok bool
				ok, err = do(rng.Intn(poolLen), log)
				if err != nil {
					break
				}
				samples = append(samples, sample{at: start.Sub(t0), lat: time.Since(start)})
				attempted++
				if !ok {
					failed++
				}
			}
			mu.Lock()
			defer mu.Unlock()
			out.samples = append(out.samples, samples...)
			out.attempted += attempted
			out.failed += failed
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(c)
	}
	wg.Wait()
	return out, firstErr
}

// buildPressureFile generates the dataset and bulk-loads it into a new
// index file with the library defaults, then reopens it with a cache of
// cacheShare of its pages; setupReps times, keeping the last tree. bulk
// receives the bulk layer's figures.
func buildPressureFile(cfg config, n int, bulk metrics, log *spanLog) (items []geom.Item, t *prtree.Tree, path string, setups []time.Duration, err error) {
	var loads []time.Duration
	for r := 0; r < setupReps; r++ {
		if t != nil {
			t.Close()
			removeIndex(path)
		}
		path = filepath.Join(cfg.workdir, fmt.Sprintf("pressure-%d.pr", r))
		start := time.Now()
		items = dataset.Eastern(n, datasetSeed)
		var b *prtree.Tree
		if b, err = prtree.Create(path, nil); err != nil {
			return
		}
		id, lstart := log.begin()
		err = b.BulkLoad(prtree.PR, items)
		loads = append(loads, log.end(id, 0, 0, "bulk", "BulkLoad", lstart))
		if err != nil {
			b.Close()
			return
		}
		bulkFigures(bulk, loads, b)
		pages := b.Nodes()
		if err = b.Close(); err != nil {
			return
		}
		t, err = prtree.Open(path, &prtree.Options{CacheCapacity: max(int(cacheShare*float64(pages)), 1)})
		if err != nil {
			return
		}
		setups = append(setups, time.Since(start))
	}
	return
}

func runQueryPressure(cfg config, tr *tracer) (*outcome, error) {
	log := tr.log()
	defer log.flush()
	n := cfg.scaled(pressureItems, 2000)
	out := &outcome{e2e: metrics{}, layers: metrics{}}
	items, t, path, setups, err := buildPressureFile(cfg, n, out.layers, log)
	if err != nil {
		return nil, err
	}
	defer func() {
		if t != nil {
			t.Close()
		}
	}()
	pool := makePool(items, cfg.scaled(pressurePool, 256), pressureMix, cfg.seed+200)
	want, err := reference(prtree.BulkWith(prtree.Hilbert, items, nil), pool)
	if err != nil {
		return nil, err
	}
	do := func(qi int, log *spanLog) (bool, error) {
		q := pool[qi]
		id, start := log.begin()
		f, err := treeQuery(t, q, nil)
		log.end(id, 0, 0, "rtree", kindNames[q.kind], start)
		return f == want[qi], err
	}
	// A short unmeasured pass fills the cache, then settle flushes the
	// set-up's writes and clears its garbage, so the measured phase
	// starts from the same state on every run.
	warm, err := runClosedLoop(pressureCallers, len(pool), cfg.seed-1, min(warmup, cfg.phase()/4), do, nil)
	if err != nil {
		return nil, err
	}
	settle()
	cs0, io0 := t.CacheStats(), t.IOStats()
	cl, err := runClosedLoop(pressureCallers, len(pool), cfg.seed, cfg.phase(), do, nil)
	if err != nil {
		return nil, err
	}
	cs1, io1 := t.CacheStats(), t.IOStats()
	out.attempted, out.failed = warm.attempted+cl.attempted, warm.failed+cl.failed
	sum := summarize(cl.samples, cl.span, nil)
	e2eQueries(out.e2e, sum, sum)
	if tr != nil {
		traced, err := runClosedLoop(pressureCallers, len(pool), cfg.seed+1, cfg.phase(), do, tr)
		if err != nil {
			return nil, err
		}
		out.attempted += traced.attempted
		out.failed += traced.failed
		overhead(out.layers, sum.P50, summarize(traced.samples, traced.span, nil).P50)
	}
	hits, misses := float64(cs1.Hits-cs0.Hits), float64(cs1.Misses-cs0.Misses)
	q := float64(cl.attempted)
	out.layers.set("storage.hit_ratio", "ratio", ratio(hits, hits+misses))
	out.layers.set("storage.demand_reads_per_query", "count", ratio(float64(io1.Reads-io0.Reads), q))
	out.layers.set("storage.evictions_per_query", "count", ratio(float64(cs1.Evictions-cs0.Evictions), q))

	isPaper := func(q query) bool { return q.kind == kindPaper }
	leaves, bound, err := leafIO([]*prtree.Tree{t}, pool, isPaper)
	if err != nil {
		return nil, err
	}
	cachePages, indexPages := cs1.Capacity, t.Nodes()
	if err := t.Close(); err != nil {
		return nil, err
	}
	t = nil
	size, err := fileSize(path)
	if err != nil {
		return nil, err
	}
	e2eCommon(out.e2e, setups, out.attempted, out.failed, leaves, bound, indexPages, n)
	if tr != nil {
		out.layers.set("storage.file_bytes_per_item", "B", ratio(float64(size), float64(n)))
		if err := pressureProbes(out.layers, cfg, items, pool, path, log, tr); err != nil {
			return nil, err
		}
	}
	out.env = map[string]any{
		"items": n, "callers": pressureCallers, "pool": len(pool),
		"cache_pages": cachePages, "index_pages": indexPages, "samples": sum.N,
	}
	return out, nil
}

// pressureProbes runs the traced run's probes: the rtree layer on the
// same file with an unbounded, warmed cache, the serve layer on a sample,
// and the common probes.
func pressureProbes(m metrics, cfg config, items []geom.Item, pool []query, path string, log *spanLog, tr *tracer) error {
	trees, err := openTrees([]string{path}, nil)
	if err != nil {
		return err
	}
	err = rtreeProbe(m, trees, pool, log)
	if cerr := closeTrees(trees); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	sample := sampleItems(items, probeItems)
	if err := serveProbe(m, cfg.workdir, sample, pool, cfg.seed, cfg.phase()/5, log, tr); err != nil {
		return err
	}
	return commonProbes(m, cfg, nil, sampleItems(sample, cfg.scaled(probeInserts, 200)), path, log, tr)
}
