package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"prtree"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/serve"
)

// serve-cached sizing. The rate is about a third of what the benchmark's
// own client sustains on two closed-loop connections against this set on
// a 2-CPU machine (about 9,000 requests/s), so latency reflects service
// time rather than queueing.
//
// The end-to-end latency of a request is its round trip from the moment
// it is sent, at its due time unless its connection was still busy. The
// latency from the due time, which also holds that wait, is recorded
// too (loadgen.due_*), but it is not steady enough to gate on: with one
// request in flight per connection, a pause of the virtual machine delays
// every request due during it, and its p99 moved 1.3-7.1 ms across runs
// of the same code where the round trip's moved 0.80-0.92 ms outside such
// pauses.
const (
	serveItems  = 500_000
	serveShards = 4
	serveRate   = 3000.0 // requests/s over all connections
	serveConns  = 2
	servePool   = 8192
	setupReps   = 3 // set-ups per run; setup_s is their median
	warmup      = time.Second
)

var serveMix = mix{window: 80, point: 10, knn: 10}

// buildServeSet generates the dataset, shards it and opens the set with
// an unbounded cache, setupReps times; it keeps the last set.
func buildServeSet(cfg config, n int, log *spanLog) (items []geom.Item, set *serve.Set, dir string, setups, builds []time.Duration, err error) {
	for r := 0; r < setupReps; r++ {
		if set != nil {
			set.Close()
			os.RemoveAll(dir)
		}
		dir = filepath.Join(cfg.workdir, fmt.Sprintf("shards-%d", r))
		start := time.Now()
		items = dataset.Eastern(n, datasetSeed)
		id, bstart := log.begin()
		_, err = serve.Build(dir, items, serve.BuildOptions{Shards: serveShards, Loader: prtree.PR})
		builds = append(builds, log.end(id, 0, 0, "bulk", "serve.Build", bstart))
		if err != nil {
			return nil, nil, "", nil, nil, err
		}
		set, err = serve.Open(dir, serve.OpenOptions{})
		if err != nil {
			return nil, nil, "", nil, nil, err
		}
		setups = append(setups, time.Since(start))
	}
	return items, set, dir, setups, builds, nil
}

func runServeCached(cfg config, tr *tracer) (*outcome, error) {
	log := tr.log()
	defer log.flush()
	n := cfg.scaled(serveItems, 2000)
	items, set, dir, setups, builds, err := buildServeSet(cfg, n, log)
	if err != nil {
		return nil, err
	}
	defer func() {
		if set != nil {
			set.Close()
		}
	}()

	pool := makePool(items, cfg.scaled(servePool, 256), serveMix, cfg.seed+100)
	want, err := reference(prtree.BulkWith(prtree.Hilbert, items, nil), pool)
	if err != nil {
		return nil, err
	}
	out := &outcome{e2e: metrics{}, layers: metrics{}}
	// The first pass checks every pool answer directly and fills the
	// cache; traced runs time the second, warm pass as the Set figure.
	setLat, bad, err := setPasses(set, pool, want, log)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = 2*len(pool), bad

	// A short unmeasured phase warms the connection path, then settle
	// flushes the set-up's writes and clears its garbage, so the measured
	// phase starts from the same state on every run.
	warm, _, err := serveOpenLoop(set, pool, want, cfg.seed-1, warmup, nil)
	if err != nil {
		return nil, err
	}
	out.attempted += warm.attempted
	out.failed += warm.failed
	settle()
	before := set.Stats()
	ol, stz, err := serveOpenLoop(set, pool, want, cfg.seed, cfg.phase(), nil)
	if err != nil {
		return nil, err
	}
	after := set.Stats()
	out.attempted += ol.attempted
	out.failed += ol.failed
	valid, _ := ol.validity(serveRate)
	due := summarize(ol.samples, ol.span, valid)
	out.env = map[string]any{"valid_slices": due.Slices, "slices": len(valid)}
	if due.Slices*2 < len(valid) {
		// Fewer than half the slices kept pace: the host took the CPUs
		// away for most of the phase. The figures then come from every
		// slice and the record says so.
		fmt.Fprintf(os.Stderr, "perfbench: generator or server fell behind in %d of %d slices\n", len(valid)-due.Slices, len(valid))
		valid = nil
		due = summarize(ol.samples, ol.span, nil)
	}
	sum := summarize(ol.served(), ol.span, valid)
	e2eQueries(out.e2e, sum, sum)
	out.env["due_p50_us"], out.env["due_p99_us"] = due.P50, due.P99
	var traced *openLoop
	var tstz serve.Statsz
	if tr != nil {
		runtime.GC()
		traced, tstz, err = serveOpenLoop(set, pool, want, cfg.seed+1, cfg.phase(), tr)
		if err != nil {
			return nil, err
		}
		out.attempted += traced.attempted
		out.failed += traced.failed
		tvalid, _ := traced.validity(serveRate)
		overhead(out.layers, sum.P50, summarize(traced.served(), traced.span, tvalid).P50)
		tstz.Rejected += stz.Rejected
		tstz.Degraded += stz.Degraded
	}
	storageFigures(out.layers, before, after, ol.attempted)
	if err := set.Close(); err != nil {
		return nil, err
	}
	set = nil

	// Exact figures on the closed shard files, and the probes.
	files := shardFiles(dir, serveShards)
	trees, err := openTrees(files, nil)
	if err != nil {
		return nil, err
	}
	leaves, bound, err := leafIO(trees, pool, func(query) bool { return true })
	pages := 0
	for _, t := range trees {
		pages += t.Nodes()
	}
	if err == nil && tr != nil {
		err = rtreeProbe(out.layers, trees, pool, log)
		if err == nil {
			var useful, legs int
			useful, legs, err = usefulLegs(trees, pool)
			serveFigures(out.layers, traced, setLat, useful, legs, tstz)
		}
	}
	if cerr := closeTrees(trees); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	size, err := fileSize(files...)
	if err != nil {
		return nil, err
	}
	e2eCommon(out.e2e, setups, out.attempted, out.failed, leaves, bound, pages, n)
	if tr != nil {
		out.layers.set("storage.file_bytes_per_item", "B", ratio(float64(size), float64(n)))
		out.layers.set("bulk.shard_build_s", "s", medianSeconds(builds))
		sample := sampleItems(items, probeItems)
		if err := commonProbes(out.layers, cfg, sample, sampleItems(sample, cfg.scaled(probeInserts, 200)), files[0], log, tr); err != nil {
			return nil, err
		}
	}
	for k, v := range map[string]any{
		"items": n, "shards": serveShards, "rate_per_s": serveRate, "connections": serveConns,
		"pool": len(pool), "cache_pages": "unbounded", "index_pages": pages, "samples": sum.N,
	} {
		out.env[k] = v
	}
	return out, nil
}

// storageFigures records the page cache's behaviour over the measured
// phase from the set's summed counters.
func storageFigures(m metrics, before, after serve.SetStats, queries int) {
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	m.set("storage.hit_ratio", "ratio", ratio(hits, hits+misses))
	m.set("storage.demand_reads_per_query", "count", ratio(float64(after.IO.Reads-before.IO.Reads), float64(queries)))
	m.set("storage.evictions_per_query", "count", ratio(float64(after.Cache.Evictions-before.Cache.Evictions), float64(queries)))
}

// commonProbes runs the probes every workload takes the same way: the
// bulk layer on a sample (skipped when sample is nil because the workload
// bulk-loads on its own path), the pager on a closed index file (the bulk
// probe's when indexFile is empty),
// single-page commits, a short durable write phase, and the logarithmic
// method on an in-memory insert stream of dynItems.
func commonProbes(m metrics, cfg config, sample, dynItems []geom.Item, indexFile string, log *spanLog, tr *tracer) error {
	if sample != nil {
		path, err := bulkProbe(m, cfg.workdir, sample, log)
		if err != nil {
			return err
		}
		if indexFile == "" {
			indexFile = path
		}
	}
	if err := pagerProbe(m, indexFile, log); err != nil {
		return err
	}
	if err := commitProbe(m, cfg.workdir, log); err != nil {
		return err
	}
	if err := durableProbe(m, cfg, tr); err != nil {
		return err
	}
	return dynProbe(m, dynItems, log)
}
