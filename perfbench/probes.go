package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"prtree"
	"prtree/internal/geom"
	"prtree/internal/rtree"
	"prtree/internal/serve"
	"prtree/internal/storage"
)

// The per-layer probes of a traced run. Each calls one layer's public
// functions directly with the workload's own data and queries and times
// every call as a span, so every traced run reports every layer: a layer
// the workload's measured path does not reach is still costed on that
// workload's inputs, and its work counts on the path read zero.

// probeItems caps the sample a probe builds its own index from,
// probeInserts the in-memory insert stream of workloads without writes,
// and probeWrites the measured writes of the durable write probe.
const (
	probeItems   = 100_000
	probeInserts = 12_000
	probeWrites  = 2_000
)

// rtreeProbe runs the pool twice on warm, unbounded-cache static trees
// (one per shard, answers summed per query) and times the second pass.
// ns_per_node divides window time by window node visits: the per-node
// filter cost, without the k-NN search's heap work.
func rtreeProbe(m metrics, trees []*prtree.Tree, pool []query, log *spanLog) error {
	var window, knn []time.Duration
	var windowTime time.Duration
	var nodes, windowNodes, internal, leaves, windows int
	for pass := 0; pass < 2; pass++ {
		for _, q := range pool {
			var d time.Duration
			var st prtree.QueryStats
			for _, t := range trees {
				var one prtree.QueryStats
				id, start := log.begin()
				_, err := treeQuery(t, q, &one)
				d += log.end(id, 0, 0, "rtree", kindNames[q.kind], start)
				if err != nil {
					return err
				}
				st.NodesVisited += one.NodesVisited
				st.InternalVisited += one.InternalVisited
				st.LeavesVisited += one.LeavesVisited
			}
			if pass == 0 {
				continue
			}
			nodes += st.NodesVisited
			if q.kind == kindKNN {
				knn = append(knn, d)
				continue
			}
			if q.kind == kindWindow {
				window = append(window, d)
			}
			windows++
			windowTime += d
			windowNodes += st.NodesVisited
			internal += st.InternalVisited
			leaves += st.LeavesVisited
		}
	}
	m.set("rtree.window_us_p50", "us", p50us(window))
	m.set("rtree.knn_us_p50", "us", p50us(knn))
	m.set("rtree.ns_per_node", "ns", ratio(float64(windowTime.Nanoseconds()), float64(windowNodes)))
	m.set("rtree.nodes_per_query", "count", ratio(float64(nodes), float64(len(pool))))
	m.set("rtree.internal_per_query", "count", ratio(float64(internal), float64(windows)))
	m.set("rtree.leaves_per_query", "count", ratio(float64(leaves), float64(windows)))
	return nil
}

// pagerProbe times the storage layer's page cache directly on a closed
// static index file: every node page is read once through a fresh
// unbounded pager (a miss: verified pread) and once more (a hit).
func pagerProbe(m metrics, path string, log *spanLog) (err error) {
	fb, err := storage.OpenFile(path, 0)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := fb.Close(); err == nil {
			err = cerr
		}
	}()
	walker, err := rtree.OpenFromMeta(storage.NewPager(fb, -1), fb.Meta())
	if err != nil {
		return err
	}
	var pages []storage.PageID
	walker.Walk(func(id storage.PageID, _ int, _ bool, _ []geom.Item) { pages = append(pages, id) })
	p := storage.NewPagerWith(fb, storage.PagerOptions{Capacity: -1})
	defer p.Close()
	var miss, hit time.Duration
	for pass := 0; pass < 2; pass++ {
		for _, id := range pages {
			sid, start := log.begin()
			t0 := time.Now()
			p.Read(id)
			d := time.Since(t0)
			name := "Pager.Read miss"
			if pass == 1 {
				name = "Pager.Read hit"
			}
			log.end(sid, 0, 0, "storage", name, start)
			if pass == 0 {
				miss += d
			} else {
				hit += d
			}
		}
	}
	m.set("storage.pager_miss_us", "us", us(miss)/float64(len(pages)))
	m.set("storage.pager_hit_ns", "ns", float64(hit.Nanoseconds())/float64(len(pages)))
	return nil
}

// commitProbe times single-page transactions (Begin, Alloc, Write,
// Commit with its WAL fsync) on a scratch page file.
func commitProbe(m metrics, dir string, log *spanLog) error {
	const commits = 200
	path := filepath.Join(dir, "commit-probe.pr")
	fb, err := storage.CreateFile(path, storage.DefaultBlockSize)
	if err != nil {
		return err
	}
	page := make([]byte, storage.DefaultBlockSize)
	var lat []time.Duration
	var cerr error
	for i := 0; i < commits && cerr == nil; i++ {
		page[0] = byte(i)
		id, start := log.begin()
		t0 := time.Now()
		fb.Begin()
		fb.Write(fb.Alloc(), page)
		cerr = fb.Commit()
		lat = append(lat, time.Since(t0))
		log.end(id, 0, 0, "storage", "Commit", start)
	}
	if err := fb.Close(); cerr == nil {
		cerr = err
	}
	if cerr != nil {
		return cerr
	}
	m.set("storage.commit_us_p50", "us", p50us(lat))
	return os.Remove(path)
}

// bulkProbe bulk-loads items with the PR loader into a new index file and
// records the bulk layer's figures. It returns the closed file's path.
func bulkProbe(m metrics, dir string, items []geom.Item, log *spanLog) (string, error) {
	path := filepath.Join(dir, "bulk-probe.pr")
	t, err := prtree.Create(path, nil)
	if err != nil {
		return "", err
	}
	id, start := log.begin()
	err = t.BulkLoad(prtree.PR, items)
	d := log.end(id, 0, 0, "bulk", "BulkLoad", start)
	if err != nil {
		t.Close()
		return "", err
	}
	bulkFigures(m, []time.Duration{d}, t)
	return path, t.Close()
}

// bulkFigures records the median time of PR bulk loads and the block I/O
// and page count of t, the last one.
func bulkFigures(m metrics, loads []time.Duration, t *prtree.Tree) {
	m.set("bulk.load_s", "s", medianSeconds(loads))
	m.set("bulk.block_io", "count", float64(t.IOStats().Total()))
	m.set("bulk.pages", "count", float64(t.Nodes()))
}

// serveProbe builds a 4-shard set from items, checks and times the pool
// directly against it, then serves it on loopback at the fixed rate for
// dur. Workloads whose measured path has no server use it for the serve
// layer's figures.
func serveProbe(m metrics, dir string, items []geom.Item, pool []query, seed int64, dur time.Duration, log *spanLog, tr *tracer) error {
	shardDir := filepath.Join(dir, "serve-probe")
	id, start := log.begin()
	_, err := serve.Build(shardDir, items, serve.BuildOptions{Shards: serveShards, Loader: prtree.PR})
	d := log.end(id, 0, 0, "bulk", "serve.Build", start)
	if err != nil {
		return err
	}
	m.set("bulk.shard_build_s", "s", d.Seconds())
	set, err := serve.Open(shardDir, serve.OpenOptions{})
	if err != nil {
		return err
	}
	ref := prtree.BulkWith(prtree.Hilbert, items, nil)
	want, err := reference(ref, pool)
	if err != nil {
		set.Close()
		return err
	}
	setLat, bad, err := setPasses(set, pool, want, log)
	if err == nil && bad > 0 {
		err = fmt.Errorf("serve probe: %d wrong answers from the shard set", bad)
	}
	if err != nil {
		set.Close()
		return err
	}
	ol, stz, err := serveOpenLoop(set, pool, want, seed, dur, tr)
	if cerr := set.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if ol.failed > 0 {
		return fmt.Errorf("serve probe: %d wrong served answers", ol.failed)
	}
	trees, err := openTrees(shardFiles(shardDir, serveShards), nil)
	if err != nil {
		return err
	}
	useful, legs, err := usefulLegs(trees, pool)
	if cerr := closeTrees(trees); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	serveFigures(m, ol, setLat, useful, legs, stz)
	return os.RemoveAll(shardDir)
}

// setPasses runs the pool twice directly against the set, checking every
// answer; the second, warm pass is timed.
func setPasses(set *serve.Set, pool []query, want []fingerprint, log *spanLog) (lat []time.Duration, bad int, err error) {
	for pass := 0; pass < 2; pass++ {
		for i, q := range pool {
			id, start := log.begin()
			f, p, qerr := setQuery(set, q)
			d := log.end(id, 0, 0, "serve", "Set."+kindNames[q.kind], start)
			if qerr != nil {
				return nil, 0, qerr
			}
			if f != want[i] || p.Degraded() {
				bad++
			}
			if pass == 1 {
				lat = append(lat, d)
			}
		}
	}
	return lat, bad, nil
}

// usefulLegs counts, over the pool, the shards that hold at least one
// item of the merged answer against the shards a scatter queries: every
// shard for every query, as serve.Set does today.
func usefulLegs(trees []*prtree.Tree, pool []query) (useful, legs int, err error) {
	for _, q := range pool {
		legs += len(trees)
		if q.kind != kindKNN {
			for _, t := range trees {
				n, err := t.Count(prtree.Window(q.rect))
				if err != nil {
					return 0, 0, err
				}
				if n > 0 {
					useful++
				}
			}
			continue
		}
		type hit struct {
			nb    prtree.Neighbor
			shard int
		}
		var all []hit
		for i, t := range trees {
			nbs, err := t.CollectNearest(prtree.Nearest(q.x, q.y, knnK))
			if err != nil {
				return 0, 0, err
			}
			for _, nb := range nbs {
				all = append(all, hit{nb, i})
			}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].nb.Dist2 != all[b].nb.Dist2 {
				return all[a].nb.Dist2 < all[b].nb.Dist2
			}
			return all[a].nb.Item.ID < all[b].nb.Item.ID
		})
		seen := make(map[int]bool)
		for _, h := range all[:min(knnK, len(all))] {
			seen[h.shard] = true
		}
		useful += len(seen)
	}
	return useful, legs, nil
}

// setQuery runs q directly against the shard set.
func setQuery(set *serve.Set, q query) (fingerprint, serve.Partial, error) {
	ctx := context.Background()
	switch q.kind {
	case kindKNN:
		nbs, p, err := set.Nearest(ctx, q.x, q.y, knnK)
		return wireNeighborsFP(nbs), p, err
	case kindPoint:
		items, p, err := set.Point(ctx, q.x, q.y, 0)
		return itemsFP(items), p, err
	default:
		items, p, err := set.Window(ctx, q.rect, 0)
		return itemsFP(items), p, err
	}
}

// serveOpenLoop serves set on a loopback listener, drives it open-loop at
// the benchmark's fixed rate for dur, and drains the server.
func serveOpenLoop(set *serve.Set, pool []query, want []fingerprint, seed int64, dur time.Duration, tr *tracer) (*openLoop, serve.Statsz, error) {
	srv := serve.New(serve.Config{Set: set})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, serve.Statsz{}, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeBinary(lis) }()
	ol, err := runOpenLoop(lis.Addr().String(), pool, want, serveRate, dur, serveConns, seed, tr)
	stz := srv.Statsz()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-served; err == nil {
		err = serr
	}
	return ol, stz, err
}

// serveFigures records the serve layer's figures from a traced open-loop
// phase and the direct Set pass.
func serveFigures(m metrics, ol *openLoop, setLat []time.Duration, useful, legs int, stz serve.Statsz) {
	valid, lag := ol.validity(serveRate)
	invalid := 0
	for _, v := range valid {
		if !v {
			invalid++
		}
	}
	due := summarize(ol.samples, ol.span, nil)
	m.set("serve.encode_ns", "ns", p50us(ol.encode)*1e3)
	m.set("serve.decode_ns_per_item", "ns", ratio(float64(ol.decode.Nanoseconds()), float64(ol.decodeItems)))
	m.set("serve.set_us_p50", "us", p50us(setLat))
	m.set("serve.set_us_p99", "us", pus(setLat, 0.99))
	m.set("serve.wire_us_p50", "us", p50us(ol.rtt)-p50us(setLat))
	m.set("serve.useful_leg_ratio", "ratio", ratio(float64(useful), float64(legs)))
	m.set("serve.rejected", "count", float64(stz.Rejected))
	m.set("serve.degraded", "count", float64(stz.Degraded))
	m.set("loadgen.lag_p99_us", "us", us(lag))
	m.set("loadgen.invalid_slices", "count", float64(invalid))
	m.set("loadgen.due_p50_us", "us", due.P50)
	m.set("loadgen.due_p99_us", "us", due.P99)
}

func shardFiles(dir string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = filepath.Join(dir, fmt.Sprintf("shard-%03d.pr", i))
	}
	return out
}

func openTrees(paths []string, opts *prtree.Options) ([]*prtree.Tree, error) {
	var trees []*prtree.Tree
	for _, p := range paths {
		t, err := prtree.Open(p, opts)
		if err != nil {
			closeTrees(trees)
			return nil, err
		}
		trees = append(trees, t)
	}
	return trees, nil
}

func closeTrees(trees []*prtree.Tree) error {
	var errs []error
	for _, t := range trees {
		errs = append(errs, t.Close())
	}
	return errors.Join(errs...)
}

// leafIO sums, over the window-style queries of pool, the leaves the
// trees read and the ⌈T/B⌉ lower bound of each answer, B being the
// leaf capacity.
func leafIO(trees []*prtree.Tree, pool []query, keep func(query) bool) (leaves, bound float64, err error) {
	for _, q := range pool {
		if q.kind == kindKNN || !keep(q) {
			continue
		}
		results := 0
		for _, t := range trees {
			var st prtree.QueryStats
			if _, err := treeQuery(t, q, &st); err != nil {
				return 0, 0, err
			}
			leaves += float64(st.LeavesVisited)
			results += st.Results
		}
		bound += math.Ceil(float64(results) / float64(trees[0].Fanout()))
	}
	return leaves, bound, nil
}

// dynProbe inserts items one by one into an in-memory dynamic index with
// background compaction: the logarithmic method's index work without the
// commit cost of a durable one.
func dynProbe(m metrics, items []geom.Item, log *spanLog) error {
	d := prtree.NewDynamic(&prtree.Options{BackgroundCompaction: true})
	var lat []time.Duration
	bufMax := 0
	for _, it := range items {
		id, start := log.begin()
		err := d.InsertE(it)
		lat = append(lat, log.end(id, 0, 0, "logmethod", "InsertE", start))
		if err != nil {
			d.Close()
			return err
		}
		bufMax = max(bufMax, d.BufferLen())
	}
	m.set("logmethod.insert_mem_us", "us", p50us(lat))
	m.set("logmethod.levels", "count", float64(levels(d)))
	compactFigures(m, d.CompactionStats(), len(items), bufMax, lat)
	return d.Close()
}

func levels(d *prtree.Dynamic) int {
	n := 0
	for _, s := range d.LevelSizes() {
		if s > 0 {
			n++
		}
	}
	return n
}

// compactFigures records the compactor's figures over an insert stream.
func compactFigures(m metrics, st prtree.CompactionStats, inserts, bufMax int, lat []time.Duration) {
	m.set("compact.write_amp", "ratio", st.WriteAmplification)
	m.set("compact.merges", "count", float64(st.MergesCompleted))
	m.set("compact.pages_rewritten_per_insert", "count", ratio(float64(st.PagesRewritten), float64(inserts)))
	m.set("compact.buffer_max", "count", float64(bufMax))
	m.set("compact.stall_max_ms", "ms", pus(lat, 1)/1e3)
}

// sampleItems returns at most n items of items, spread evenly.
func sampleItems(items []geom.Item, n int) []geom.Item {
	if len(items) <= n {
		return items
	}
	out := make([]geom.Item, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, items[i*len(items)/n])
	}
	return out
}

// overhead records tracing overhead: how much the traced phase's median
// latency exceeds the untraced one's.
func overhead(m metrics, untraced, traced float64) {
	m.set("trace.overhead_pct", "%", 100*(ratio(traced, untraced)-1))
}
