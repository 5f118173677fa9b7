package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prtree"
	"prtree/internal/dataset"
	"prtree/internal/geom"
)

// ingest-mixed sizing. Every insert and delete is one committed
// transaction with one WAL fsync; the benchmark never batches writes.
// The writer's work is fixed, not its time: a phase of s seconds issues
// ingestOpsPerSec*s measured writes, about s seconds' worth on a 2-CPU
// machine with the reader beside it. A time-bounded writer would leave a faster commit
// with a larger index, and the index size, its levels and the reader's
// latency would then move with the writer's speed. Each write's two
// fsyncs make the phase's length follow the disk, which the host shares
// with other machines; so that a run still ends in time while the disk
// is slowed several times over, the measured writes stop after
// ingestMaxStretch times the phase's length.
const (
	ingestMaxStretch  = 3
	ingestOpsPerSec   = 1000
	ingestDeleteShare = 0.10 // deletes of earlier items per insert
	ingestPool        = 4096
	ingestCheck       = 512 // reader queries checked exactly after the run
	ingestSetupReps   = 25  // set-up is a few milliseconds, so take more
)

var ingestMix = mix{window: 90, knn: 10}

// writeOp is one step of the writer's seeded stream.
type writeOp struct {
	item geom.Item
	del  bool
}

// planWrites inserts items in seeded random order and, after about
// ingestDeleteShare of the inserts, deletes a random item inserted
// earlier and still live.
func planWrites(items []geom.Item, seed int64) []writeOp {
	rng := rand.New(rand.NewSource(seed))
	var live []geom.Item
	ops := make([]writeOp, 0, len(items)+len(items)/8)
	for _, i := range rng.Perm(len(items)) {
		ops = append(ops, writeOp{item: items[i]})
		live = append(live, items[i])
		if rng.Float64() < ingestDeleteShare {
			j := rng.Intn(len(live))
			ops = append(ops, writeOp{item: live[j], del: true})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return ops
}

// ingestRun is one measured writer-and-reader phase on a fresh index.
type ingestRun struct {
	writes, reads     latencySummary
	writeLat          []time.Duration
	done              int // writer ops completed
	attempted, failed int
	leaves, bound     float64 // the reader's window leaf reads and their ⌈T/B⌉ bound
	bufMax            int
	compaction        prtree.CompactionStats
	levels            int
	pageWrites        uint64
	walBytes          int64
	readerReads       uint64 // demand block reads during the phase
	readerVisits      int    // nodes the reader's windows visited
	live              []geom.Item
	fileBytes         int64
	pagesInUse        int
}

func runIngestMixed(cfg config, tr *tracer) (*outcome, error) {
	log := tr.log()
	defer log.flush()
	ops := cfg.scaled(int(ingestOpsPerSec*cfg.phase().Seconds()), 200)
	warm := ops / 2
	var items []geom.Item
	var plan []writeOp
	var pool []query
	var d *prtree.Dynamic
	var path string
	var setups []time.Duration
	opts := &prtree.Options{BackgroundCompaction: true}
	for r := 0; r < ingestSetupReps; r++ {
		if d != nil {
			d.Close()
			removeIndex(path)
		}
		path = filepath.Join(cfg.workdir, fmt.Sprintf("ingest-%d.pr", r))
		start := time.Now()
		items = dataset.Eastern(warm+ops, datasetSeed)
		plan = planWrites(items, cfg.seed+300)[:warm+ops]
		pool = makePool(items, cfg.scaled(ingestPool, 256), ingestMix, cfg.seed+400)
		var err error
		if d, err = prtree.CreateDynamic(path, opts); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	leafCap := prtree.Bulk(items[:1], nil).Fanout()

	out := &outcome{e2e: metrics{}, layers: metrics{}}
	run, err := ingestPhase(d, path, opts, items, plan, warm, ingestMaxStretch*cfg.phase(), pool, leafCap, nil)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = run.attempted, run.failed
	e2eQueries(out.e2e, run.writes, run.reads)
	e2eCommon(out.e2e, setups, run.attempted, run.failed, run.leaves, run.bound, run.pagesInUse, len(run.live))
	if tr != nil {
		tpath := filepath.Join(cfg.workdir, "ingest-traced.pr")
		td, err := prtree.CreateDynamic(tpath, opts)
		if err != nil {
			return nil, err
		}
		traced, err := ingestPhase(td, tpath, opts, items, plan, warm, ingestMaxStretch*cfg.phase(), pool, leafCap, tr)
		if err != nil {
			return nil, err
		}
		out.attempted += traced.attempted
		out.failed += traced.failed
		overhead(out.layers, run.writes.P50, traced.writes.P50)
		out.layers.set("storage.file_bytes_per_item", "B", ratio(float64(traced.fileBytes), float64(len(traced.live))))
		if err := ingestProbes(out.layers, cfg, traced, plan, pool, log, tr); err != nil {
			return nil, err
		}
	}
	out.env = map[string]any{
		"flush_policy":  "one WAL fsync per insert or delete",
		"writer_ops":    run.done,
		"warm_ops":      warm,
		"live_items":    len(run.live),
		"pool":          len(pool),
		"cache_pages":   "unbounded",
		"pages_in_use":  run.pagesInUse,
		"file_bytes":    run.fileBytes,
		"levels":        run.levels,
		"write_samples": run.writes.N,
		"read_samples":  run.reads.N,
	}
	return out, nil
}

func removeIndex(path string) {
	os.Remove(path)
	os.Remove(path + ".wal")
}

// ingestPhase runs the writer through plan, or until its measured writes
// have run for limit, with the reader beside it, then checks the index
// exactly, closes it, reopens it and checks again.
// The first warm writes build the index up unmeasured: the figures
// describe an index that already holds data, not the first few
// thousand inserts into an empty one, which are several times cheaper.
func ingestPhase(d *prtree.Dynamic, path string, opts *prtree.Options, items []geom.Item, plan []writeOp, warm int, limit time.Duration, pool []query, leafCap int, tr *tracer) (*ingestRun, error) {
	run := &ingestRun{}
	closed := false
	defer func() {
		if !closed {
			d.Close()
		}
	}()
	var wal0 int64
	var io0 prtree.IOStats
	var t0 time.Time
	var measuring atomic.Bool // set, after t0, once the warm writes are done
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readSamples []sample
	readAttempted, readFailed := 0, 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		log := tr.log()
		defer log.flush()
		rng := rand.New(rand.NewSource(int64(len(plan))))
		for {
			select {
			case <-stop:
				return
			default:
			}
			q := pool[rng.Intn(len(pool))]
			measured := measuring.Load()
			start := time.Now()
			id, sstart := log.begin()
			got, st := dynQuery(d, q)
			log.end(id, 0, 0, "logmethod", "Dynamic."+kindNames[q.kind], sstart)
			lat := time.Since(start)
			readAttempted++
			if !plausible(q, got, items) {
				readFailed++
			}
			if !measured {
				continue
			}
			readSamples = append(readSamples, sample{at: start.Sub(t0), lat: lat})
			run.readerVisits += st.NodesVisited
			if q.kind != kindKNN {
				run.leaves += float64(st.LeavesVisited)
				run.bound += math.Ceil(float64(st.Results) / float64(leafCap))
			}
		}
	}()

	log := tr.log()
	var writeSamples []sample
	var werr error
	for run.done < len(plan) {
		if run.done == warm {
			settle()
			wal0, _ = fileSize(path + ".wal")
			io0 = d.IOStats()
			t0 = time.Now()
			measuring.Store(true)
		} else if run.done > warm && time.Since(t0) > limit {
			break
		}
		op := plan[run.done]
		start := time.Now()
		id, sstart := log.begin()
		ok := true
		if op.del {
			ok, werr = d.DeleteE(op.item)
		} else {
			werr = d.InsertE(op.item)
		}
		name := "InsertE"
		if op.del {
			name = "DeleteE"
		}
		log.end(id, 0, 0, "logmethod", name, sstart)
		lat := time.Since(start)
		if werr != nil {
			break
		}
		run.done++
		run.attempted++
		if !ok {
			run.failed++
		}
		if run.done <= warm {
			continue
		}
		writeSamples = append(writeSamples, sample{at: start.Sub(t0), lat: lat})
		run.writeLat = append(run.writeLat, lat)
		run.bufMax = max(run.bufMax, d.BufferLen())
	}
	log.flush()
	close(stop)
	wg.Wait()
	run.attempted += readAttempted
	run.failed += readFailed
	if werr != nil {
		return nil, werr
	}
	span := time.Since(t0)
	run.writes = summarize(writeSamples, span, nil)
	run.reads = summarize(readSamples, span, nil)
	io1 := d.IOStats()
	run.pageWrites = io1.Writes - io0.Writes
	run.readerReads = io1.Reads - io0.Reads
	wal1, err := fileSize(path + ".wal")
	if err != nil {
		return nil, err
	}
	run.walBytes = wal1 - wal0
	run.compaction = d.CompactionStats()
	run.levels = levels(d)

	model := make(map[uint32]geom.Item)
	for _, op := range plan[:run.done] {
		if op.del {
			delete(model, op.item.ID)
		} else {
			model[op.item.ID] = op.item
		}
	}
	for _, it := range model {
		run.live = append(run.live, it)
	}
	sort.Slice(run.live, func(i, j int) bool { return run.live[i].ID < run.live[j].ID })
	// Sync lets an in-flight merge land, so the checks see the index the
	// writes leave behind.
	if err := d.Sync(); err != nil {
		return nil, err
	}
	check := pool[:min(ingestCheck, len(pool))]
	run.checkExact(d, check)
	if err := d.Close(); err != nil {
		return nil, err
	}
	closed = true
	re, err := prtree.OpenDynamic(path, opts)
	if err != nil {
		return nil, err
	}
	run.checkExact(re, check)
	_, run.pagesInUse = re.PageCounts()
	if err := re.Close(); err != nil {
		return nil, err
	}
	if run.fileBytes, err = fileSize(path); err != nil {
		return nil, err
	}
	removeIndex(path)
	return run, nil
}

// plausible checks an answer read while writes were in flight: every
// item is one the writer stores, with its stored rectangle, and a window
// item intersects the window.
func plausible(q query, got []geom.Item, items []geom.Item) bool {
	if q.kind == kindKNN && len(got) > knnK {
		return false
	}
	for _, it := range got {
		if int(it.ID) >= len(items) || items[it.ID] != it {
			return false
		}
		if q.kind != kindKNN && !it.Rect.Intersects(q.rect) {
			return false
		}
	}
	return true
}

// checkExact compares the index with the writer's model once writes have
// stopped: its size, and each check query against a brute-force scan of
// the live items.
func (run *ingestRun) checkExact(d *prtree.Dynamic, check []query) {
	run.attempted++
	if d.Len() != len(run.live) {
		run.failed++
	}
	for _, q := range check {
		got, _ := dynQuery(d, q)
		want := bruteForce(run.live, q)
		run.attempted++
		var gf, wf fingerprint
		if q.kind == kindKNN {
			gf, wf = neighborsFP(got), neighborsFP(want)
		} else {
			gf, wf = itemsFP(got), itemsFP(want)
		}
		if gf != wf {
			run.failed++
		}
	}
}

// bruteForce answers q by scanning every live item: windows by
// intersection, k-NN by (squared MBR distance, ID).
func bruteForce(live []geom.Item, q query) []geom.Item {
	if q.kind != kindKNN {
		var out []geom.Item
		for _, it := range live {
			if it.Rect.Intersects(q.rect) {
				out = append(out, it)
			}
		}
		return out
	}
	type cand struct {
		d2 float64
		it geom.Item
	}
	cands := make([]cand, len(live))
	for i, it := range live {
		cands[i] = cand{dist2(q.x, q.y, it.Rect), it}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d2 != cands[j].d2 {
			return cands[i].d2 < cands[j].d2
		}
		return cands[i].it.ID < cands[j].it.ID
	})
	out := make([]geom.Item, 0, knnK)
	for _, c := range cands[:min(knnK, len(cands))] {
		out = append(out, c.it)
	}
	return out
}

// dist2 is the squared distance from (x, y) to the nearest point of r.
func dist2(x, y float64, r geom.Rect) float64 {
	dx := math.Max(0, math.Max(r.MinX-x, x-r.MaxX))
	dy := math.Max(0, math.Max(r.MinY-y, y-r.MaxY))
	return dx*dx + dy*dy
}

// durableProbe runs a short ingest-mixed phase on a durable dynamic index
// of its own, probeWrites measured writes after as many unmeasured ones,
// and records the write path's storage figures: pages written and log
// bytes appended per write. Its answers are checked like the workload's.
func durableProbe(m metrics, cfg config, tr *tracer) error {
	n := cfg.scaled(probeWrites, 200)
	items := dataset.Eastern(2*n, datasetSeed)
	plan := planWrites(items, cfg.seed+300)[:2*n]
	pool := makePool(items, cfg.scaled(ingestPool, 256), ingestMix, cfg.seed+400)
	path := filepath.Join(cfg.workdir, "durable-probe.pr")
	opts := &prtree.Options{BackgroundCompaction: true}
	d, err := prtree.CreateDynamic(path, opts)
	if err != nil {
		return err
	}
	leafCap := prtree.Bulk(items[:1], nil).Fanout()
	run, err := ingestPhase(d, path, opts, items, plan, n, ingestMaxStretch*cfg.phase(), pool, leafCap, tr)
	if err != nil {
		return err
	}
	if run.failed != 0 {
		return fmt.Errorf("durable probe: %d of %d answers wrong", run.failed, run.attempted)
	}
	writes := float64(len(run.writeLat))
	m.set("storage.page_writes_per_insert", "count", ratio(float64(run.pageWrites), writes))
	m.set("storage.wal_bytes_per_insert", "B", ratio(float64(run.walBytes), writes))
	return nil
}

// ingestProbes records the traced phase's write-path figures and runs
// the probes: the rtree, bulk and pager layers on a static tree of the
// live items, the serve layer on a sample of them, and the logarithmic
// method in memory on the same insert stream.
func ingestProbes(m metrics, cfg config, run *ingestRun, plan []writeOp, pool []query, log *spanLog, tr *tracer) error {
	path, err := bulkProbe(m, cfg.workdir, run.live, log)
	if err != nil {
		return err
	}
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
	if err := serveProbe(m, cfg.workdir, sampleItems(run.live, probeItems), pool, cfg.seed, cfg.phase()/5, log, tr); err != nil {
		return err
	}
	var inserted []geom.Item
	for _, op := range plan[:run.done] {
		if !op.del {
			inserted = append(inserted, op.item)
		}
	}
	if err := commonProbes(m, cfg, nil, inserted, path, log, tr); err != nil {
		return err
	}
	// The durable phase's own figures replace the in-memory probe's.
	ops := float64(len(run.writeLat)) // writes in the measured window
	m.set("logmethod.levels", "count", float64(run.levels))
	compactFigures(m, run.compaction, len(inserted), run.bufMax, run.writeLat)
	m.set("storage.page_writes_per_insert", "count", ratio(float64(run.pageWrites), ops))
	m.set("storage.wal_bytes_per_insert", "B", ratio(float64(run.walBytes), ops))
	m.set("storage.demand_reads_per_query", "count", ratio(float64(run.readerReads), float64(run.reads.N)))
	m.set("storage.evictions_per_query", "count", 0)
	m.set("storage.hit_ratio", "ratio", math.Max(0, 1-ratio(float64(run.readerReads), float64(run.readerVisits))))
	return nil
}
