package experiments

import (
	"fmt"
	"math/rand"

	"prtree/internal/bulk"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/logmethod"
	"prtree/internal/rtree"
	"prtree/internal/storage"
	"prtree/internal/workload"
)

// FutureWorkUpdates runs the experiment the paper's Section 4 leaves for
// future work: bulk-load a PR-tree, then apply heuristic update algorithms
// (Guttman quadratic and the R*-tree heuristics) under churn and watch the
// query performance drift, compared against rebuilding from scratch and
// against the logarithmic method that provably keeps the optimal bound.
//
// Each round deletes a random 25% of the live items and inserts fresh
// replacements. The reported number is the paper's query metric (leaf
// blocks read as a percentage of T/B) on fixed 1% window queries.
func FutureWorkUpdates(cfg Config) Table {
	cfg = cfg.normalized()
	n := cfg.n(60000)
	const rounds = 4

	t := Table{
		ID:      "futurework",
		Title:   "Section 4 future work: PR-tree query cost under heuristic updates",
		Columns: []string{"churn rounds", "PR+Guttman", "PR+R*", "PR rebuilt", "log method"},
		Notes:   "25% of items replaced per round; rebuilt = fresh bulk-load of the same live set",
	}

	base := dataset.Eastern(n, cfg.Seed)
	queries := workload.Squares(geom.ItemsMBR(base), 0.01, cfg.Queries, cfg.Seed)
	opt := cfg.bulkOptions()

	// Two dynamically updated trees over the same evolving item set.
	guttman := bulk.FromItems(bulk.LoaderPR,
		storage.NewPager(storage.NewDisk(storage.DefaultBlockSize), -1), base, opt)
	rstarOpt := opt
	rstarOpt.Split = rtree.RStarSplit
	rstar := bulk.FromItems(bulk.LoaderPR,
		storage.NewPager(storage.NewDisk(storage.DefaultBlockSize), -1), base, rstarOpt)
	logm := logmethod.New(
		storage.NewPager(storage.NewDisk(storage.DefaultBlockSize), -1), opt, 0)
	for _, it := range base {
		logm.Insert(it)
	}

	live := make([]geom.Item, len(base))
	copy(live, base)
	rng := rand.New(rand.NewSource(cfg.Seed))
	nextID := uint32(n)

	record := func(round int) {
		rebuilt := bulk.FromItems(bulk.LoaderPR,
			storage.NewPager(storage.NewDisk(storage.DefaultBlockSize), -1), live, opt)
		cg := measureQueries(guttman, queries)
		cr := measureQueries(rstar, queries)
		cb := measureQueries(rebuilt, queries)
		var logLeaves, logResults int
		for _, q := range queries {
			st, _ := logm.RunWindow(q, false, nil, rtree.RunOptions{})
			logLeaves += st.LeavesVisited
			logResults += st.Results
		}
		logPct := "inf"
		if logResults > 0 {
			logPct = fmtPct(100 * float64(logLeaves) / (float64(logResults) / 113))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", round),
			fmtPct(cg.Pct), fmtPct(cr.Pct), fmtPct(cb.Pct), logPct,
		})
	}

	record(0)
	for round := 1; round <= rounds; round++ {
		churn := len(live) / 4
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		for _, victim := range live[:churn] {
			guttman.Delete(victim)
			rstar.Delete(victim)
			logm.Delete(victim)
		}
		fresh := dataset.Eastern(churn, cfg.Seed+int64(round))
		for i := range fresh {
			fresh[i].ID = nextID
			nextID++
			guttman.Insert(fresh[i])
			rstar.Insert(fresh[i])
			logm.Insert(fresh[i])
			live[i] = fresh[i]
		}
		record(round)
	}
	return t
}
