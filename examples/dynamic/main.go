// Dynamic indexing with the logarithmic method: the paper's proposal for
// supporting insertions and deletions while keeping the PR-tree's
// worst-case optimal query bound (Sections 1.2 and 4).
package main

import (
	"flag"
	"fmt"
	"math/rand"

	"prtree"
)

func main() {
	out := flag.String("out", "", "also persist a file-backed index with background compaction at this path")
	flag.Parse()

	idx := prtree.NewDynamic(nil)
	rng := rand.New(rand.NewSource(99))

	// A feed of moving-object bounding boxes: insert 30k, then churn.
	fmt.Println("inserting 30000 rectangles...")
	items := make([]prtree.Item, 30000)
	for i := range items {
		x, y := rng.Float64(), rng.Float64()
		items[i] = prtree.Item{
			Rect: prtree.NewRect(x, y, x+0.002, y+0.002),
			ID:   uint32(i),
		}
		idx.Insert(items[i])
	}
	io := idx.IOStats()
	fmt.Printf("amortized insert cost: %.3f block I/Os per item\n",
		float64(io.Total())/30000)

	fmt.Println("\nchurn: delete 10000, insert 10000 replacements...")
	idx.ResetIOStats()
	for i := 0; i < 10000; i++ {
		idx.Delete(items[i])
		x, y := rng.Float64(), rng.Float64()
		idx.Insert(prtree.Item{
			Rect: prtree.NewRect(x, y, x+0.002, y+0.002),
			ID:   uint32(100000 + i),
		})
	}
	fmt.Printf("live items: %d\n", idx.Len())

	q := prtree.NewRect(0.4, 0.4, 0.5, 0.5)
	var st prtree.QueryStats
	idx.Count(prtree.Window(q).WithStats(&st))
	fmt.Printf("query %v: %d results, %d leaf blocks across levels\n",
		q, st.Results, st.LeavesVisited)

	// Compact before a read-heavy phase: one static PR-tree again.
	idx.Flush()
	idx.Count(prtree.Window(q).WithStats(&st))
	fmt.Printf("after flush: %d results, %d leaf blocks (single level)\n",
		st.Results, st.LeavesVisited)

	if *out == "" {
		return
	}

	// The same index, durable and with online compaction: merges run in a
	// background goroutine while InsertE returns after an O(1) buffer
	// append, and readers keep serving snapshot-isolated pages throughout.
	fmt.Printf("\npersisting a background-compacted index at %s...\n", *out)
	d, err := prtree.CreateDynamic(*out, &prtree.Options{BackgroundCompaction: true})
	if err != nil {
		panic(err)
	}
	for _, it := range items {
		if err := d.InsertE(it); err != nil {
			panic(err)
		}
	}
	cs := d.CompactionStats()
	fmt.Printf("background merges: %d completed, %d aborted, write amp %.2f\n",
		cs.MergesCompleted, cs.MergesAborted, cs.WriteAmplification)
	if err := d.Close(); err != nil {
		panic(err)
	}
	fmt.Println("closed; reopen with prtree.OpenDynamic or compact with `prtool -index", *out, "compact`")
}
