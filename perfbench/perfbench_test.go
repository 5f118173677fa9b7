package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"prtree"
	"prtree/internal/dataset"
	"prtree/internal/geom"
	"prtree/internal/serve"
)

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at a tiny scale,
// untraced and traced, and checks that every answer was right and every
// metric BENCHMARK.json names is reported with its unit. ingest-mixed
// runs too, though BENCHMARK.json does not list it.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json names workload %s, the driver has none of that name", w.Name)
		}
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 1, trace: traced, scale: 0.01, workdir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestAnswerCheckRejectsTampering feeds the answer checks right answers,
// then answers with one item dropped or moved, and expects only the
// former to pass.
func TestAnswerCheckRejectsTampering(t *testing.T) {
	items := dataset.Eastern(3000, 1)
	ref := prtree.BulkWith(prtree.Hilbert, items, nil)
	pool := makePool(items, 200, mix{window: 40, point: 20, knn: 20, paper: 20}, 3)
	want, err := reference(ref, pool)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range pool {
		res := serve.Result{}
		if q.kind == kindKNN {
			nbs, err := ref.CollectNearest(prtree.Nearest(q.x, q.y, knnK))
			if err != nil {
				t.Fatal(err)
			}
			for _, nb := range nbs {
				res.Neighbors = append(res.Neighbors, serve.Neighbor{Item: nb.Item, Dist2: nb.Dist2})
			}
		} else {
			got, err := ref.Collect(prtree.Window(q.rect))
			if err != nil {
				t.Fatal(err)
			}
			res.Sets = [][]geom.Item{got}
		}
		if f, _ := resultFP(q, res); f != want[i] {
			t.Fatalf("query %d (%s): right answer rejected", i, kindNames[q.kind])
		}
		answer := res.Neighbors
		if q.kind != kindKNN {
			if len(res.Sets[0]) == 0 {
				continue
			}
			moved := append([]geom.Item(nil), res.Sets[0]...)
			moved[0].Rect.MaxX += 1e-9
			if f, _ := resultFP(q, serve.Result{Sets: [][]geom.Item{moved}}); f == want[i] {
				t.Errorf("query %d (%s): answer with a moved item accepted", i, kindNames[q.kind])
			}
			if plausible(q, moved, items) {
				t.Errorf("query %d (%s): moved item judged plausible", i, kindNames[q.kind])
			}
			dropped := res.Sets[0][1:]
			if f, _ := resultFP(q, serve.Result{Sets: [][]geom.Item{dropped}}); f == want[i] {
				t.Errorf("query %d (%s): answer with a dropped item accepted", i, kindNames[q.kind])
			}
			continue
		}
		swapped := append([]serve.Neighbor(nil), answer...)
		swapped[0], swapped[1] = swapped[1], swapped[0]
		if f, _ := resultFP(q, serve.Result{Neighbors: swapped}); f == want[i] {
			t.Errorf("query %d: k-NN answer out of order accepted", i)
		}
	}
}

// TestExactCheckRejectsStaleModel checks the dynamic index against a
// model that misses one stored item: the size check and the brute-force
// comparison must both fail.
func TestExactCheckRejectsStaleModel(t *testing.T) {
	items := dataset.Eastern(2000, 1)
	d := prtree.NewDynamic(nil)
	defer d.Close()
	for _, it := range items {
		if err := d.InsertE(it); err != nil {
			t.Fatal(err)
		}
	}
	pool := makePool(items, 100, mix{window: 90, knn: 10}, 5)
	run := &ingestRun{live: items}
	run.checkExact(d, pool)
	if run.failed != 0 {
		t.Fatalf("exact model: %d of %d checks failed", run.failed, run.attempted)
	}
	// Drop from the model one item the first window finds.
	var window geom.Rect
	for _, q := range pool {
		if q.kind == kindWindow {
			window = q.rect
			break
		}
	}
	stale := &ingestRun{}
	dropped := false
	for _, it := range items {
		if !dropped && it.Rect.Intersects(window) {
			dropped = true
			continue
		}
		stale.live = append(stale.live, it)
	}
	stale.checkExact(d, pool)
	if stale.failed < 2 {
		t.Fatalf("stale model: only %d of %d checks failed", stale.failed, stale.attempted)
	}
}

// TestSummarize checks the phase figures on a steady stream of 1,000
// operations a second over 20 s, where every hundredth operation takes
// 10 ms and the rest 100 us, and then with slow slices.
func TestSummarize(t *testing.T) {
	var samples []sample
	for i := 0; i < 20000; i++ {
		lat := 100 * time.Microsecond
		if i%100 == 99 {
			lat = 10 * time.Millisecond
		}
		samples = append(samples, sample{at: time.Duration(i) * time.Millisecond, lat: lat})
	}
	s := summarize(samples, 20*time.Second, nil)
	if s.Slices != 20 || s.P50 != 100 || s.P99 != 100 || math.Abs(s.PerSec-1000) > 1e-6 {
		t.Fatalf("steady stream: %+v", s)
	}
	// Every operation of the first nine slices takes 10 ms: a minority
	// of slices leaves the medians, a majority moves them.
	for i := range samples[:9000] {
		samples[i].lat = 10 * time.Millisecond
	}
	if s = summarize(samples, 20*time.Second, nil); s.P50 != 100 || s.P99 != 100 {
		t.Fatalf("nine slow slices of twenty: %+v", s)
	}
	for i := range samples[:11000] {
		samples[i].lat = 10 * time.Millisecond
	}
	if s = summarize(samples, 20*time.Second, nil); s.P50 != 10000 || s.P99 != 10000 {
		t.Fatalf("eleven slow slices of twenty: %+v", s)
	}
}
