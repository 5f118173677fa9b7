// Command perfbench is the repository's benchmark: three seeded
// workloads that measure the PR-tree system end to end, check every
// answer, and, when traced, break the cost down by layer.
//
//	bash perfbench/run.sh --workload serve-cached --seed 1 --seconds 30 --trace 0
//
// Workloads (BENCHMARK.json says why each exists):
//
//   - serve-cached: sharded index served over the binary protocol on
//     loopback, open-loop at a fixed rate, whole index cached.
//   - query-pressure: one file-backed PR-tree queried by two closed-loop
//     callers through a page cache holding 10% of its pages.
//   - ingest-mixed: a durable dynamic index with background compaction;
//     one writer commits each insert or delete with a WAL fsync while one
//     reader queries. BENCHMARK.json does not list it: each write waits
//     on two fsyncs, so its figures follow the disk, which a virtual
//     machine shares with its host's other tenants. On a 2-vCPU VM the
//     same code's write p99 spread by a quarter of its median over ten
//     runs, and some runs were 2.5 to 5 times slower throughout.
//     The command still runs it and checks every answer.
//
// With --trace 0 the last line of standard output is the end-to-end
// result; with --trace 1 it carries the per-layer figures of a traced
// run, whose spans are written under the work directory. The lines
// before it record the environment of the run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"prtree/internal/storage"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // multiplies dataset and pool sizes; 1 is the benchmark, the self-test shrinks it
	workdir  string  // where index files and spans are written
}

// phase is the length of one measured phase: the whole run, or half of it
// in a traced run, which measures an untraced and a traced phase to
// report the tracing overhead.
func (c config) phase() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d /= 2
	}
	return d
}

// scaled returns n scaled by the config's scale, at least lo.
func (c config) scaled(n, lo int) int { return max(int(float64(n)*c.scale), lo) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	e2e               metrics // end-to-end figures of the untraced phase
	layers            metrics // per-layer figures; traced runs only
	env               map[string]any
}

var workloads = map[string]func(config, *tracer) (*outcome, error){
	"serve-cached":   runServeCached,
	"query-pressure": runQueryPressure,
	"ingest-mixed":   runIngestMixed,
}

func main() {
	cfg := config{scale: 1}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: serve-cached, query-pressure or ingest-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and reports per-layer figures")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench/work", "directory for index files and spans")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload in a fresh directory under cfg.workdir and
// removes its index files afterwards; spans stay for inspection.
func run(cfg config) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, names)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	runCfg := cfg
	runCfg.workdir = dir

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out, err := fn(runCfg, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	env := environment(cfg, dir)
	for k, v := range out.env {
		env[k] = v
	}
	res := &result{Attempted: out.attempted, Failed: out.failed, Metrics: out.e2e}
	if cfg.trace {
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		n, err := tr.write(path)
		if err != nil {
			return nil, err
		}
		env["spans_file"] = path
		out.layers.set("trace.spans", "count", float64(n))
		res.Metrics = out.layers
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(envLine))
	res.Correct = out.failed == 0 && out.attempted > 0
	return res, nil
}

// e2eCommon adds the end-to-end figures every workload reports the same
// way. bytes_per_item counts the pages the index references; the file
// can be larger, because pages freed by bulk-load scratch or by merges
// stay in it, and how many merges left free pages behind depends on
// timing. The file's own size per item is a per-layer figure.
func e2eCommon(m metrics, setups []time.Duration, attempted, failed int, leaves, tbBlocks float64, pages, items int) {
	m.set("setup_s", "s", medianSeconds(setups))
	m.set("ok_share", "ratio", 1-ratio(float64(failed), float64(attempted)))
	m.set("leaf_io_pct_tb", "%", 100*ratio(leaves, tbBlocks))
	m.set("bytes_per_item", "B", ratio(float64(pages*storage.DefaultBlockSize), float64(items)))
}

// e2eQueries records the latency and rate figures: op is the workload's
// primary operation and read its read queries, the same stream on the
// read-only workloads.
func e2eQueries(m metrics, op, read latencySummary) {
	m.set("op_p50_us", "us", op.P50)
	m.set("op_p99_us", "us", op.P99)
	m.set("op_per_s", "1/s", op.PerSec)
	m.set("read_p50_us", "us", read.P50)
	m.set("read_p99_us", "us", read.P99)
	m.set("read_per_s", "1/s", read.PerSec)
}

// fileSize returns the summed sizes of the named files.
func fileSize(paths ...string) (int64, error) {
	var n int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}
