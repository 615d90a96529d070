// Command perfbench is the repository benchmark. It starts lsserve as a
// child process on loopback, drives one workload over HTTP for a fixed
// time, checks every answer against its own ground truth, and prints the
// metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload adhoc --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it replays the same sequence untraced and then with explain on
// every count, and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// Metric is one reported metric's unit.
type Metric struct{ Name, Unit string }

// endToEndMetrics are reported by --trace 0 runs, on every workload.
var endToEndMetrics = []Metric{
	{"setup_s", "s"},
	{"count_p50_ms", "ms"},
	{"counts_per_s", "1/s"},
	{"process.cpu_ms_per_count", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayerMetrics are reported by --trace 1 runs, on every workload; a
// layer a workload never enters reads 0.
var perLayerMetrics = []Metric{
	{"service.http_ms", "ms"},
	{"service.admission_wait_ms", "ms"},
	{"service.prepare_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"lsample.execute_self_ms", "ms"},
	{"lsample.catalog_ms", "ms"},
	{"lsample.catalog_zero_eval_ratio", "ratio"},
	{"shard.drive_ms", "ms"},
	{"shard.census_ms", "ms"},
	{"shard.attempt_ms", "ms"},
	{"engine.enumerate_ms", "ms"},
	{"engine.features_ms", "ms"},
	{"predicate.build_ms", "ms"},
	{"predicate.label_ms", "ms"},
	{"predicate.evals_per_count", "count"},
	{"predicate.ns_per_eval", "ns"},
	{"predicate.compiled_ratio", "ratio"},
	{"learn.learn_ms", "ms"},
	{"stratify.design_ms", "ms"},
	{"core.sample_ms", "ms"},
	{"live.ingest_server_ms", "ms"},
	{"live.ingest_http_ms", "ms"},
	{"wal.bytes_per_ingested_byte", "ratio"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"client.lag_p99_ms", "ms"},
	{"count_p90_ms", "ms"},
	{"count_p99_ms", "ms"},
	{"slo_miss_ratio", "ratio"},
	{"fail_ratio", "ratio"},
	{"ingest_p50_ms", "ms"},
	{"fresh_count_p50_ms", "ms"},
	{"rel_err_p50", "ratio"},
	{"ci_width_rel_p50", "ratio"},
	{"ci_undercoverage", "ratio"},
}

// setupRuns is how many times a --trace 0 run sets the server up; it
// reports the median set-up time and measures on the last server. The
// dashboard warm-up takes seconds, the other set-ups milliseconds.
var setupRuns = map[string]int{"adhoc": 9, "dashboard": 3, "ingest": 9}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "adhoc, dashboard or ingest")
		seed     = flag.Uint64("seed", 1, "seed for data and request sequences")
		seconds  = flag.Int("seconds", 10, "measured time per pass")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced replay")
		out      = flag.String("out", ".bench_build", "build and results directory")
	)
	flag.Parse()
	// The load generator's own collections would stall its connections
	// mid-request and show up as server latency; collect only near a cap
	// far above what one run retains.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(256 << 20)
	if err := run(*workload, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int, out string) error {
	switch workload {
	case "adhoc", "dashboard", "ingest":
	default:
		return fmt.Errorf("unknown --workload %q (want adhoc, dashboard or ingest)", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d < 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	traced := trace == 1
	name := fmt.Sprintf("%s-seed%d-trace%d", workload, seed, trace)
	runDir := filepath.Join(out, "runs", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	resDir := filepath.Join(out, "results")
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		return err
	}

	data := GenData(seed, nD, nE, nR, nKeys)
	b := &bench{
		workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second,
		bin: filepath.Join(out, "lsserve"), runDir: runDir,
		data: data, truth: NewTruth(data),
	}

	var passes []*Pass
	var values map[string]float64
	want := endToEndMetrics
	if !traced {
		var setups []float64
		var e *env
		n := setupRuns[workload]
		for i := range n {
			var err error
			if e, err = b.setup(); err != nil {
				return err
			}
			setups = append(setups, e.pass.Setup.Seconds())
			if i < n-1 {
				e.stop()
			}
		}
		err := b.measure(e, false)
		e.stop()
		if err != nil {
			return err
		}
		passes = []*Pass{e.pass}
		values = endToEnd(e.pass, median(setups))
	} else {
		u, err := b.runPass(false)
		if err != nil {
			return err
		}
		tr, err := b.runPass(true)
		if err != nil {
			return err
		}
		passes = []*Pass{u, tr}
		values = perLayer(u, tr)
		want = perLayerMetrics
		layers(tr).print(os.Stdout, workload, values["obs.trace_overhead_ratio"])
		if err := writeSpans(filepath.Join(resDir, name+"-spans.json"), passes); err != nil {
			return err
		}
	}

	res := result{Metrics: map[string]value{}}
	all := b.warm
	for _, p := range passes {
		all = append(all, p.Recs...)
	}
	for _, r := range all {
		res.Attempted++
		if r.Err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", opName(r.Op), r.Err)
		}
	}
	res.Correct = res.Failed == 0
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", m.Name)
		}
		res.Metrics[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(resDir, name+".json"), append(line, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func opName(op Op) string {
	if op.Req == nil {
		return "ingest delta"
	}
	return op.Query.String()
}

// writeSpans dumps every client span of the passes, with the server span
// trees of traced counts, in start order per pass.
func writeSpans(path string, passes []*Pass) error {
	type passDump struct {
		Traced bool   `json:"traced"`
		Spans  []Span `json:"spans"`
	}
	var dump []passDump
	for i, p := range passes {
		spans := append([]Span(nil), p.Spans...)
		for _, r := range p.Recs {
			spans = append(spans, r.Span)
		}
		sort.SliceStable(spans, func(a, b int) bool { return spans[a].StartMS < spans[b].StartMS })
		dump = append(dump, passDump{Traced: i == 1, Spans: spans})
	}
	b, err := json.Marshal(dump)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
