// Command perfbench is the repository's co-simulation benchmark. It
// runs one named workload through the public entry points
// (repro.BuildCosim, core.Cosim.Run, cosimd.NewServer/Submit/Wait),
// checks every run's output, and prints its metrics as one JSON
// object on the last line of standard output:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 repeats the workload untraced for --seconds and reports
// the end-to-end metrics (medians over the repetitions). --trace 1
// repeats it untraced for half that time, then runs it once more with
// the layer probes attached and reports the per-layer metrics. The
// workloads, metrics and their expected interactions are documented
// in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, reported by
// untraced runs (--trace 0). They must match BENCHMARK.json.
var endToEnd = []metricDef{
	{"sim_cycles_per_s", "cycles/s"},
	{"run_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"model_lat_err_pct", "%"},
}

// perLayer are the traced run's per-layer metrics (--trace 1), named
// after the repository's modules. They must match BENCHMARK.json. A
// layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"noc.advance_s", "s"},
	{"noc.ns_per_active_router_cycle", "ns"},
	{"noc.cycles_stepped", "count"},
	{"noc.cycles_skipped", "count"},
	{"noc.active_occupancy", "ratio"},
	{"noc.flits_switched", "count"},
	{"noc.pool_hit_rate", "ratio"},
	{"fullsys.wall_s", "s"},
	{"fullsys.ns_per_tile_cycle", "ns"},
	{"fullsys.retired_ops", "count"},
	{"dram.advance_s", "s"},
	{"dram.reads", "count"},
	{"dram.writes", "count"},
	{"dram.row_hit_rate", "ratio"},
	{"abstractnet.advance_s", "s"},
	{"calib.advance_s", "s"},
	{"calib.refits", "count"},
	{"core.quanta", "count"},
	{"core.coupling_s", "s"},
	{"core.coupling_ns_per_quantum", "ns"},
	{"core.deliveries", "count"},
	{"core.mem_completions", "count"},
	{"core.fork_us", "us"},
	{"core.restore_fork_us", "us"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.decode_ms", "ms"},
	{"snapshot.bytes", "bytes"},
	{"cosimd.slice_s", "s"},
	{"cosimd.park_warm_s", "s"},
	{"cosimd.faultin_warm_s", "s"},
	{"cosimd.spill_s", "s"},
	{"cosimd.faultin_disk_s", "s"},
	{"cosimd.evict_disk_s", "s"},
	{"cosimd.build_s", "s"},
	{"cosimd.slice_count", "count"},
	{"cosimd.park_warm_count", "count"},
	{"cosimd.faultin_warm_count", "count"},
	{"cosimd.spill_count", "count"},
	{"cosimd.faultin_disk_count", "count"},
	{"cosimd.evict_disk_count", "count"},
	{"cosimd.build_count", "count"},
	{"cosimd.evictions", "count"},
	{"cosimd.restores", "count"},
	{"cosimd.warm_restores", "count"},
	{"cosimd.spills", "count"},
	{"cosimd.cache_hits", "count"},
	{"cosimd.worker_util", "ratio"},
	{"cosimd.warm_restore_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
}

// benchWorkload is one benchmark workload. Both methods run for about
// budget of wall time and record their own spans into rec.
type benchWorkload interface {
	// measure repeats the workload untraced and reports the end-to-end
	// metrics.
	measure(seed uint64, budget time.Duration, rec *recorder) outcome
	// trace repeats the workload untraced for half the budget, then
	// runs it once traced, and reports the per-layer metrics.
	trace(seed uint64, budget time.Duration, rec *recorder) outcome
}

// outcome is what a workload reports back to run.
type outcome struct {
	attempted, failed int
	// fingerprint identifies the simulated results exactly; two
	// commits that simulate the same thing print the same one.
	fingerprint string
	values      map[string]float64
	// notes are human-readable lines printed before the result.
	notes []string
}

// workloads maps each workload name to its definition (workloads.go).
var workloads = map[string]benchWorkload{
	"noc-bound":   nocBound,
	"calib-ddr":   calibDDR,
	"sys-bound":   sysBound,
	"serve-sweep": serveSweep,
}

// stateRoot holds everything a run writes: the server's state
// directories and the span files. It is relative to the checkout root
// the benchmark runs from (tests point it at a temporary directory).
var stateRoot = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: noc-bound|calib-ddr|sys-bound|serve-sweep")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "wall time the repetitions run for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", sortedNames())
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	rec := newRecorder()
	var out outcome
	if *trace == 1 {
		out = w.trace(*seed, budget, rec)
	} else {
		out = w.measure(*seed, budget, rec)
	}

	host := readHost()
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res, err := newResult(out, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		res.Correct = false
	}
	spansPath := filepath.Join(stateRoot, fmt.Sprintf("spans-%s-seed%d-trace%d.json", *name, *seed, *trace))
	if err := writeSpans(spansPath, *name, *seed, *trace, host, rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
	}

	fmt.Fprintf(stdout, "workload=%s seed=%d trace=%d seconds=%g\n", *name, *seed, *trace, *seconds)
	fmt.Fprintf(stdout, "host: %s\n", host)
	fmt.Fprintf(stdout, "fingerprint: %s\n", out.fingerprint)
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	fmt.Fprintf(stdout, "spans: %s\n", spansPath)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult attaches units to the outcome's values. Every defined
// metric is reported; one the workload did not produce is an error
// (and a non-finite value reports as 0, which JSON can carry).
func newResult(out outcome, defs []metricDef) (result, error) {
	res := result{
		Correct:   out.attempted > 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	var missing []string
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return res, fmt.Errorf("workload reported no value for %v", missing)
	}
	return res, nil
}

func sortedNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
