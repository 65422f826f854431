package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/sim"
)

// Tiny versions of the four workloads: the same shapes and code paths
// at a scale that runs in about a second.
var (
	tinyNoc   = simWorkload{tiles: 16, kernel: "radix", mode: repro.ModeReciprocal, mem: "fixed", ops: 20}
	tinyCalib = simWorkload{tiles: 4, kernel: "fft", mode: repro.ModeCalibrated, mem: "ddr", ops: 20}
	tinySys   = simWorkload{tiles: 16, kernel: "water", mode: repro.ModeAbstract, mem: "ddr", ops: 20}
	tinySweep = sweepWorkload{workers: 2, maxResident: 3, tenants: 2, tiles: 4, ops: 20,
		kernels: []string{"fft", "radix"}, modes: []string{"reciprocal", "calibrated"}, seeds: 2}
)

func tinyWorkloads() map[string]benchWorkload {
	return map[string]benchWorkload{
		"noc-bound": tinyNoc, "calib-ddr": tinyCalib, "sys-bound": tinySys, "serve-sweep": tinySweep,
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric and workload names
// perfbench reports in step with BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []def) {
		if len(got) != len(want) {
			t.Fatalf("%s: perfbench has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: perfbench %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to perfbench", w.Name)
		}
	}
}

// TestTinyRunsEmitEveryMetric runs every workload untraced and traced
// at tiny scale: each must pass its checks and report every metric of
// its catalog, with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	stateRoot = t.TempDir()
	for name, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			rec := newRecorder()
			var out outcome
			defs := endToEnd
			if traced {
				out, defs = w.trace(7, time.Millisecond, rec), perLayer
			} else {
				out = w.measure(7, time.Millisecond, rec)
			}
			res, err := newResult(out, defs)
			if err != nil || !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: err=%v result=%+v notes:\n%s", name, traced, err, res, strings.Join(out.notes, "\n"))
				continue
			}
			if out.fingerprint == "" {
				t.Errorf("%s traced=%v: no fingerprint", name, traced)
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, d.name, m, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
			if len(rec.spans) == 0 {
				t.Errorf("%s traced=%v: no spans recorded", name, traced)
			}
		}
	}
}

// TestFailuresAreCounted checks that a tampered fingerprint and an
// unfinished run each count as a failed operation instead of passing.
func TestFailuresAreCounted(t *testing.T) {
	w := tinyNoc
	rec := newRecorder()
	a, b := w.once(3, rec, 0), w.once(3, rec, 0)
	if a.err != nil || b.err != nil {
		t.Fatalf("clean runs failed: %v, %v", a.err, b.err)
	}
	if _, failed, _ := account([]simRun{a, b}); failed != 0 {
		t.Fatalf("two identical runs: %d failed", failed)
	}
	b.fp += "x"
	if good, failed, _ := account([]simRun{a, b}); failed != 1 || len(good) != 1 {
		t.Errorf("tampered fingerprint: %d failed, %d good; want 1 and 1", failed, len(good))
	}

	cs, err := w.build(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	res := cs.Run(sim.Cycle(200)) // far short of completion
	u := simRun{res: res, fp: a.fp, err: w.check(cs, res)}
	if u.err == nil {
		t.Fatal("check passed an unfinished run")
	}
	if _, failed, _ := account([]simRun{a, u}); failed != 1 {
		t.Errorf("unfinished run: %d failed, want 1", failed)
	}

	// A serve-sweep repetition whose digest reports a different
	// fingerprint than an earlier repetition fails.
	ref := map[string]string{"d1": "fp-a", "d2": "fp-b"}
	r := sweepRun{fps: map[string]string{"d1": "fp-a", "d2": "fp-tampered"}}
	r.reconcile(ref)
	if len(r.failures) != 1 {
		t.Errorf("tampered sweep fingerprint: failures %v, want one", r.failures)
	}
	// And a result with any failure is not correct.
	res2, _ := newResult(outcome{attempted: 2, failed: 1}, nil)
	if res2.Correct {
		t.Error("a result with a failed operation reports correct")
	}
}
