//simlint:allow-file wallclock benchmark harness: wall time here measures the host running the simulator and never feeds simulated state
package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/abstractnet"
	"repro/internal/core"
	"repro/internal/cosimd"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simWorkload is a single co-simulation, built with repro.BuildCosim
// and run to completion with core.Cosim.Run.
type simWorkload struct {
	tiles  int
	kernel string
	mode   repro.Mode
	mem    string
	ops    int // memory operations per core
}

const (
	// cycleLimit bounds every run; a run that hits it has not finished
	// and counts as failed.
	cycleLimit = sim.Cycle(50_000_000)
	// minReps is the fewest timed repetitions a run makes, however
	// short --seconds is, so a median exists.
	minReps = 3
	// setupsPerRep extra set-ups (built and discarded) follow every
	// repetition, so setup_s samples the whole run rather than one
	// moment of it; minSetups is the fewest it is the median of.
	setupsPerRep = 4
	minSetups    = 30
	// probeReps repeats each midpoint probe of the traced run.
	probeReps = 5
	// replayWindow is how many cycles of an analytical-mode run are
	// replayed through the cycle-level NoC to price the model's error.
	replayWindow = sim.Cycle(100_000)
	// replayDrain bounds the replay's drain after its last injection.
	replayDrain = 100_000
)

func (w simWorkload) config() repro.Config {
	cfg := repro.DefaultConfig(w.tiles)
	cfg.System.MemModel = w.mem
	return cfg
}

func (w simWorkload) build(seed uint64) (*core.Cosim, error) {
	wl, err := workload.ByName(w.kernel, w.tiles, w.ops, seed)
	if err != nil {
		return nil, err
	}
	return repro.BuildCosim(w.config(), w.mode, wl)
}

// check is the per-run correctness rule: the workload ran to
// completion, without a watchdog stall, and every core retired its
// whole memory-operation budget.
func (w simWorkload) check(cs *core.Cosim, res core.Result) error {
	var memOps uint64
	for i := 0; i < w.tiles; i++ {
		st := cs.Sys.Tile(i).Stats()
		memOps += st.Loads + st.Stores + st.Atomics
	}
	switch {
	case res.Stalled:
		return fmt.Errorf("stalled at cycle %d", res.ExecCycles)
	case !res.Finished:
		return fmt.Errorf("unfinished at cycle %d", res.ExecCycles)
	case memOps != uint64(w.tiles*w.ops):
		return fmt.Errorf("retired %d memory operations, want %d", memOps, w.tiles*w.ops)
	}
	return nil
}

// simRun is one repetition.
type simRun struct {
	setup, run time.Duration
	res        core.Result
	fp         string
	latErrPct  float64
	err        error
}

// once builds and runs the workload one time.
func (w simWorkload) once(seed uint64, rec *recorder, parent int) simRun {
	var r simRun
	var cs *core.Cosim
	r.setup = rec.timed(parent, "setup", func() { cs, r.err = w.build(seed) })
	if r.err != nil {
		return r
	}
	defer cs.Close()
	r.run = rec.timed(parent, "run", func() { r.res = cs.Run(cycleLimit) })
	rec.timed(parent, "check", func() {
		r.fp = cosimd.Fingerprint(cs, r.res)
		r.err = w.check(cs, r.res)
		r.latErrPct = couplingErrPct(cs, r.res)
	})
	return r
}

// couplingErrPct is the gap between the mean latency the full system
// was charged for its packets and the mean latency the cycle-level NoC
// measured for the same packets, in percent of the latter. Under the
// calibrated backend the system is charged the tuned model's latency;
// under a quantum-coupled detailed backend it is charged the measured
// latency plus the delivery skew the quantum adds. Analytical backends
// have no measurement in the run (see replayErrPct); they report NaN.
func couplingErrPct(cs *core.Cosim, res core.Result) float64 {
	if cal, ok := cs.Net.(*core.Calibrated); ok {
		measured := cal.Tracker().Mean()
		return 100 * math.Abs(cal.TimingTracker().Mean()-measured) / measured
	}
	if _, ok := cs.Net.(*core.Detailed); ok {
		return 100 * res.AvgSkew / res.AvgLatency
	}
	return math.NaN()
}

// replayErrPct prices an analytical backend's latency error: it
// records the injections of the run's first replayWindow cycles and
// replays them open-loop through the cycle-level NoC of the same
// configuration, then compares the two mean latencies. Deterministic
// for a seed, so it is measured once per invocation, outside the timed
// runs.
func (w simWorkload) replayErrPct(seed uint64) (float64, error) {
	wl, err := workload.ByName(w.kernel, w.tiles, w.ops, seed)
	if err != nil {
		return 0, err
	}
	cfg := w.config()
	backend, err := repro.BuildBackend(cfg, w.mode)
	if err != nil {
		return 0, err
	}
	recBackend := core.NewRecorder(backend)
	sysCfg := cfg.System
	sysCfg.Tiles = cfg.Tiles
	cs, err := core.Build(sysCfg, wl, recBackend, repro.ModeQuantum(cfg, w.mode))
	if err != nil {
		return 0, err
	}
	defer cs.Close()
	cs.Run(replayWindow)
	model := recBackend.Tracker().Mean()
	net, err := repro.BuildNoC(cfg)
	if err != nil {
		return 0, err
	}
	defer net.Close()
	measured := core.Replay(recBackend.Trace, net, replayDrain).Mean()
	return 100 * math.Abs(model-measured) / measured, nil
}

// repeat runs the workload untraced until budget has passed (and at
// least minReps times). setups holds every set-up time it took: each
// repetition's own and setupsPerRep extra ones after it.
func (w simWorkload) repeat(seed uint64, budget time.Duration, rec *recorder) (runs []simRun, good []simRun, failed int, fp string, setups []float64) {
	start := time.Now()
	for len(runs) < minReps || time.Since(start) < budget {
		// Start every repetition from a collected heap, so one run's
		// garbage neither slows the next nor raises the peak RSS.
		runtime.GC()
		id := rec.begin(0, fmt.Sprintf("rep%d", len(runs)))
		r := w.once(seed, rec, id)
		rec.end(id)
		runs = append(runs, r)
		setups = append(setups, r.setup.Seconds())
		setups = append(setups, w.setupTimes(seed, setupsPerRep, rec)...)
	}
	good, failed, fp = account(runs)
	return runs, good, failed, fp, setups
}

// setupTimes builds (and discards) the workload n times and returns
// the set-up times, starting each from a collected heap.
func (w simWorkload) setupTimes(seed uint64, n int, rec *recorder) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		var cs *core.Cosim
		var err error
		d := rec.timed(0, "setup.extra", func() { cs, err = w.build(seed) })
		if err != nil {
			break // the repetitions report the failure
		}
		cs.Close()
		out = append(out, d.Seconds())
	}
	return out
}

// account sorts repetitions into good and failed: a run fails when its
// own check failed or its fingerprint differs from the first passing
// run's. fp is that reference fingerprint.
func account(runs []simRun) (good []simRun, failed int, fp string) {
	for _, r := range runs {
		if r.err == nil && fp == "" {
			fp = r.fp
		}
	}
	for _, r := range runs {
		if r.err != nil || r.fp != fp {
			failed++
			continue
		}
		good = append(good, r)
	}
	return good, failed, fp
}

func (w simWorkload) measure(seed uint64, budget time.Duration, rec *recorder) outcome {
	runs, good, failed, fp, setups := w.repeat(seed, budget, rec)
	out := outcome{attempted: len(runs), failed: failed, fingerprint: fp}
	out.notes = runNotes(runs)
	if len(good) == 0 {
		return out
	}
	var runSecs, rates []float64
	for _, r := range good {
		runSecs = append(runSecs, r.run.Seconds())
		rates = append(rates, float64(r.res.ExecCycles)/r.run.Seconds())
	}
	if len(setups) < minSetups {
		setups = append(setups, w.setupTimes(seed, minSetups-len(setups), rec)...)
	}
	latErr := good[0].latErrPct
	if math.IsNaN(latErr) {
		var err error
		rec.timed(0, "accuracy.replay", func() { latErr, err = w.replayErrPct(seed) })
		if err != nil {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("accuracy replay failed: %v", err))
		}
	}
	out.values = map[string]float64{
		"sim_cycles_per_s":  median(rates),
		"run_s":             median(runSecs),
		"setup_s":           median(setups),
		"peak_rss_mb":       peakRSSMB(),
		"model_lat_err_pct": latErr,
	}
	return out
}

// runNotes prints one line per repetition.
func runNotes(runs []simRun) []string {
	var notes []string
	for i, r := range runs {
		status := "ok"
		if r.err != nil {
			status = r.err.Error()
		}
		notes = append(notes, fmt.Sprintf("rep%d setup=%.4fs run=%.4fs cycles=%d retired=%d %s",
			i, r.setup.Seconds(), r.run.Seconds(), r.res.ExecCycles, r.res.Retired, status))
	}
	return notes
}

func (w simWorkload) trace(seed uint64, budget time.Duration, rec *recorder) outcome {
	runs, good, failed, fp, _ := w.repeat(seed, budget/2, rec)
	out := outcome{attempted: len(runs) + 1, failed: failed, fingerprint: fp}
	out.notes = runNotes(runs)
	if len(good) == 0 {
		out.failed++
		return out
	}
	var runSecs []float64
	for _, r := range good {
		runSecs = append(runSecs, r.run.Seconds())
	}
	runtime.GC()
	id := rec.begin(0, "traced")
	vals, tfp, runDur, err := w.traced(seed, good[0].res.ExecCycles/2, rec, id)
	rec.end(id)
	switch {
	case err != nil:
		out.failed++
		out.notes = append(out.notes, fmt.Sprintf("traced run failed: %v", err))
		return out
	case tfp != fp:
		out.failed++
		out.notes = append(out.notes, "traced run fingerprint differs: "+tfp)
	}
	vals["trace.overhead_pct"] = 100 * (runDur.Seconds()/median(runSecs) - 1)
	out.values = vals
	out.notes = append(out.notes, fmt.Sprintf("traced run=%.4fs", runDur.Seconds()))
	return out
}

// traced runs the workload once with an obs observer attached (metrics,
// calibration log, wall-time annotations), probes fork and snapshot
// cost at cycle mid, and returns the per-layer metrics, the run's
// fingerprint and the wall time of its two Run calls.
func (w simWorkload) traced(seed uint64, mid sim.Cycle, rec *recorder, parent int) (map[string]float64, string, time.Duration, error) {
	var cs *core.Cosim
	var det *core.Detailed
	var err error
	rec.timed(parent, "setup", func() { cs, det, err = w.buildObserved(seed) })
	if err != nil {
		return nil, "", 0, err
	}
	defer cs.Close()
	o := obs.New(obs.Options{Metrics: true, Calib: true, Wall: true})
	cs.SetObserver(o)

	var res core.Result
	runDur := rec.timed(parent, "run.first_half", func() { cs.Run(mid) })
	vals := map[string]float64{}
	if err := w.probe(seed, cs, rec, parent, vals); err != nil {
		return nil, "", 0, err
	}
	runDur += rec.timed(parent, "run.second_half", func() { res = cs.Run(cycleLimit) })

	var fp string
	rec.timed(parent, "check", func() {
		fp = cosimd.Fingerprint(cs, res)
		err = w.check(cs, res)
	})
	if err != nil {
		return nil, "", 0, err
	}

	// Component advance walls, from the observer's per-component
	// wall.advance_ns histograms (sum = mean x count).
	var netAdv, memAdv float64
	var refits uint64
	var quanta, deliveries, memDone float64
	o.Metrics().Visit(func(v obs.MetricView) {
		switch {
		case v.Name == "wall.advance_ns/"+cs.Net.Name():
			netAdv = v.Hist.Mean() * float64(v.Hist.Count()) / 1e9
		case strings.HasPrefix(v.Name, "wall.advance_ns/mem"):
			memAdv += v.Hist.Mean() * float64(v.Hist.Count()) / 1e9
		case strings.HasPrefix(v.Name, "calib.retunes/"):
			refits += uint64(v.Value)
		case v.Name == "cosim.quanta":
			quanta = v.Value
		case v.Name == "net.delivered":
			deliveries = v.Value
		case v.Name == "mem.completions":
			memDone = v.Value
		}
	})
	for _, d := range perLayer {
		if _, ok := vals[d.name]; !ok {
			vals[d.name] = 0
		}
	}
	switch w.mode {
	case repro.ModeCalibrated:
		// The shadow NoC advances inside the calibrated backend, so its
		// wall is part of calib.advance_s (see README, known gaps).
		vals["calib.advance_s"] = netAdv
	case repro.ModeAbstract, repro.ModeContention:
		vals["abstractnet.advance_s"] = netAdv
	default:
		vals["noc.advance_s"] = netAdv
	}
	if det != nil {
		a := det.ActivityStats()
		vals["noc.cycles_stepped"] = float64(a.Stepped)
		vals["noc.cycles_skipped"] = float64(a.Skipped)
		vals["noc.active_occupancy"] = a.Occupancy()
		vals["noc.pool_hit_rate"] = a.PoolHitRate()
		vals["noc.flits_switched"] = float64(det.FlitsSwitched())
		if a.ActiveSum > 0 {
			vals["noc.ns_per_active_router_cycle"] = vals["noc.advance_s"] * 1e9 / float64(a.ActiveSum)
		}
	}
	vals["fullsys.wall_s"] = res.SysWall.Seconds()
	vals["fullsys.ns_per_tile_cycle"] = float64(res.SysWall.Nanoseconds()) / float64(w.tiles) / float64(res.ExecCycles)
	vals["fullsys.retired_ops"] = float64(res.Retired)
	dr := cs.Sys.DRAMStats()
	vals["dram.advance_s"] = memAdv
	vals["dram.reads"] = float64(dr.Reads)
	vals["dram.writes"] = float64(dr.Writes)
	vals["dram.row_hit_rate"] = dr.RowHitRate()
	vals["calib.refits"] = float64(refits)
	coupling := res.NetWall.Seconds() - netAdv - memAdv
	vals["core.quanta"] = quanta
	vals["core.coupling_s"] = coupling
	if quanta > 0 {
		vals["core.coupling_ns_per_quantum"] = coupling * 1e9 / quanta
	}
	vals["core.deliveries"] = deliveries
	vals["core.mem_completions"] = memDone
	return vals, fp, runDur, nil
}

// buildObserved builds the workload like build does and also returns
// its cycle-level network adapter, when it has one. The calibrated
// backend keeps its shadow network private, so for that mode the
// backend is wired here from the same public constructors
// repro.BuildBackend uses; the traced run's fingerprint check against
// the untraced runs proves the wiring identical.
func (w simWorkload) buildObserved(seed uint64) (*core.Cosim, *core.Detailed, error) {
	if w.mode != repro.ModeCalibrated {
		cs, err := w.build(seed)
		if err != nil {
			return nil, nil, err
		}
		det, _ := cs.Net.(*core.Detailed)
		return cs, det, nil
	}
	wl, err := workload.ByName(w.kernel, w.tiles, w.ops, seed)
	if err != nil {
		return nil, nil, err
	}
	cfg := w.config()
	topo, routing, err := repro.BuildTopology(cfg)
	if err != nil {
		return nil, nil, err
	}
	net, err := noc.New(cfg.Router, topo, routing)
	if err != nil {
		return nil, nil, err
	}
	det := core.NewDetailed(net)
	tuned := abstractnet.NewTuned(abstractnet.NewContention(topo, cfg.Abstract), 4096)
	backend, err := core.NewCalibrated(det, tuned, sim.Cycle(cfg.Quantum))
	if err != nil {
		return nil, nil, err
	}
	sysCfg := cfg.System
	sysCfg.Tiles = cfg.Tiles
	cs, err := core.Build(sysCfg, wl, backend, repro.ModeQuantum(cfg, w.mode))
	if err != nil {
		return nil, nil, err
	}
	return cs, det, nil
}

// probe times the state-capture calls on the live simulation: pooled
// Cosim.Fork churn, Cosim.RestoreFork into a fork, and the checkpoint
// envelope round trip (decoded into the fork, so the live simulation
// is never written). Each is the median of probeReps calls.
func (w simWorkload) probe(seed uint64, cs *core.Cosim, rec *recorder, parent int, vals map[string]float64) error {
	var f *core.Cosim
	var err error
	rec.timed(parent, "probe.fork_cold", func() { f, err = cs.Fork() })
	if err != nil {
		return err
	}
	defer f.Close()
	digest := repro.ConfigDigest(w.config(), w.mode, fmt.Sprintf("%s-%d-%d-%d", w.kernel, w.tiles, w.ops, seed))
	var forks, restores, encodes, decodes []time.Duration
	var blob []byte
	for i := 0; i < probeReps && err == nil; i++ {
		forks = append(forks, rec.timed(parent, "probe.fork", func() {
			var g *core.Cosim
			if g, err = cs.Fork(); err == nil {
				g.Release()
			}
		}))
		if err != nil {
			break
		}
		restores = append(restores, rec.timed(parent, "probe.restore_fork", func() { err = f.RestoreFork(cs) }))
		if err != nil {
			break
		}
		encodes = append(encodes, rec.timed(parent, "probe.encode", func() { blob, err = repro.EncodeCheckpoint(cs, digest) }))
		if err != nil {
			break
		}
		decodes = append(decodes, rec.timed(parent, "probe.decode", func() { err = repro.DecodeCheckpoint(blob, f, digest) }))
	}
	if err != nil {
		return err
	}
	vals["core.fork_us"] = median(seconds(forks)) * 1e6
	vals["core.restore_fork_us"] = median(seconds(restores)) * 1e6
	vals["snapshot.encode_ms"] = median(seconds(encodes)) * 1e3
	vals["snapshot.decode_ms"] = median(seconds(decodes)) * 1e3
	vals["snapshot.bytes"] = float64(len(blob))
	return nil
}
