//simlint:allow-file wallclock benchmark harness: wall time here measures the host running the simulator and never feeds simulated state
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cosimd"
)

// sweepWorkload is an in-process cosimd server given a multi-tenant
// design-space sweep, then the same sweep again, which the digest-keyed
// result cache must serve.
type sweepWorkload struct {
	workers     int
	maxResident int
	tenants     int
	tiles       int
	ops         int
	kernels     []string
	modes       []string
	seeds       int // seeds per (kernel, mode) pair
}

// requests expands the sweep for a benchmark seed and spreads the
// sessions round-robin over the tenants.
func (w sweepWorkload) requests(seed uint64) []cosimd.SubmitRequest {
	sw := cosimd.SweepRequest{
		Base:      cosimd.SubmitRequest{Tiles: w.tiles, Ops: w.ops},
		Workloads: w.kernels,
		Modes:     w.modes,
	}
	for i := 0; i < w.seeds; i++ {
		// Never 0, which the server would replace with its default.
		sw.Seeds = append(sw.Seeds, seed*uint64(w.seeds)+uint64(i)+1)
	}
	reqs := sw.Expand()
	for i := range reqs {
		reqs[i].Tenant = fmt.Sprintf("tenant-%d", i%w.tenants)
	}
	return reqs
}

// sweepRun is one repetition: a fresh server, the sweep, the cache-hit
// pass.
type sweepRun struct {
	setup, run time.Duration
	cycles     uint64
	// fps maps each config digest to its envelope fingerprint.
	fps map[string]string
	// errPcts are the per-session coupling errors (quantum-coupled
	// sessions only).
	errPcts   []float64
	attempted int
	failures  []string
	stats     cosimd.ServerStats
	prom      map[string]float64
}

// once runs the sweep on a fresh server whose state lives under dir.
// scrape also reads the server's WriteProm page before closing it.
func (w sweepWorkload) once(seed uint64, dir string, scrape bool, rec *recorder, parent int) (r sweepRun) {
	r.fps = map[string]string{}
	fail := func(format string, args ...any) { r.failures = append(r.failures, fmt.Sprintf(format, args...)) }
	if err := os.RemoveAll(dir); err != nil {
		fail("state dir: %v", err)
		return r
	}
	defer os.RemoveAll(dir)
	reqs := w.requests(seed)
	var srv *cosimd.Server
	var err error
	r.setup = rec.timed(parent, "setup", func() { srv, err = w.newServer(dir) })
	if err != nil {
		fail("NewServer: %v", err)
		return r
	}
	defer func() {
		if err := srv.Close(); err != nil {
			fail("Close: %v", err)
		}
	}()

	var first, second []cosimd.SessionStatus
	r.run = rec.timed(parent, "run", func() {
		first = submitAll(srv, reqs, fail)
		srv.Wait()
		second = submitAll(srv, reqs, fail)
		srv.Wait()
	})
	r.attempted = 2 * len(reqs)

	rec.timed(parent, "check", func() {
		envs := map[string][]byte{}
		for _, st := range first {
			env, fin, _ := srv.Result(st.ID)
			r.cycles += fin.Cycles
			fp, errPct, err := w.checkEnvelope(fin, env)
			if err != nil {
				fail("%s: %v", st.ID, err)
				continue
			}
			envs[fin.Digest] = env
			r.fps[fin.Digest] = fp
			if !math.IsNaN(errPct) {
				r.errPcts = append(r.errPcts, errPct)
			}
		}
		for _, st := range second {
			env, fin, _ := srv.Result(st.ID)
			if !fin.Cached || fin.State != cosimd.StateDone {
				fail("%s: resubmission not served from the cache: %+v", st.ID, fin)
			} else if !bytes.Equal(env, envs[fin.Digest]) {
				fail("%s: cache-hit envelope differs from the simulated one", st.ID)
			}
		}
	})
	if scrape {
		rec.timed(parent, "scrape", func() {
			r.stats = srv.Stats()
			var buf bytes.Buffer
			if err := srv.WriteProm(&buf); err != nil {
				fail("WriteProm: %v", err)
			}
			r.prom = parseProm(buf.Bytes())
		})
	}
	return r
}

func (w sweepWorkload) newServer(dir string) (*cosimd.Server, error) {
	return cosimd.NewServer(cosimd.Options{Workers: w.workers, MaxResident: w.maxResident, StateDir: dir})
}

// submitAll submits every request and returns the sessions' statuses.
func submitAll(srv *cosimd.Server, reqs []cosimd.SubmitRequest, fail func(string, ...any)) []cosimd.SessionStatus {
	var out []cosimd.SessionStatus
	for _, req := range reqs {
		st, err := srv.Submit(req)
		if err != nil {
			fail("submit %+v: %v", req, err)
			continue
		}
		out = append(out, st)
	}
	return out
}

// checkEnvelope applies the per-session correctness rule: the session
// is done and its result finished and unstalled. (The envelope carries
// no per-kind operation counts; that every operation retired is
// covered by the fingerprint agreeing across repetitions.) It returns the envelope's fingerprint and the session's
// coupling error (NaN for a session without quantum skew).
func (w sweepWorkload) checkEnvelope(st cosimd.SessionStatus, env []byte) (string, float64, error) {
	if st.State != cosimd.StateDone {
		return "", 0, fmt.Errorf("state %s (%s)", st.State, st.Error)
	}
	var e cosimd.ResultEnvelope
	if err := json.Unmarshal(env, &e); err != nil {
		return "", 0, fmt.Errorf("envelope: %v", err)
	}
	res := e.Result
	if res.Stalled || !res.Finished {
		return "", 0, fmt.Errorf("finished=%v stalled=%v at cycle %d", res.Finished, res.Stalled, res.ExecCycles)
	}
	errPct := math.NaN()
	if res.AvgSkew > 0 {
		errPct = 100 * res.AvgSkew / res.AvgLatency
	}
	return e.Fingerprint, errPct, nil
}

// serverSetupsPerRep extra NewServer calls follow every repetition: a
// server starts in microseconds, so setup_s needs many samples, spread
// over the whole run.
const serverSetupsPerRep = 60

// repeat runs the sweep until budget has passed (at least minReps
// times). A session counts as failed when its own check fails or its
// digest's fingerprint differs from the first repetition that produced
// that digest; eviction order may differ between repetitions, results
// may not. setups holds every NewServer time it took.
func (w sweepWorkload) repeat(seed uint64, budget time.Duration, rec *recorder) (runs []sweepRun, attempted, failed int, fp string, notes []string, setups []float64) {
	dir := filepath.Join(stateRoot, "serve-sweep-state")
	start := time.Now()
	ref := map[string]string{}
	for len(runs) < minReps || time.Since(start) < budget {
		runtime.GC() // as in simWorkload.repeat
		id := rec.begin(0, fmt.Sprintf("rep%d", len(runs)))
		r := w.once(seed, dir, false, rec, id)
		rec.end(id)
		r.reconcile(ref)
		runs = append(runs, r)
		attempted += r.attempted
		failed += len(r.failures)
		notes = append(notes, fmt.Sprintf("rep%d setup=%.6fs run=%.4fs cycles=%d failures=%d",
			len(runs)-1, r.setup.Seconds(), r.run.Seconds(), r.cycles, len(r.failures)))
		notes = append(notes, r.failures...)
		setups = append(setups, r.setup.Seconds())
		extra, err := w.setupTimes(serverSetupsPerRep, rec)
		if err != nil {
			failed++
			notes = append(notes, err.Error())
		}
		setups = append(setups, extra...)
	}
	return runs, attempted, failed, combinedFingerprint(ref), notes, setups
}

// setupTimes starts and closes a server n times on a scratch state
// directory and returns the NewServer times.
func (w sweepWorkload) setupTimes(n int, rec *recorder) ([]float64, error) {
	dir := filepath.Join(stateRoot, "serve-sweep-setup")
	defer os.RemoveAll(dir)
	runtime.GC() // so no collection overlaps the set-up loop
	var out []float64
	for i := 0; i < n; i++ {
		var srv *cosimd.Server
		var err error
		d := rec.timed(0, "setup.extra", func() { srv, err = w.newServer(dir) })
		if err != nil {
			return out, fmt.Errorf("NewServer: %v", err)
		}
		if err := srv.Close(); err != nil {
			return out, fmt.Errorf("server Close: %v", err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// reconcile checks the repetition's fingerprints against ref, the
// first fingerprint seen for each digest, recording a failure for each
// that differs and adding digests ref has not seen yet.
func (r *sweepRun) reconcile(ref map[string]string) {
	var ds []string
	for d := range r.fps {
		ds = append(ds, d)
	}
	sort.Strings(ds)
	for _, d := range ds {
		f := r.fps[d]
		if want, ok := ref[d]; !ok {
			ref[d] = f
		} else if want != f {
			r.failures = append(r.failures, fmt.Sprintf("digest %s: fingerprint %s, earlier %s", d, f, want))
		}
	}
}

// combinedFingerprint folds the per-digest fingerprints, in digest
// order, into one line.
func combinedFingerprint(fps map[string]string) string {
	var ds []string
	for d := range fps {
		ds = append(ds, d)
	}
	sort.Strings(ds)
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%s{%s};", d, fps[d])
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%d digests, fnv64a=%016x", len(ds), h.Sum64())
}

func (w sweepWorkload) measure(seed uint64, budget time.Duration, rec *recorder) outcome {
	runs, attempted, failed, fp, notes, setups := w.repeat(seed, budget, rec)
	out := outcome{attempted: attempted, failed: failed, fingerprint: fp, notes: notes}
	var runSecs, rates []float64
	for _, r := range runs {
		if len(r.failures) == 0 {
			runSecs = append(runSecs, r.run.Seconds())
			rates = append(rates, float64(r.cycles)/r.run.Seconds())
		}
	}
	if len(runSecs) == 0 {
		return out
	}
	out.values = map[string]float64{
		"sim_cycles_per_s":  median(rates),
		"run_s":             median(runSecs),
		"setup_s":           median(setups),
		"peak_rss_mb":       peakRSSMB(),
		"model_lat_err_pct": mean(runs[0].errPcts),
	}
	return out
}

func (w sweepWorkload) trace(seed uint64, budget time.Duration, rec *recorder) outcome {
	runs, attempted, failed, fp, notes, _ := w.repeat(seed, budget/2, rec)
	out := outcome{attempted: attempted, failed: failed, fingerprint: fp, notes: notes}
	var runSecs []float64
	for _, r := range runs {
		if len(r.failures) == 0 {
			runSecs = append(runSecs, r.run.Seconds())
		}
	}
	runtime.GC()
	id := rec.begin(0, "traced")
	r := w.once(seed, filepath.Join(stateRoot, "serve-sweep-state"), true, rec, id)
	rec.end(id)
	out.attempted += r.attempted
	out.failed += len(r.failures)
	out.notes = append(out.notes, fmt.Sprintf("traced run=%.4fs cycles=%d", r.run.Seconds(), r.cycles))
	out.notes = append(out.notes, r.failures...)
	if len(runSecs) == 0 || len(r.failures) > 0 {
		return out
	}
	// Every digest the traced run produced must match the untraced
	// repetitions' fingerprint for it.
	if tfp := combinedFingerprint(r.fps); tfp != fp {
		out.failed++
		out.notes = append(out.notes, "traced run fingerprint differs: "+tfp)
	}
	vals := map[string]float64{}
	for _, d := range perLayer {
		vals[d.name] = 0
	}
	for _, phase := range []string{"slice", "park_warm", "faultin_warm", "spill", "faultin_disk", "evict_disk", "build"} {
		key := `{phase="` + phase + `"}`
		vals["cosimd."+phase+"_s"] = r.prom["cosimd_phase_wall_seconds_sum"+key]
		vals["cosimd."+phase+"_count"] = r.prom["cosimd_phase_wall_seconds_count"+key]
	}
	st := r.stats
	vals["cosimd.evictions"] = float64(st.Evictions)
	vals["cosimd.restores"] = float64(st.Restores)
	vals["cosimd.warm_restores"] = float64(st.WarmRestores)
	vals["cosimd.spills"] = float64(st.Spills)
	vals["cosimd.cache_hits"] = float64(st.CacheHits)
	vals["cosimd.worker_util"] = r.prom["cosimd_worker_busy_seconds_total"] / (float64(st.Workers) * r.run.Seconds())
	if st.Restores > 0 {
		vals["cosimd.warm_restore_ratio"] = float64(st.WarmRestores) / float64(st.Restores)
	}
	vals["trace.overhead_pct"] = 100 * (r.run.Seconds()/median(runSecs) - 1)
	out.values = vals
	return out
}

// parseProm reads a Prometheus text page into sample name (with its
// label set) -> value.
func parseProm(page []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
