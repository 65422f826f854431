package noc

import (
	"slices"
	"time"

	"repro/internal/noc/engine"
	"repro/internal/sim"
)

// Sharded NoC stepping (see DESIGN.md "Sharded NoC stepping"): the
// router range is partitioned into contiguous shards, one per engine
// worker, and each shard steps its routers' full pipelines
// concurrently. Every gated network steps this way; a sequential
// network is the one-shard case on engine.Sequential. The partition
// leans on the same future-addressing discipline that makes fused
// stepping valid: every cross-router interaction travels through a
// link/credit ring slot (or a staging slot) addressed at least one
// cycle ahead, so a shard never reads another shard's same-cycle state
// and the only synchronization is the engine barrier between per-cycle
// passes.
//
// Each shard carries its own wake schedule over its router range, so
// activity gating composes: an idle shard's due() scan touches a
// handful of bitmap words and nothing else. Wakes that a shard's wake
// pass addresses to a router outside its range cannot be written into
// the owning shard's schedule directly (that would race with the
// owner's own wake pass); they are buffered into a per-shard outbox
// and merged sequentially after the barrier. Merge order cannot leak
// into simulated state: wake scheduling is bitmap ORs (commutative,
// idempotent) plus a heap whose drain order is normalized by due()'s
// bitmap fold, so the sharded schedule is set-equal — and therefore
// bit-identical in effect — to the one-shard one.
//
// Everything here is derived state: shard assignment, wake schedules,
// outboxes, and counters are recomputed on construction and conservatively
// re-seeded on restore (resetWake), never serialized. Sharding is a
// speed knob, never an accuracy knob.

// shard is one worker's contiguous router range [lo, hi) with its own
// wake schedule and per-cycle scratch. The padding keeps hot per-shard
// counters on distinct cache lines so concurrent shard sweeps never
// false-share.
type shard struct {
	lo, hi int32 //simlint:derived partition bounds recomputed at construction

	gate   gate    //simlint:derived per-shard wake schedule, re-seeded by resetWake after restore
	active []int32 //simlint:derived per-cycle active list refilled from the shard's wake schedule

	// outbox buffers cross-shard wakes (packed cycle<<wakeShift|router,
	// the heap encoding) produced by this shard's wake pass; the merge
	// after the barrier drains it into the owning shards' schedules.
	outbox []uint64 //simlint:derived per-cycle scratch drained by the sequential merge

	// swapBuf is the deflection swap-candidate scratch.
	swapBuf []int32 //simlint:derived per-cycle scratch refilled every stepped cycle

	// boundary lists this shard's routers with at least one neighbour in
	// another shard; nbrShards lists the shards those neighbours live
	// in. The deflection swap pass scans boundary only when a
	// neighbouring shard was active this cycle.
	boundary  []int32 //simlint:derived precomputed from the topology at construction
	nbrShards []int32 //simlint:derived precomputed from the topology at construction

	// Host-side accounting (never serialized): boundaryWakes counts
	// events that crossed a shard boundary, busyNanos accumulates this
	// shard's in-sweep wall time for the barrier-share metric.
	boundaryWakes uint64
	busyNanos     int64

	_ [64]byte // cache-line pad between neighbouring shards
}

// sweep is the stepping machinery both cycle-level networks embed: the
// execution engine, the activity-gating flag and work counters, and
// the shard partition whose per-shard gates hold the wake schedule.
// All of it is derived or host-side state, excluded from snapshots.
type sweep struct {
	eng      engine.Engine
	disabled bool    // DisableGating: the exhaustive sweep, no wake schedules
	shards   []shard // nil when gating is disabled, otherwise min(workers, routers) >= 1 shards
	shardOf  []int16 // router-to-shard table
	workers  int     // construction input from WithWorkers/WithDeflectWorkers

	// Work accounting (see ActivityStats): cycles simulated by a sweep,
	// cycles fast-forwarded without one, and the summed active-set size.
	stepped, skipped, activeSum uint64

	// Shard-layer host accounting: shardActiveSum accumulates the busy
	// shard count per stepped cycle. Wall timestamps are taken only
	// when timed (a multi-shard network under a wall-enabled observer).
	timed          bool
	shardActiveSum uint64
	stepNanos      int64
}

// initSweep builds the engine and, unless gating is disabled, the
// partition of R routers into min(workers, R) contiguous shards (one
// when workers <= 1).
func (s *sweep) initSweep(R int, disabled bool) {
	s.disabled = disabled
	if s.workers > 1 {
		s.eng = engine.NewParallel(s.workers)
	} else {
		s.eng = engine.Sequential{}
	}
	if disabled {
		return
	}
	S := min(max(s.workers, 1), R)
	s.shards = make([]shard, S)
	s.shardOf = make([]int16, R)
	for si := range s.shards {
		lo, hi := shardChunk(R, S, si)
		sh := &s.shards[si]
		sh.lo, sh.hi = int32(lo), int32(hi)
		sh.gate.reset(sh.lo, hi-lo)
		for r := lo; r < hi; r++ {
			s.shardOf[r] = int16(si)
		}
	}
}

// shardChunk divides n routers into s near-equal contiguous ranges and
// returns the id-th range (the same split engine.Parallel uses for its
// workers, so shard si lands on worker si).
func shardChunk(n, s, id int) (lo, hi int) {
	base := n / s
	rem := n % s
	lo = id*base + min(id, rem)
	hi = lo + base
	if id < rem {
		hi++
	}
	return lo, hi
}

// resetWake conservatively re-seeds every shard's wake schedule: wake
// everything once, drop all scheduled events, clear outboxes. The
// derived-state reset shared by snapshot restore and fork.
func (s *sweep) resetWake() {
	for si := range s.shards {
		sh := &s.shards[si]
		sh.gate.reset(sh.lo, int(sh.hi-sh.lo))
		sh.outbox = sh.outbox[:0]
	}
}

// wakeRouter schedules router r to run at cycle `at` in its owning
// shard's schedule, from sequential (non-wake-pass) contexts:
// injection and post-restore rebuilds.
func (s *sweep) wakeRouter(r int32, at, now sim.Cycle) {
	s.shards[s.shardOf[r]].gate.wake(r, at, now)
}

// nextEvent folds the per-shard schedules into the earliest pending
// cycle at or after now. With gating disabled every cycle is an event.
func (s *sweep) nextEvent(now sim.Cycle) (sim.Cycle, bool) {
	if s.disabled {
		return now, true
	}
	best := sim.Cycle(0)
	ok := false
	for si := range s.shards {
		if c, o := s.shards[si].gate.next(now); o && (!ok || c < best) {
			best, ok = c, true
		}
	}
	return best, ok
}

// clock reads the wall clock for the shard timers, or returns the zero
// time when timing is off.
func (s *sweep) clock() time.Time {
	if !s.timed {
		return time.Time{}
	}
	return time.Now() //simlint:allow wallclock shard timing feeds the wall-gated barrier-share metric only, never simulated state
}

// lap adds the wall time since t0 to *acc when timing is on.
func (s *sweep) lap(t0 time.Time, acc *int64) {
	if s.timed {
		*acc += time.Since(t0).Nanoseconds() //simlint:allow wallclock shard timing feeds the wall-gated barrier-share metric only, never simulated state
	}
}

// SetShardTiming switches the shard wall timers (BusyNanos, StepNanos)
// on or off. Only a multi-shard network takes timestamps; the
// co-simulation turns them on while a wall-enabled observer is
// attached.
func (s *sweep) SetShardTiming(on bool) {
	s.timed = on && len(s.shards) > 1
}

// ShardStats is the sharded stepping layer's host-side work accounting,
// the shard-level companion to ActivityStats. Like it, the stats never
// enter snapshots or fingerprints: they measure simulator effort, not
// simulated state. BusyNanos and StepNanos are wall-clock measures and
// must only feed host-side (wall-gated) observability.
type ShardStats struct {
	// Shards is the partition width (0 when the network steps as one
	// shard or ungated).
	Shards int
	// Stepped counts cycles simulated through the sharded path.
	Stepped uint64
	// ShardsActiveSum accumulates, per stepped cycle, the number of
	// shards whose active set was non-empty.
	ShardsActiveSum uint64
	// BoundaryWakes counts events that crossed a shard boundary: wakes
	// addressed to another shard's router (VC) or flits staged across a
	// boundary (deflection).
	BoundaryWakes uint64
	// BusyNanos sums per-shard in-sweep wall time; StepNanos is the wall
	// time of the whole sharded step path, barriers included. Both stay
	// 0 unless shard timing is on (SetShardTiming).
	BusyNanos, StepNanos int64
}

// ShardStats reports the sharded stepping layer's work accounting,
// zero-valued unless the network steps more than one shard.
func (s *sweep) ShardStats() ShardStats {
	if len(s.shards) < 2 {
		return ShardStats{}
	}
	st := ShardStats{
		Shards:          len(s.shards),
		Stepped:         s.stepped,
		ShardsActiveSum: s.shardActiveSum,
		StepNanos:       s.stepNanos,
	}
	for si := range s.shards {
		st.BoundaryWakes += s.shards[si].boundaryWakes
		st.BusyNanos += s.shards[si].busyNanos
	}
	return st
}

// MeanActiveShards reports the mean number of busy shards per stepped
// cycle — the realized parallelism ceiling.
func (s ShardStats) MeanActiveShards() float64 {
	if s.Stepped == 0 {
		return 0
	}
	return float64(s.ShardsActiveSum) / float64(s.Stepped)
}

// BarrierShare estimates the fraction of the sharded step path's
// worker-time spent outside shard sweeps (barriers, dispatch, and the
// sequential merge): 1 - busy/(step x shards).
func (s ShardStats) BarrierShare() float64 {
	denom := float64(s.StepNanos) * float64(s.Shards)
	if denom <= 0 {
		return 0
	}
	share := 1 - float64(s.BusyNanos)/denom
	if share < 0 {
		return 0
	}
	return share
}

// Close releases the engine.
func (s *sweep) Close() { s.eng.Close() }

// --- VC network ---------------------------------------------------------

// WithWorkers steps the network on a w-worker parallel engine, sharding
// the gated sweep into min(w, routers) contiguous router ranges; w <= 1
// is one shard on the sequential engine. With gating disabled the
// workers parallelize the exhaustive phase-barriered sweep instead.
// Results are bit-identical for every w.
func WithWorkers(w int) Option {
	return func(n *Network) {
		n.workers = w
	}
}

// stepSharded simulates one cycle through the shard partition: one
// engine pass steps every shard (due + pipeline sweep + wake pass with
// buffered cross-shard wakes), then the sequential merge drains the
// outboxes into the owning shards' schedules. The merge is the only
// code that writes across shard ranges, and it runs after the barrier.
func (n *Network) stepSharded() {
	t0 := n.clock()
	n.eng.Run(len(n.shards), n.shardFn)
	now := n.cycle
	active := 0
	busy := 0
	for si := range n.shards {
		s := &n.shards[si]
		if k := len(s.active); k > 0 {
			active += k
			busy++
		}
		for _, w := range s.outbox {
			t := int32(w & wakeRouterMask)
			n.shards[n.shardOf[t]].gate.wakeAt(t, sim.Cycle(w>>wakeShift), now)
		}
		s.outbox = s.outbox[:0]
	}
	n.stepped++
	n.activeSum += uint64(active)
	n.shardActiveSum += uint64(busy)
	n.lap(t0, &n.stepNanos)
	n.cycle++
}

// shardStep runs one shard's cycle: drain its wake schedule, sweep the
// active routers' full pipelines, and run the shard-local wake pass.
// The sweep is shaped to the active-set size: with few routers, fuse
// all five phases per router (stepRouter); near full occupancy, run
// phase-major (one phase's code and branch history stay hot across the
// whole list). Both shapes are bit-identical and the active-set size is
// deterministic, so the choice is free.
func (n *Network) shardStep(si int) {
	s := &n.shards[si]
	t0 := n.clock()
	act := s.gate.due(n.cycle)
	s.active = act
	if len(act) > 0 {
		if 2*len(act) < int(s.hi-s.lo) {
			for _, r := range act {
				n.stepRouter(int(r))
			}
		} else {
			for _, r := range act {
				n.phaseIngress(int(r))
			}
			for _, r := range act {
				if n.routers[r].busy() {
					n.phaseRC(int(r))
				}
			}
			for _, r := range act {
				if n.routers[r].busy() {
					n.phaseVA(int(r))
				}
			}
			for _, r := range act {
				if n.routers[r].busy() {
					n.phaseSA(int(r))
				} else {
					clearGrants(&n.routers[r])
				}
			}
			for _, r := range act {
				if n.routers[r].busy() {
					n.phaseST(int(r))
				}
			}
		}
		n.wakePassShard(s)
	}
	n.lap(t0, &s.busyNanos)
}

// wakePassShard runs after the shard's pipeline sweep and converts this
// cycle's sends and the active routers' residual state into future
// wakes. It reads only freshly written per-cycle scratch (saGrant) and
// persistent state. Wakes addressed outside the shard's range are
// buffered through wakeOut instead of written into another shard's
// schedule.
func (n *Network) wakePassShard(s *shard) {
	now := n.cycle
	V := n.cfg.TotalVCs()
	lp := n.topo.LocalPorts()
	ports := n.topo.Ports()
	linkLat := sim.Cycle(n.cfg.LinkLatency)
	credLat := sim.Cycle(n.cfg.CreditLatency)
	for _, r32 := range s.active {
		r := int(r32)
		rt := &n.routers[r]
		// Every switch traversal this cycle produced up to two future
		// events: a flit arriving at the downstream router and a credit
		// arriving at the freed input slot's upstream consumer (the
		// neighbour across the input port, or this router's own NI
		// credit ring for a local port).
		for p := 0; p < ports; p++ {
			g := rt.saGrant[p]
			if g < 0 {
				continue
			}
			if p >= lp {
				s.wakeOut(n.nbrOf[r*ports+p], now+linkLat, now)
			}
			if ip := int(g) / V; ip >= lp {
				s.wakeOut(n.nbrOf[r*ports+ip], now+credLat, now)
			} else {
				s.gate.wakeAt(r32, now+credLat, now)
			}
		}
		// A router whose local state can still make progress re-arms
		// for the next cycle: buffered or mid-allocation input VCs
		// retry RC/VA/SA, and a serializing or eligible NI retries
		// injection. Conservative (a blocked VC spins), but spinning is
		// exactly what the exhaustive sweep does, so state matches. The
		// occupancy set stands in for a walk over the input VCs.
		busy := rt.busy()
		if !busy {
			for p := 0; p < lp && !busy; p++ {
				ni := &n.ifaces[n.topo.TerminalAt(r, p)]
				if ni.cur != nil {
					busy = true
					break
				}
				for v := range ni.queues {
					if ni.qHead[v] >= len(ni.queues[v]) {
						continue
					}
					if at := ni.queues[v][ni.qHead[v]].CreatedAt; at > now+1 {
						s.gate.wake(r32, at, now)
					} else {
						busy = true
						break
					}
				}
			}
		}
		if busy {
			s.gate.markNext(r32)
		}
	}
}

// wakeOut routes a wake for router t from this shard's wake pass:
// in-range wakes go straight into the shard's own schedule, cross-shard
// wakes are packed into the outbox for the post-barrier merge.
func (s *shard) wakeOut(t int32, at, now sim.Cycle) {
	if t >= s.lo && t < s.hi {
		s.gate.wakeAt(t, at, now)
		return
	}
	s.outbox = append(s.outbox, uint64(at)<<wakeShift|uint64(uint32(t))) //simlint:allow alloc outbox capacity is retained across cycles; steady state appends in place
	s.boundaryWakes++
}

// --- Deflection network -------------------------------------------------

// WithDeflectWorkers steps the deflection network on a w-worker
// parallel engine; see WithWorkers.
func WithDeflectWorkers(w int) DeflectOption {
	return func(n *Deflection) {
		n.workers = w
	}
}

// buildBoundaries precomputes each shard's boundary router list and
// neighbouring-shard set for the cross-shard arrival scan in shardSwap
// (both empty for a single shard).
func (n *Deflection) buildBoundaries() {
	for si := range n.shards {
		s := &n.shards[si]
		isNbr := make([]bool, len(n.shards))
		for r := int(s.lo); r < int(s.hi); r++ {
			cross := false
			for d := 0; d < 4; d++ {
				if nb := n.nbrOf[r*4+d]; nb >= 0 && (nb < s.lo || nb >= s.hi) {
					cross = true
					isNbr[n.shardOf[nb]] = true
				}
			}
			if cross {
				s.boundary = append(s.boundary, int32(r))
			}
		}
		for t := range isNbr {
			if isNbr[t] {
				s.nbrShards = append(s.nbrShards, int32(t))
			}
		}
	}
}

// stepSharded simulates one deflection cycle through the partition:
// pass one steps every shard's active routers (staging arrivals, which
// may land in other shards' routers — each staging slot has a unique
// writer, so the passes never race), pass two swaps each shard's own
// staged routers and re-arms wakes. All wakes in both passes target the
// owner shard's own schedule, so the deflection path needs no outbox.
func (n *Deflection) stepSharded() {
	t0 := n.clock()
	n.eng.Run(len(n.shards), n.shardStepFn)
	n.eng.Run(len(n.shards), n.shardSwapFn)
	active := 0
	busy := 0
	for si := range n.shards {
		if k := len(n.shards[si].active); k > 0 {
			active += k
			busy++
		}
	}
	n.stepped++
	n.activeSum += uint64(active)
	n.shardActiveSum += uint64(busy)
	n.lap(t0, &n.stepNanos)
	n.cycle++
}

// shardStep runs one shard's router pass: drain the shard's wake
// schedule and step each active router (eject, inject, assign outputs,
// stage sends into neighbours' next-cycle slots).
func (n *Deflection) shardStep(si int) {
	s := &n.shards[si]
	t0 := n.clock()
	act := s.gate.due(n.cycle)
	s.active = act
	for _, r := range act {
		n.stepRouter(int(r))
	}
	n.lap(t0, &s.busyNanos)
}

// shardSwap is the per-shard wake pass: find this shard's own routers
// holding staged arrivals, swap each exactly once (a second swap would
// wipe the promoted arrivals), and re-arm wakes. Staged arrivals at an
// own router were written either by an own active router (covered by
// the in-range neighbour scan) or by an active router in a neighbouring
// shard (covered by the boundary list, scanned only when such a shard
// was active — reading a peer's active length here is safe: it was
// published before the inter-pass barrier). The final staged-flit
// filter makes the swap set exactly the routers holding a staged
// arrival within this shard's range.
func (n *Deflection) shardSwap(si int) {
	s := &n.shards[si]
	t0 := n.clock()
	now := n.cycle
	cand := s.swapBuf[:0]
	for _, r32 := range s.active {
		r := int(r32)
		cand = append(cand, r32) //simlint:allow alloc swapBuf capacity is retained across cycles; steady state appends in place
		for d := 0; d < 4; d++ {
			if nb := n.nbrOf[r*4+d]; nb >= s.lo && nb < s.hi {
				cand = append(cand, nb) //simlint:allow alloc swapBuf capacity is retained across cycles; steady state appends in place
			}
		}
	}
	for _, as := range s.nbrShards {
		if len(n.shards[as].active) > 0 {
			cand = append(cand, s.boundary...) //simlint:allow alloc swapBuf capacity is retained across cycles; steady state appends in place
			break
		}
	}
	slices.Sort(cand)
	out := cand[:0]
	prev := int32(-1)
	for _, c := range cand {
		if c == prev {
			continue
		}
		prev = c
		rt := &n.routers[c]
		if rt.next[0].pkt != nil || rt.next[1].pkt != nil ||
			rt.next[2].pkt != nil || rt.next[3].pkt != nil {
			out = append(out, c) //simlint:allow alloc in-place filter of cand; never exceeds swapBuf's retained capacity
		}
	}
	s.swapBuf = out
	// A router that just received arrivals must run next cycle.
	for _, r32 := range out {
		rt := &n.routers[r32]
		for d := 0; d < 4; d++ {
			if rt.next[d].pkt != nil {
				if nb := n.nbrOf[int(r32)*4+d]; nb >= 0 && (nb < s.lo || nb >= s.hi) {
					s.boundaryWakes++
				}
			}
		}
		n.swapRouter(int(r32))
		s.gate.markNext(r32)
	}
	// An NI with queued flits re-arms its router: immediately when the
	// head is (or next cycle becomes) eligible, at its creation cycle
	// otherwise.
	for _, r32 := range s.active {
		ni := &n.ifaces[n.topo.TerminalAt(int(r32), 0)]
		if ni.qHead < len(ni.queue) {
			if at := ni.queue[ni.qHead].pkt.CreatedAt; at > now+1 {
				s.gate.wake(r32, at, now)
			} else {
				s.gate.markNext(r32)
			}
		}
	}
	n.lap(t0, &s.busyNanos)
}
