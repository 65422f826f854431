// Package engine provides the execution engines that drive the
// cycle-level NoC's state update: a sequential engine and a parallel
// engine that splits each Run into contiguous chunks across a fixed
// worker pool, with a barrier at the end of every Run.
//
// The NoC hands an engine one item per shard (the gated sweep: one
// Run, hence one barrier, per cycle) or one item per router per phase
// (the exhaustive sweep: a barrier per phase). Either way an item only
// writes state owned by its routers plus staging slots read no earlier
// than the next cycle or phase, so running the items in any order — or
// concurrently — produces identical results. That is what lets the
// same router model run sequentially and in parallel, on the CPU path
// and the (simulated) GPU coprocessor path, while staying
// bit-identical. Tests assert that equivalence.
//
//simlint:allow-file concurrency this package IS the sanctioned parallelism: a fixed worker pool whose bit-identity to the sequential engine is asserted by determinism tests
package engine

import "sync"

// Engine applies a phase function to n items (routers). Implementations
// must guarantee that Run returns only after fn has been applied to
// every item exactly once.
type Engine interface {
	// Run applies fn to every index in [0, n).
	Run(n int, fn func(i int))
	// Workers reports the degree of parallelism (1 for sequential).
	Workers() int
	// Close releases engine resources; the engine is unusable after.
	Close()
}

// Sequential applies phases in index order on the calling goroutine.
// The zero value is ready to use.
type Sequential struct{}

// Run applies fn to each index in order.
func (Sequential) Run(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// Workers reports 1.
func (Sequential) Workers() int { return 1 }

// Close is a no-op.
func (Sequential) Close() {}

// Parallel shards items across a fixed pool of persistent workers with
// a barrier at the end of every Run call. Work is divided into
// contiguous static chunks so the assignment of routers to workers is
// deterministic (though determinism of results is guaranteed by the
// phase discipline, not by scheduling).
type Parallel struct {
	workers int
	start   chan phase
	done    chan struct{}
	closed  bool
	mu      sync.Mutex
}

// phase is one chunk of one Run call. The chunk bounds travel in the
// message (rather than being derived from a worker id) so that any
// worker may execute any chunk: with id-derived bounds, a worker that
// finished early could steal a message intended for a peer and run its
// own chunk twice while the peer's chunk was never run.
type phase struct {
	lo, hi int
	fn     func(int)
}

// NewParallel returns a parallel engine with the given worker count
// (minimum 1). Workers are long-lived goroutines; call Close when done.
func NewParallel(workers int) *Parallel {
	if workers < 1 {
		workers = 1
	}
	p := &Parallel{
		workers: workers,
		start:   make(chan phase),
		done:    make(chan struct{}),
	}
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

func (p *Parallel) worker(id int) {
	for ph := range p.start {
		for i := ph.lo; i < ph.hi; i++ {
			ph.fn(i)
		}
		p.done <- struct{}{}
	}
}

// chunk divides n items into w near-equal contiguous ranges and
// returns the id-th range.
func chunk(n, w, id int) (lo, hi int) {
	base := n / w
	rem := n % w
	lo = id*base + min(id, rem)
	hi = lo + base
	if id < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Run applies fn to every index in [0, n), distributing contiguous
// chunks across the worker pool and waiting for all of them.
func (p *Parallel) Run(n int, fn func(i int)) {
	if n == 0 {
		return
	}
	for w := 0; w < p.workers; w++ {
		lo, hi := chunk(n, p.workers, w)
		p.start <- phase{lo: lo, hi: hi, fn: fn}
	}
	for w := 0; w < p.workers; w++ {
		<-p.done
	}
}

// Workers reports the pool size.
func (p *Parallel) Workers() int { return p.workers }

// Close shuts the worker pool down. Run must not be called after Close.
func (p *Parallel) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		close(p.start)
		p.closed = true
	}
}
