// Package par is the shared-memory parallel runtime used throughout the
// library. It stands in for the OpenMP runtime of the paper's C++
// implementation: Dynamic mirrors "#pragma omp parallel for
// schedule(dynamic)" and Static the static schedule, both running a Body
// over [0, n) on a persistent worker pool; For, ForRange and ForWorker
// adapt plain func bodies to them. The partition layer adds what OpenMP
// does not have built in — weight-aware static partitioning
// (prefix-sum chain-on-chain and LPT over per-fiber nonzero weights,
// executed by RunChains with work-stealing for irregular tails and by
// RunParts). ReduceRows is the one reduction over rows whose result is
// bitwise identical for every thread count: it cuts the rows into the
// fixed grid of NumReduceBlocks, sums each block into a partial of its
// own cache lines and adds the partials in block order; SumBlocks is
// its scalar form. The loops keep no state of their own: a region fills
// the shared pool's one descriptor, so it allocates nothing whatever the
// collector does, unless the pool cannot take it (nested, concurrent or
// wider than the pool) and it builds one on the heap.
package par

import (
	"runtime"
	"sync/atomic"
)

// DefaultThreads returns the worker count used when a caller passes a
// non-positive thread count: the current GOMAXPROCS setting.
func DefaultThreads(threads int) int {
	if threads > 0 {
		return threads
	}
	return runtime.GOMAXPROCS(0)
}

// Body is a parallel loop body: Run processes the iterations [lo, hi)
// on worker, an id in [0, threads) that lets the body index per-worker
// scratch without synchronization. Neither a pointer nor a func
// converts to an interface with an allocation, so a region whose body
// is a caller-owned struct or a hoisted BodyFunc touches the heap not
// at all.
type Body interface {
	Run(worker, lo, hi int)
}

// BodyFunc adapts a func to Body.
type BodyFunc func(worker, lo, hi int)

// Run calls f(worker, lo, hi).
func (f BodyFunc) Run(worker, lo, hi int) { f(worker, lo, hi) }

// indexFunc is For's body: f(i) for each i of the range.
type indexFunc func(i int)

func (f indexFunc) Run(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		f(i)
	}
}

// rangeFunc is ForRange's body.
type rangeFunc func(lo, hi int)

func (f rangeFunc) Run(_, lo, hi int) { f(lo, hi) }

// For runs body(i) for every i in [0, n) on the dynamic schedule; see
// Dynamic.
func For(n, threads, chunk int, body func(i int)) { Dynamic(n, threads, chunk, indexFunc(body)) }

// ForRange runs body(lo, hi) on the static schedule; see Static.
func ForRange(n, threads int, body func(lo, hi int)) { Static(n, threads, rangeFunc(body)) }

// ForWorker runs body(worker, lo, hi) on the static schedule; see Static.
func ForWorker(n, threads int, body func(worker, lo, hi int)) { Static(n, threads, BodyFunc(body)) }

// Static runs body over a static partition of [0, n): worker w gets
// Split(n, threads, w), one contiguous range (an empty one is skipped).
// It is preferred when per-iteration cost is uniform or when the body
// wants to vectorize over a contiguous range. A non-positive threads
// selects DefaultThreads, more threads than iterations are cut to n,
// and one thread runs body.Run(0, 0, n) inline on the caller's
// goroutine.
func Static(n, threads int, body Body) {
	if n <= 0 {
		return
	}
	threads = min(DefaultThreads(threads), n)
	if threads == 1 {
		body.Run(0, 0, n)
		return
	}
	begin(threads).runStatic(n, body)
}

// Dynamic runs body over [0, n) with dynamic self-scheduling: workers
// claim chunk-sized ranges from an atomic cursor, so irregular
// per-iteration costs (the norm for sparse tensor rows) balance
// automatically. chunk <= 0 selects chunkFor's heuristic; threads is
// treated as in Static.
func Dynamic(n, threads, chunk int, body Body) {
	if n <= 0 {
		return
	}
	threads = min(DefaultThreads(threads), n)
	if threads == 1 {
		body.Run(0, 0, n)
		return
	}
	if chunk <= 0 {
		chunk = chunkFor(n, threads)
	}
	begin(threads).runDynamic(n, chunk, body)
}

// schedule is how a region hands [0, n) to its workers.
type schedule int

const (
	static schedule = iota
	dynamic
	chains // RunChains's balanced chains with stealing
)

// region is one parallel region: its schedule, its cursors and the Body
// it runs, plus the bodies ReduceRows and RunParts build. The shared
// pool owns one, which a loop fills only once begin has taken the pool
// for it, so a region on the pool allocates nothing, however often a
// collection runs; a region the pool cannot take (nested, concurrent or
// wider than the pool) is built on the heap and fans out on fresh
// goroutines.
type region struct {
	pool     *Pool // the owner, nil for a heap region
	threads  int
	sched    schedule
	n, chunk int
	next     atomic.Int64
	bounds   []int32
	cursors  []atomic.Int64 // one per chain, grown once
	body     Body
	reduce   reduceRun
	parts    partsBody
}

// begin returns a region of threads workers: the shared pool's, held
// until its run returns, or a fresh one.
func begin(threads int) *region {
	if p := sharedPool(threads); p.acquire(threads) {
		p.region.threads = threads
		return &p.region
	}
	return &region{threads: threads}
}

func (r *region) runStatic(n int, body Body) {
	r.sched, r.n, r.body = static, n, body
	r.run()
}

func (r *region) runDynamic(n, chunk int, body Body) {
	r.sched, r.n, r.chunk, r.body = dynamic, n, chunk, body
	r.next.Store(0)
	r.run()
}

// run executes the region on its workers and, on the pool, drops the
// references it held and releases the pool.
func (r *region) run() {
	p := r.pool
	if p == nil {
		fanOut(r.threads, r)
		return
	}
	p.dispatch(r.threads, r)
	r.bounds, r.body, r.reduce, r.parts = nil, nil, reduceRun{}, partsBody{}
	p.busy.Unlock()
}

// Work runs worker w's share of the region.
func (r *region) Work(w int) {
	switch r.sched {
	case static:
		if lo, hi := Split(r.n, r.threads, w); lo < hi {
			r.body.Run(w, lo, hi)
		}
	case dynamic:
		for {
			lo := int(r.next.Add(int64(r.chunk))) - r.chunk
			if lo >= r.n {
				return
			}
			r.body.Run(w, lo, min(lo+r.chunk, r.n))
		}
	default:
		r.workChains(w)
	}
}

// chunkFor is the dynamic-schedule chunk heuristic: aim for ~8 chunks
// per worker to amortize the atomic increment while preserving balance.
// The ceiling division caps the total chunk count at threads*8 even
// when n is barely larger — the old floor heuristic degenerated to
// chunk=1 there, turning the loop into one atomic claim per iteration.
func chunkFor(n, threads int) int {
	target := threads * 8
	chunk := (n + target - 1) / target
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// Split returns the half-open range [lo, hi) of the w-th of p nearly
// equal contiguous blocks of [0, n). Blocks differ in size by at most 1.
func Split(n, p, w int) (lo, hi int) {
	q, r := n/p, n%p
	lo = w*q + min(w, r)
	hi = lo + q
	if w < r {
		hi++
	}
	return lo, hi
}
