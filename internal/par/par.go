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
// its scalar form.
package par

import (
	"runtime"
	"sync"
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
	r := staticRuns.Get().(*staticRun)
	r.n, r.threads, r.body = n, threads, body
	sharedPool(threads).RunWorker(threads, r)
	r.body = nil
	staticRuns.Put(r)
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
	r := dynamicRuns.Get().(*dynamicRun)
	r.n, r.chunk, r.body = n, chunk, body
	r.next.Store(0)
	sharedPool(threads).RunWorker(threads, r)
	r.body = nil
	dynamicRuns.Put(r)
}

// staticRun and dynamicRun are the pool Workers of Static and Dynamic,
// pooled so a region submission allocates nothing.
type staticRun struct {
	n, threads int
	body       Body
}

func (r *staticRun) Work(w int) {
	if lo, hi := Split(r.n, r.threads, w); lo < hi {
		r.body.Run(w, lo, hi)
	}
}

type dynamicRun struct {
	n, chunk int
	next     atomic.Int64
	body     Body
}

func (r *dynamicRun) Work(w int) {
	for {
		lo := int(r.next.Add(int64(r.chunk))) - r.chunk
		if lo >= r.n {
			return
		}
		r.body.Run(w, lo, min(lo+r.chunk, r.n))
	}
}

var (
	staticRuns  = sync.Pool{New: func() any { return new(staticRun) }}
	dynamicRuns = sync.Pool{New: func() any { return new(dynamicRun) }}
)

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
