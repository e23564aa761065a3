package par

import (
	"runtime"
	"sync"
)

// Pool is a persistent worker pool: a fixed set of goroutines that park
// on a task channel between parallel regions, replacing the
// goroutine-per-region fan-out the package-level loops used to perform.
// Spawning a goroutine is cheap but not free (stack allocation and
// scheduler wakeup per worker per region); a HOOI sweep enters hundreds
// of parallel regions, so the pool amortizes that cost to one channel
// handoff per worker per region and keeps the workers hot on their OS
// threads between regions.
//
// A Pool is safe for concurrent use. A region that finds the pool busy
// (another region is running, or the caller asks for more workers than
// the pool holds) falls back to plain goroutine fan-out, so nested
// parallelism can never deadlock the pool.
type Pool struct {
	threads int
	tasks   []chan Worker
	// busy is held for the duration of one parallel region; TryLock
	// failure routes overlapping or nested regions to the fallback.
	busy   sync.Mutex
	closed bool
	// wg is reused across regions (busy serializes them), so a region
	// costs no WaitGroup allocation. A HOOI sweep enters hundreds of
	// regions; the solver workspaces got kernel allocations to zero, so
	// region bookkeeping was the remaining steady-state heap traffic.
	wg sync.WaitGroup
}

// Worker is a parallel region body passed by interface: Static's and
// Dynamic's pooled runners and RunChains's chain runner. Converting a
// pointer to an interface does not allocate, so a region submitted
// through RunWorker with a pooled runner touches the heap not at all.
type Worker interface {
	// Work runs the region body for worker id w in [0, threads).
	Work(w int)
}

// NewPool starts a pool of the given number of workers (non-positive
// selects GOMAXPROCS). The workers idle on channel receives until
// RunWorker hands them a region body; they exit on Close.
func NewPool(threads int) *Pool {
	threads = DefaultThreads(threads)
	p := &Pool{threads: threads, tasks: make([]chan Worker, threads)}
	for w := 0; w < threads; w++ {
		ch := make(chan Worker)
		p.tasks[w] = ch
		go func(w int, ch chan Worker) {
			for t := range ch {
				t.Work(w)
				p.wg.Done()
			}
		}(w, ch)
	}
	return p
}

// Threads returns the worker count the pool was built with.
func (p *Pool) Threads() int { return p.threads }

// RunWorker executes w.Work(id) once for every worker id in
// [0, threads), returning when all invocations finish. When the pool is
// idle and large enough the bodies run on the persistent workers;
// otherwise — nested regions, concurrent regions, or threads >
// Threads() — fresh goroutines are spawned so the call always
// completes.
func (p *Pool) RunWorker(threads int, w Worker) {
	if threads <= 1 {
		w.Work(0)
		return
	}
	if p != nil && p.tryRun(threads, w) {
		return
	}
	var wg sync.WaitGroup
	wg.Add(threads)
	for id := 0; id < threads; id++ {
		go func(id int) {
			defer wg.Done()
			w.Work(id)
		}(id)
	}
	wg.Wait()
}

// tryRun runs the region on the pool workers, or reports false when the
// pool is busy, closed, or too small.
func (p *Pool) tryRun(threads int, w Worker) bool {
	if threads > p.threads || !p.busy.TryLock() {
		return false
	}
	defer p.busy.Unlock()
	if p.closed {
		return false
	}
	p.wg.Add(threads)
	for id := 0; id < threads; id++ {
		p.tasks[id] <- w
	}
	p.wg.Wait()
	return true
}

// Close terminates the pool workers. It waits for an in-flight region
// to finish; regions submitted afterwards run on the fallback path.
// Close is idempotent.
func (p *Pool) Close() {
	p.busy.Lock()
	defer p.busy.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.tasks {
		close(ch)
	}
}

var (
	sharedMu sync.Mutex
	shared   *Pool
)

// sharedPool returns the process-wide pool every package-level loop
// runs on, growing it when a caller asks for more workers than it
// currently holds. The displaced pool is drained asynchronously — its
// workers exit once any in-flight region completes — because Close
// blocks on that region, and a nested par call made from inside it
// must be able to take sharedMu and reach the new pool; closing under
// the lock would deadlock exactly the nested case the pool promises to
// survive.
func sharedPool(threads int) *Pool {
	sharedMu.Lock()
	if shared != nil && shared.threads >= threads {
		p := shared
		sharedMu.Unlock()
		return p
	}
	if g := runtime.GOMAXPROCS(0); threads < g {
		threads = g
	}
	old := shared
	shared = NewPool(threads)
	p := shared
	sharedMu.Unlock()
	if old != nil {
		go old.Close()
	}
	return p
}
