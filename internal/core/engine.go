package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"hypertensor/internal/checkpoint"
	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
	"hypertensor/internal/trsvd"
	"hypertensor/internal/ttm"
)

// Engine is a resident decomposition handle: the mutable state a
// long-running service keeps between solves — factor matrices, TRSVD
// workspaces, the memoized dimension-tree partials, and (after the
// first Update) an engine-owned copy of the evolving tensor. Run
// converges from the current factors; Update merges a coordinate delta
// into the tensor, brings the kernel's symbolic structure in line with
// it, and re-converges from the current factors, in a handful of sweeps
// instead of a cold solve. The factors and the seed schedule's position
// are all that carries one solve into the next: every TRSVD starts cold
// from its seed.
//
// An Engine is not safe for concurrent use. Several Engines may share
// one Plan and run at once: each owns its numeric state and its kernel,
// which builds and keeps its index streams and chain partitions on
// copies of the plan's mode headers (ttm.BuildFlat) or in its own tree
// (ttm.BuildDTree), and none writes to the plan or the caller's tensor.
type Engine struct {
	plan  *Plan
	opts  Options
	order int

	// Resident tensor-derived state. Until the first Update these alias
	// the plan's (shared, immutable) structures; ensureOwned clones them
	// before the first mutation.
	x     *tensor.COO
	sym   *symbolic.Structure
	owned bool
	// mergeIx amortizes the coordinate lookup across a stream of
	// deltas: built once over the engine-owned clone, extended per
	// ingest, so Update cost is proportional to the delta.
	mergeIx *tensor.MergeIndex

	// kern is the numeric TTMc engine the plan's strategy selects
	// (newKernel); ex is the world the sweep runs in.
	kern kernel
	ex   Exchange
	// census[n] is mode n's singleton census, taken when the kernel is
	// built (newKernel), nil where none was taken; the kernel holds
	// the singleton rows of a mode that takes the split (kern.SplitRows).
	census []ttm.Census

	state *SweepState
	// ys[n] is mode n's matricized product Y_(n), a view of ybuf: only
	// one Y_(n) is live at a time (the last mode's until the core is
	// formed from it), so one buffer sized for the widest mode serves
	// them all. A split mode's view holds its multi rows, and its
	// singletons' compact rows (kern.SplitRows(n).T) follow them in ybuf.
	ys       []dense.Matrix
	ybuf     []float64
	normX    float64
	firstRun bool
	// ranksBuf backs currentRanks, keeping the per-sweep core formation
	// allocation-free.
	ranksBuf []int
	// scattered[n] is the mode-n factor matrix scatter has zeroed.
	scattered []*dense.Matrix
	// core holds a sweep's core (formCore); each sweep overwrites it.
	core *tensor.Dense

	symTime, initTime time.Duration
	res               *Result

	// Checkpointing (EnableCheckpoints) and the one-shot resume state a
	// ResumeEngine-built engine consumes on its first converge.
	ckptDir   string
	ckptEvery int
	resume    *checkpoint.State
}

// kernel is the numeric TTMc engine of a sweep: the flat reference loop
// or the dimension tree.
type kernel interface {
	// Rows lists the nonempty slices of mode n in the order of the
	// mode-n product's rows: row r belongs to slice Rows(n)[r].
	Rows(n int) []int32
	// SplitSingletons takes mode n's singleton census at the given
	// ranks, putting the mode in split order where the split Gram is
	// predicted to cost less (ttm.Flat.SplitSingletons).
	SplitSingletons(n int, ranks []int) (ttm.Census, *dense.KronRows)
	// SplitRows is mode n's compact singleton rows, nil unless the mode
	// is in split order.
	SplitRows(n int) *dense.KronRows
	// TTMc computes the compacted mode-n product into y: a mode in split
	// order its multi rows, and its singletons into SplitRows(n).T.
	TTMc(y *dense.Matrix, n int, u []*dense.Matrix, threads int)
	// Flops is the multiply-add count of all calls so far.
	Flops() int64
	// StreamBytes is what the kernel's list-order index streams copy.
	StreamBytes() int64
	// Invalidate records that factor n is being replaced. The sweep
	// calls it before mode n's TTMc — which reads neither U_n nor any
	// partial that depends on it — so that a kernel holding such
	// partials can reuse their storage for what that TTMc builds.
	Invalidate(n int)
}

// newKernel builds the kernel the plan's strategy selects on the
// engine's current tensor and symbolic structure, with empty caches, on
// up to threads goroutines. Either kernel gathers its index streams
// here, so that the gather passes are set-up and not part of the first
// sweep, and owns them: the flat kernel on its copies of the modes'
// headers (ttm.BuildFlat), the tree in its root children.
//
// On a shared-memory plan at fixed ranks it also takes the singleton
// census of every Gram-solved mode, which puts each mode whose split
// Gram is predicted to cost less in split order (ttm.Flat.SplitSingletons,
// ttm.DTree.SplitSingletons). Other plans keep every mode's row order and
// plain SYRK: under Eps the randomized solver reads Y in its row order,
// and a distributed rank's Gram is the row-distributed operator's
// allreduced SYRK. The tree takes the census from order 4 up, the
// orders the plan runs it at (treeSplits).
func (e *Engine) newKernel(threads int) kernel {
	var k kernel
	if e.opts.ttmc == TTMcDTree {
		k = ttm.BuildDTree(e.x, threads)
	} else {
		k = ttm.BuildFlat(e.x, e.sym, threads)
	}
	e.census = nil
	if e.plan.ex == nil && e.opts.Eps <= 0 && (e.opts.ttmc != TTMcDTree || treeSplits(e.order)) {
		e.census = takeCensus(k, e.opts.Ranks, e.opts.svd)
	}
	return k
}

// treeSplits reports whether a dimension tree of the given order takes
// the singleton census: from order 4 up. An order-3 tree runs only where
// a caller pins it (resolveTTMc picks the flat kernel there) and keeps
// every row wide, so the figures it reports — the update path's madds,
// the dtree prediction on the ttmc: line — stay the unsplit tree's.
func treeSplits(order int) bool { return order >= 4 }

// takeCensus takes the singleton census of every mode of k that the
// method resolves to the Gram solver at the given ranks, which puts each
// mode whose split Gram is predicted to cost less in split order; every
// other mode's census holds Group -1 and no counts.
func takeCensus(k kernel, ranks []int, method SVDMethod) []ttm.Census {
	census := make([]ttm.Census, len(ranks))
	for n := range census {
		census[n].Group = -1
		cols := 1
		for t, r := range ranks {
			if t != n {
				cols *= r
			}
		}
		if ResolveSVD(method, cols, ranks[n]) == SVDGram {
			census[n], _ = k.SplitSingletons(n, ranks)
		}
	}
	return census
}

// operator is mode n's TRSVD operator on its folded rows y: the
// exchange's, whose dense operator takes a split mode's compact rows
// (bound by shapeY) behind y's.
func (e *Engine) operator(n int, y *dense.Matrix) trsvd.Operator {
	op := e.ex.Operator(n, y)
	if kr := e.kern.SplitRows(n); kr != nil {
		op.Dense().Kron = kr
	}
	return op
}

// NewEngine builds a resident handle on the plan's analysis: the
// numeric TTMc kernel with empty caches, seeded initial factors, and
// per-mode solver workspaces. Given Initial factors are cloned whole;
// otherwise U_0 starts as a zero matrix (randomFactors): the first sweep
// solves mode 0 before it reads U_0.
func NewEngine(p *Plan) *Engine {
	if p.opts.Initial != nil {
		return newEngine(p, nil, func() []*dense.Matrix {
			factors := make([]*dense.Matrix, len(p.opts.Initial))
			for n, u := range p.opts.Initial {
				factors[n] = u.Clone()
			}
			return factors
		})
	}
	ranks := startRanks(p.x, p.opts)
	u0 := dense.NewMatrix(p.x.Dims[0], ranks[0])
	e := newEngine(p, u0, func() []*dense.Matrix {
		factors := randomFactors(p.x.Dims, ranks, p.opts.Seed, p.opts.Threads, 1)
		factors[0] = u0
		return factors
	})
	// Zeros already: the first scatter into U_0 need not clear it.
	e.scattered[0] = u0
	return e
}

// newEngine builds an engine whose state starts from the factors
// returned by initial, which runs beside the kernel build. fresh, if not
// nil, is a new zero factor the first sweep scatters into: the build
// goroutine writes its zeros once, so that its pages fault in during
// set-up and not in that sweep.
func newEngine(p *Plan, fresh *dense.Matrix, initial func() []*dense.Matrix) *Engine {
	e := &Engine{
		plan:     p,
		opts:     p.opts,
		order:    p.x.Order(),
		x:        p.x,
		sym:      p.sym,
		normX:    p.normX,
		ex:       p.ex,
		firstRun: true,
	}
	if e.ex == nil {
		e.ex = &localExchange{threads: e.opts.Threads}
	}
	built := make(chan struct{})
	build := func(threads int, prefault bool) {
		defer close(built)
		start := time.Now()
		e.kern = e.newKernel(threads)
		e.symTime = time.Since(start)
		if prefault && fresh != nil {
			clear(fresh.Data)
		}
	}
	if threads := par.DefaultThreads(e.opts.Threads); threads >= 2 {
		// Either kernel's build (the tree's groupings, the flat kernel's
		// index streams) only reads the tensor's index arrays and the
		// initial factors only the shape and the seed, so the two run
		// side by side, the build on one thread fewer: on all T it read
		// no lower set-up time on the benchmark's three workloads.
		go build(threads-1, true)
	} else {
		build(threads, false)
	}
	start := time.Now()
	e.state = NewSweepState(initial(), e.opts.Seed)
	e.initTime = time.Since(start)
	<-built
	e.ys = make([]dense.Matrix, e.order)
	e.scattered = make([]*dense.Matrix, e.order)
	e.sizeYs()
	return e
}

// startRanks resolves the per-mode ranks the drawn factors start with
// (NewEngine draws none when Initial is given): the requested Ranks for
// fixed-rank runs; under Eps, a small probe rank (adaptive selection
// grows it within a sweep or two).
func startRanks(x *tensor.COO, opts Options) []int {
	if opts.Eps <= 0 {
		return opts.Ranks
	}
	ranks := make([]int, x.Order())
	for n := range ranks {
		ranks[n] = min(4, x.Dims[n])
		if opts.Ranks != nil {
			ranks[n] = min(ranks[n], opts.Ranks[n])
		}
	}
	return ranks
}

// currentRanks returns the per-mode factor column counts — the live
// ranks, which under Eps evolve between mode solves — in a reused
// buffer (copy before retaining).
func (e *Engine) currentRanks() []int {
	if len(e.ranksBuf) != e.order {
		e.ranksBuf = make([]int, e.order)
	}
	for n, u := range e.state.Factors {
		e.ranksBuf[n] = u.Cols
	}
	return e.ranksBuf
}

// frobSq is ‖y‖²_F with the fixed-block deterministic reduction, so
// adaptive-rank thresholds are bitwise identical for every thread count.
func frobSq(y *dense.Matrix, threads int) float64 {
	return par.SumBlocks(y.Rows, threads, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			row := y.Row(i)
			s += dense.DotUnrolled(row, row)
		}
		return s
	})
}

// Result returns the most recent Run/Update result, or nil before the
// first Run.
func (e *Engine) Result() *Result { return e.res }

// Factors exposes the engine's current factor matrices (live state, not
// a copy). Before the first Run, U_0 is zero unless Initial gave it.
func (e *Engine) Factors() []*dense.Matrix { return e.state.Factors }

// Tensor returns the engine's current tensor: the live stable-id
// storage the kernel reads (do not mutate).
func (e *Engine) Tensor() *tensor.COO { return e.x }

// Run converges the decomposition from the engine's current factors
// (the cold start on the first call, the previous solution afterwards)
// and returns the result. ctx is checked between sweeps; a canceled
// context aborts with its error.
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	return e.converge(ctx)
}

// sizeYs grows the shared Y buffer to the widest mode's product at the
// current rows and ranks, so that a sweep does not grow it mode by
// mode; after an update the nonempty-slice counts may have grown.
func (e *Engine) sizeYs() {
	need := 0
	for n := 0; n < e.order; n++ {
		multi, cols, singles, c := e.yShape(n)
		need = max(need, multi*cols+singles*c)
	}
	if cap(e.ybuf) < need {
		e.ybuf = make([]float64, need)
	}
}

// yShape is mode n's product at the current rows and ranks: multi rows
// of cols, the ∏ of the other modes' current ranks (which adaptive rank
// selection changes mid-sweep), and for a split mode singles compact
// rows of c = cols/R_Group; every row is a multi row otherwise.
func (e *Engine) yShape(n int) (multi, cols, singles, c int) {
	multi, cols = len(e.kern.Rows(n)), ttm.RowSize(e.state.Factors, n)
	if kr := e.kern.SplitRows(n); kr != nil {
		singles, c = kr.Rows(), cols/e.state.Factors[e.census[n].Group].Cols
		multi -= singles
	}
	return multi, cols, singles, c
}

// shapeY returns mode n's view of the shared buffer, sized by yShape,
// and binds a split mode's compact rows to the buffer after it (the TTMc
// binds them to the grouping factor). Whatever another mode left in the
// buffer is dead by the time this one is computed.
func (e *Engine) shapeY(n int) *dense.Matrix {
	multi, cols, singles, c := e.yShape(n)
	if cap(e.ybuf) < multi*cols+singles*c {
		e.sizeYs()
	}
	y := &e.ys[n]
	y.Rows, y.Cols, y.Data = multi, cols, e.ybuf[:multi*cols]
	if kr := e.kern.SplitRows(n); kr != nil {
		kr.T = dense.Matrix{Rows: singles, Cols: c, Data: e.ybuf[multi*cols : multi*cols+singles*c]}
	}
	return y
}

// scatter writes mode n's compact TRSVD result into the factor matrix,
// every row outside the list zero. An engine's list only grows (Update
// inserts slices and removes none; a distributed rank's owned rows are
// fixed and Expand overwrites what it receives), so a factor matrix is
// zeroed the first time this engine scatters into it and only copied into
// afterwards — a tall mode's factor is tens of megabytes. NewEngine's
// fresh zero U_0 starts out as zeroed. A matrix that replaces a factor
// (adaptive-rank resize, restored factors) is zeroed again.
func (e *Engine) scatter(n int, compact *dense.Matrix, rows []int32) {
	full := e.state.Factors[n]
	if e.scattered[n] != full {
		full.Zero()
		e.scattered[n] = full
	}
	scatterRows(full, compact, rows)
}

// formCore computes a sweep's core G = Y ×_N U_Nᵀ into the engine's
// buffer. Along the last mode the core's row-major layout is G_(N)ᵀ =
// Yᵀ·U_c, which the last mode's dense operator forms there (MatTMat on
// this rank's rows, a split mode's singletons read at their compact
// width) from the compact rows uc the last solve returned: the rows
// scatter wrote into U_N, so nothing is gathered. The world then reduces
// it.
func (e *Engine) formCore(y, uc *dense.Matrix) *tensor.Dense {
	ranks := e.currentRanks()
	if e.core == nil || !slices.Equal(e.core.Dims, ranks) {
		e.core = tensor.NewDense(ranks)
	}
	gt := dense.Matrix{Rows: y.Cols, Cols: uc.Cols, Data: e.core.Data}
	e.operator(e.order-1, y).Dense().MatTMat(uc, &gt)
	e.ex.ReduceCore(e.core.Data)
	return e.core
}

// converge is the one HOOI sweep loop: Algorithm 3 in shared memory,
// and — through the plan's Exchange — Algorithm 4 on every rank of a
// distributed world. It runs ALS sweeps until the fit stalls or
// MaxIters is reached, owns resume, fit tracking, checkpoint cadence
// and phase timing, and is the body shared by Run and Update. A later
// call differs from the first only in the factors and the seed
// schedule's position it starts from.
func (e *Engine) converge(ctx context.Context) (*Result, error) {
	opts := e.opts
	res := &Result{TTMc: opts.ttmc, SVD: make([]SVDMethod, e.order), IndexBytes: e.x.IndexBytes()}
	res.Timings.TTMcModes = make([]time.Duration, e.order)
	for n := range res.SVD {
		res.SVD[n] = SVDRandomized
		if opts.Eps <= 0 {
			res.SVD[n] = ResolveSVD(opts.svd, ttm.RowSize(e.state.Factors, n), opts.Ranks[n])
		}
	}
	res.StreamBytes = e.kern.StreamBytes()
	tree, _ := e.kern.(*ttm.DTree)
	res.Timings.Symbolic = e.symTime
	if e.firstRun {
		res.Timings.Init = e.initTime
		res.Timings.Symbolic += e.plan.symbolicTime
	}
	e.symTime = 0
	flops0 := e.kern.Flops()
	var nodeTime0 time.Duration
	if tree != nil {
		nodeTime0 = tree.NodeTime()
	}

	var memBase runtime.MemStats
	allocFrom := -1
	solves0 := e.state.SolveCounts
	fits := newFitTracker(e.normX, opts.Tol)
	startIter := 0
	if rs := e.resume; rs != nil {
		// One-shot: a ResumeEngine-built engine continues the
		// interrupted solve from the checkpointed sweep, with the fit
		// trajectory preseeded so stopping decisions are bitwise
		// identical to the uninterrupted run's.
		e.resume = nil
		startIter = rs.Sweep
		fits.Restore(rs.FitHistory)
		res.Core = rs.Core
		res.Iters = rs.Sweep
		if n := len(rs.FitHistory); n > 0 {
			res.Fit = rs.FitHistory[n-1]
		}
		if fits.Stopped() {
			startIter = opts.MaxIters // the original run stopped here
		}
	}
	// g is the last sweep's core, in the engine's buffer until the run
	// ends and the Result gets a copy.
	var g *tensor.Dense
	for iter := startIter; iter < opts.MaxIters; iter++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		e.ex.BeginSweep(iter + 1)
		if opts.MeasureAllocs && allocFrom < 0 && (iter == 1 || opts.MaxIters == 1) {
			// Steady state starts once the sweep-1 arena growth is done
			// (or immediately when there is only one sweep to measure).
			runtime.ReadMemStats(&memBase)
			allocFrom = iter
		}
		// y and rows are the mode's folded rows and uc its solved rows of
		// U_n, in the solver's workspace until the next solve; the last
		// mode's outlive the loop, for the core is formed from them.
		var y, uc *dense.Matrix
		var rows []int32
		for n := 0; n < e.order; n++ {
			t0 := time.Now()
			e.kern.Invalidate(n)
			yn := e.shapeY(n)
			e.kern.TTMc(yn, n, e.state.Factors, opts.Threads)
			y, rows = e.ex.Fold(n, yn, e.kern.Rows(n))
			d := time.Since(t0)
			res.Timings.TTMc += d
			res.Timings.TTMcModes[n] += d

			t0 = time.Now()
			if opts.Eps > 0 {
				tau := opts.Eps * opts.Eps * e.normX * e.normX / float64(e.order)
				capR := 0
				if opts.Ranks != nil {
					capR = opts.Ranks[n]
				}
				var rank int
				var err error
				uc, rank, _, err = e.state.SolveDenseEps(
					y, e.state.Factors[n].Cols, capR, opts.Threads, tau, frobSq(y, opts.Threads))
				if err != nil {
					return nil, fmt.Errorf("core: TRSVD failed in mode %d: %w", n, err)
				}
				if rank != e.state.Factors[n].Cols {
					e.state.Factors[n] = dense.NewMatrix(e.x.Dims[n], rank)
				}
			} else {
				sres, err := e.state.Solve(e.operator(n, y), opts.Ranks[n], res.SVD[n])
				if err != nil {
					return nil, fmt.Errorf("core: TRSVD failed in mode %d: %w", n, err)
				}
				uc = sres.U
			}
			e.scatter(n, uc, rows)
			e.ex.Expand(n, e.state.Factors[n])
			res.Timings.TRSVD += time.Since(t0)
		}

		t0 := time.Now()
		g = e.formCore(y, uc)
		res.Timings.Core += time.Since(t0)

		normG := g.Norm()
		fit, stop := fits.Record(normG)
		if math.IsNaN(fit) || math.IsInf(fit, 0) {
			return nil, fmt.Errorf("core: non-finite fit %v at sweep %d (‖X‖ = %g, ‖G‖ = %g)", fit, iter+1, e.normX, normG)
		}
		res.Fit = fit
		res.Iters = iter + 1
		if e.ckptDir != "" && e.ckptEvery > 0 && (iter+1)%e.ckptEvery == 0 {
			// The core reduction above closed the sweep: core and fit are
			// replicated bitwise on every rank, and Sync completes the
			// factors before one rank writes them, so the single file is
			// the world's state. Sync also keeps ranks from running into
			// the next sweep before the checkpoint is durable.
			err := e.ex.Sync(e.state.Factors, func() error {
				_, err := checkpoint.Save(e.ckptDir, e.midRunState(iter+1, fits.history, g))
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("core: checkpoint at sweep %d: %w", iter+1, err)
			}
		}
		if stop {
			break
		}
	}
	// A Result carries complete factors; a rank of a distributed world
	// holds only the rows its nonzeros reference until this assembly,
	// once per run.
	if err := e.ex.Sync(e.state.Factors, nil); err != nil {
		return nil, fmt.Errorf("core: assembling the factors: %w", err)
	}
	res.FitHistory = fits.history
	if allocFrom >= 0 && res.Iters > allocFrom {
		var memEnd runtime.MemStats
		runtime.ReadMemStats(&memEnd)
		sweeps := int64(res.Iters - allocFrom)
		res.AllocsPerSweep = int64(memEnd.Mallocs-memBase.Mallocs) / sweeps
		res.AllocBytesPerSweep = int64(memEnd.TotalAlloc-memBase.TotalAlloc) / sweeps
	}
	if g != nil {
		res.Core = g.Clone() // once per run, outside the measured sweeps
	}
	res.TTMcFlops = e.kern.Flops() - flops0
	res.TRSVDSolves = e.state.Solves - solves0.Solves
	res.TRSVDPasses = e.state.Passes - solves0.Passes
	res.TRSVDMadds = e.state.Madds - solves0.Madds
	res.TRSVDUnconverged = e.state.Unconverged - solves0.Unconverged
	if tree != nil {
		res.Timings.TTMcNodes = tree.NodeTime() - nodeTime0
	} else if flat, ok := e.kern.(*ttm.Flat); ok {
		for n := 0; n < e.order; n++ {
			res.TTMcRuns = append(res.TTMcRuns, flat.RunsPerNZ(n))
		}
	}
	// The solve is complete, and so is its checkpoint trail: a later Run
	// numbers its sweeps from 1 again (EnableCheckpoints).
	e.ckptDir = ""
	res.Factors = e.state.Factors
	res.Census = e.census
	res.YBytes = 8 * int64(cap(e.ybuf))
	res.ChosenRanks = append([]int(nil), e.currentRanks()...)
	e.firstRun = false
	e.res = res
	return res, nil
}

// ensureOwned clones the shared plan structures the first time the
// engine is about to mutate them. The kernel stays on the plan's —
// bit-identical, immutable — copies until Update has merged the delta
// and rebuilds it; the plan, and the caller's tensor, are never touched
// by updates.
func (e *Engine) ensureOwned() {
	if e.owned {
		return
	}
	e.owned = true
	e.x = e.x.Clone()
	if e.sym != nil {
		e.sym = e.sym.Clone()
	}
}

// Update ingests a coordinate delta — appended and changed nonzeros,
// duplicates summed — and re-converges from the current factors. The
// path is the same whatever the delta: the merge sums into existing
// storage positions and appends new coordinates at the tail
// (tensor.COO.MergeIndexed, cost proportional to the delta); the flat
// kernel's update lists take the appended nonzeros by splice
// (symbolic.Structure.Insert); a plan that runs the dimension tree
// groups the merged tensor afresh (ttm.BuildDTree) — every memo node is
// invalidated by the first sweep before it is read, so a patched tree
// would recompute exactly what a fresh one computes. The sweeps start
// from the previous factors; every TRSVD in them starts cold, as in any
// other sweep. The result carries
// the update accounting: sweeps to re-converge, the TTMc madds
// executed, and the flat-sweep cost they stand against
// (FullSweepMadds).
//
// A merged delta also ends checkpointing: the engine's tensor is no
// longer the plan's, so a checkpoint of it could not be resumed on a
// plan rebuilt from the original input.
//
// A validation error (shape mismatch, out-of-range coordinate) leaves
// the engine state untouched.
func (e *Engine) Update(delta *tensor.COO) (*Result, error) {
	return e.UpdateContext(context.Background(), delta)
}

// UpdateContext is Update with sweep-level cancellation.
func (e *Engine) UpdateContext(ctx context.Context, delta *tensor.COO) (*Result, error) {
	e.ensureOwned()
	start := time.Now()
	oldNNZ := e.x.NNZ()
	if e.mergeIx == nil {
		e.mergeIx = e.x.NewMergeIndex()
	}
	info, err := e.x.MergeIndexed(delta, e.mergeIx)
	if err != nil {
		return nil, err
	}
	e.ckptDir = ""
	if e.sym != nil {
		if _, err := e.sym.Insert(e.x, oldNNZ); err != nil {
			return nil, fmt.Errorf("core: incremental symbolic maintenance failed: %w", err)
		}
	}
	// The old kernel is dropped before its successor is built, so that a
	// tree's memo buffers are collectable while the new groupings grow.
	e.kern = nil
	e.kern = e.newKernel(e.opts.Threads)
	e.normX = e.x.Norm(e.opts.Threads)
	e.sizeYs()
	e.symTime += time.Since(start)

	res, err := e.converge(ctx)
	if err != nil {
		return nil, err
	}
	res.UpdateSweeps = res.Iters
	res.UpdateMadds = res.TTMcFlops
	res.FullSweepMadds = ttm.SweepFlops(e.x.NNZ(), e.state.Factors)
	res.DeltaNNZ = len(info.Updated) + info.Appended
	return res, nil
}
