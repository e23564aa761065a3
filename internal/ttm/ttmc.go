package ttm

import (
	"sync/atomic"

	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// TTMc computes the mode-n matricized tensor-times-matrix-chain product
//
//	Y_(n)(i, :) = sum_{x_{i_1..i_N} in X, i_n = i} x * ⊗_{t≠n} U_t(i_t, :)
//
// (eq. 4 of the paper) for every nonempty slice i in sm.Rows, writing
// row r of y for slice sm.Rows[r]. y must be pre-shaped
// sm.NumRows() x RowSize(u, sm.N); it is overwritten. U[sm.N] is not
// referenced and may be nil.
//
// Rows are computed independently (Algorithm 3 lines 5-8): each row is
// owned by exactly one worker so no locks are needed, and the
// accumulation order within a row is fixed by the symbolic structure,
// making the result bitwise deterministic for any thread count. The rows
// are split into per-worker chains of near-equal nonzero weight (cached
// on the symbolic mode), with chunks stolen for irregular tails — the
// load-balance discipline the paper's scaling results rest on, where
// uniform chunking leaves the worker that owns the heaviest slices
// running long after the rest are idle.
func TTMc(y *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, u []*dense.Matrix, threads int) {
	newFlat(x, nil).run(y, sm, nil, u, threads)
}

// TTMcSched is TTMc; the schedule argument has one value, and the
// signature is the one the repository benchmark compiles against.
func TTMcSched(y *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, u []*dense.Matrix, threads int, _ par.Schedule) {
	TTMc(y, x, sm, u, threads)
}

// TTMcNaive is the un-fused variant used as an ablation baseline: for
// every nonzero it materializes the full Kronecker product in a
// temporary of length RowSize and then adds it to the row. Numerically
// it matches TTMc to rounding; the benchmark quantifies the cost of the
// extra temporary traffic.
func TTMcNaive(y *dense.Matrix, x *tensor.COO, sm *symbolic.Mode, u []*dense.Matrix, threads int) {
	k := RowSize(u, sm.N)
	if y.Rows != sm.NumRows() || y.Cols != k {
		panic("ttm: TTMcNaive output shape mismatch")
	}
	order := x.Order()
	threads = par.DefaultThreads(threads)
	type scratch struct {
		rows [][]float64
		kron []float64
	}
	scratches := make([]*scratch, threads)
	par.Dynamic(sm.NumRows(), threads, 0, par.BodyFunc(func(w, lo, hi int) {
		sc := scratches[w]
		if sc == nil {
			sc = &scratch{rows: make([][]float64, order-1), kron: make([]float64, k)}
			scratches[w] = sc
		}
		for r := lo; r < hi; r++ {
			row := y.Row(r)
			for i := range row {
				row[i] = 0
			}
			for _, id := range sm.RowNZ(r) {
				j := 0
				for t := 0; t < order; t++ {
					if t == sm.N {
						continue
					}
					sc.rows[j] = u[t].Row(int(x.Idx[t][id]))
					j++
				}
				KronRows(sc.rows, sc.kron)
				dense.Axpy(x.Val[id], sc.kron, row)
			}
		}
	}))
}

// Flops returns the nominal multiply-add count of one TTMc call for the
// given mode: nnz * RowSize, a full-width rank-one update per nonzero. It
// is the W_TTMc statistic of Table III, which the partitioners balance
// and Result.FullSweepMadds reports — not what a kernel executes: Flat
// factors runs of nonzeros and counts what it ran (Flat.Flops).
func Flops(nnz, rowSize int) int64 { return int64(nnz) * int64(rowSize) }

// Flat is the reference kernel as a resident value with the same
// method set as DTree, so a HOOI driver holds one kernel whatever the
// strategy: the balanced-chain TTMc over the per-mode update lists, with
// the multiply-adds it executed counted. Lists restricted by
// symbolic.Mode.Select make it compute exactly those rows.
//
// Eq. 4 is bilinear, so within a row the leading contracted mode
// a = min{t != n} is factored out of every run of consecutive list
// entries with one mode-a index: each nonzero adds
// x * ⊗_{t>a, t!=n} U_t(i_t, :) to an accumulator of RowSize/R_a
// entries, each run ends in one rank-one update U_a(i_a, :) ⊗ acc of
// the row — a compressed format's fiber saving from the order of the one
// coordinate list. Runs are found by comparing neighbours: an unsorted
// tensor is exact too, with runs one entry long. A row's bits depend on
// the order of its list and on nothing else.
//
// The loop reads its indices as streams: symbolic.Mode.Streams holds the
// other modes' index arrays in the mode's list order, so the lead index
// and the factor-row indices of list position p are s[t][p], read in
// sequence, and x.Val[NZ[p]] is the one gather left. The streams and the
// chain partitions belong to the kernel: it holds its own copies of the
// modes' headers, whose lists stay the structure's, shared and read-only,
// and builds both on those copies (BuildFlat), so any number of kernels
// may run on one structure at once. They are copies in list order —
// same operands, same order, same bits as gathering through NZ. A
// dimension tree gathers its own the same way, in its root children's
// group order (StreamBytes).
type Flat struct {
	x     *tensor.COO
	modes []symbolic.Mode // the kernel's copies of the structure's modes
	flops int64
	runs  []atomic.Int64 // per mode, the runs its last TTMc closed
	// One call runs at a time, so its parameters (call), the per-worker
	// scratch and the region closures over them are the kernel's, built
	// once: a call allocates nothing in steady state.
	call     flatCall
	trail    []int // the call's contracted modes after the lead, ascending
	scratch  []kronScratch
	rowsFn   func(worker, lo, hi int)
	chainsFn func() []int32
	// The modes in split order (SplitSingletons).
	splits
}

// flatCall is the state of the running TTMc call.
type flatCall struct {
	y       *dense.Matrix
	sm      *symbolic.Mode
	u       []*dense.Matrix
	threads int
	acc     int       // the accumulator's length: the row without its leading factor
	idx     [][]int32 // sm.Streams: the other modes' indices in list order
	// A mode in split order writes list row r to row at[r] of y below
	// multi and compactly to row at[r]-multi of t from multi on: the
	// value times ⊗ of its rows of the rest's factors — with one of
	// them (order 3), row other[p] of uo.
	at    []int32 // nil: every list row to its own row of y
	multi int
	t     *dense.Matrix
	rest  []int
	other []int32
	uo    *dense.Matrix
}

// NewFlat is BuildFlat on one thread.
func NewFlat(x *tensor.COO, sym *symbolic.Structure) *Flat { return BuildFlat(x, sym, 1) }

// BuildFlat binds the flat kernel to a coordinate tensor and the symbolic
// structure whose nonzero ids index it, and builds every mode's index
// streams on up to threads goroutines, on the kernel's own copies of the
// modes' headers: sym is only read, here and in every call. Value changes
// reach the kernel through x.Val; a merge that appends nonzeros needs a
// new kernel on the structure Structure.Insert brought in line.
func BuildFlat(x *tensor.COO, sym *symbolic.Structure, threads int) *Flat {
	k := newFlat(x, append([]symbolic.Mode(nil), sym.Modes...))
	par.For(len(k.modes), threads, 1, func(n int) { k.modes[n].Streams(x) })
	return k
}

func newFlat(x *tensor.COO, modes []symbolic.Mode) *Flat {
	k := &Flat{x: x, modes: modes, runs: make([]atomic.Int64, x.Order())}
	k.rowsFn, k.chainsFn = k.rows, k.callChains
	return k
}

// Rows lists the slices of mode n the kernel computes, in the order of
// Y_(n)'s rows: ascending, unless the mode is in split order
// (SplitSingletons).
func (k *Flat) Rows(n int) []int32 {
	if sp := k.of(n); sp != nil {
		return sp.rows
	}
	return k.modes[n].Rows
}

// TTMc computes the mode-n product for every row of the mode's update
// lists, in the order of Rows(n) (see TTMc): into y, or for a mode in
// split order its multi rows into y and its singletons into the T its
// SplitSingletons rows hold, binding their U to the grouping factor.
func (k *Flat) TTMc(y *dense.Matrix, n int, u []*dense.Matrix, threads int) {
	k.run(y, &k.modes[n], k.of(n), u, threads)
}

// leadMode is the mode factored out of mode n's runs: the first one
// contracted — or n itself on an order-1 tensor, which contracts none,
// so that a row is one run with the unit factor row.
func leadMode(order, n int) int {
	if n > 0 {
		return 0
	}
	return min(1, order-1)
}

var unitRow = []float64{1}

// run is TTMc over the update lists of sm, counted, list row r written
// to row r of y, or where sp puts it when the mode is in split order.
func (k *Flat) run(y *dense.Matrix, sm *symbolic.Mode, sp *splitMode, u []*dense.Matrix, threads int) {
	rowSize, rows := RowSize(u, sm.N), sm.NumRows()
	if sp != nil {
		rows = sp.multi
		sp.bind(u, rowSize)
	}
	if y.Rows != rows || y.Cols != rowSize {
		panic("ttm: TTMc output shape mismatch")
	}
	threads = par.DefaultThreads(threads)
	acc, a := rowSize, leadMode(len(u), sm.N) // acc also bounds the prefixes built on the way to it
	if a != sm.N {
		acc /= u[a].Cols
	}
	k.trail = k.trail[:0]
	for t := a + 1; t < len(u); t++ {
		if t != sm.N {
			k.trail = append(k.trail, t)
		}
	}
	k.scratch = growKronScratch(k.scratch, threads, len(u), acc, acc)
	k.call = flatCall{y: y, sm: sm, u: u, threads: threads, acc: acc, idx: sm.Streams(k.x), multi: rows}
	if sp != nil {
		k.call.at, k.call.t, k.call.rest = sp.at, &sp.kron.T, sp.rest
		if len(sp.rest) == 1 {
			k.call.other, k.call.uo = k.call.idx[sp.rest[0]], u[sp.rest[0]]
		}
	}
	k.runs[sm.N].Store(0)
	runRows(sm.NumRows(), threads, k.chainsFn, k.rowsFn)
	k.call = flatCall{}
	// What ran: an accumulator update per nonzero, a row update per run;
	// a compact row is one run of one nonzero, counted c.
	k.flops += int64(len(sm.NZ))*int64(acc) + k.runs[sm.N].Load()*int64(rowSize)
	if sp != nil {
		k.flops -= int64(sp.kron.T.Rows) * int64(acc+rowSize-sp.kron.T.Cols)
	}
}

// callChains is the balanced partition of the running call.
func (k *Flat) callChains() []int32 { return k.call.sm.Chains(k.call.threads) }

// rows computes rows [lo, hi) of the running call: one pass over each
// row's list positions, the lead and trailing indices read from the
// call's streams. With one trailing mode (all of order 3) an entry's
// update is an axpy of that factor's row — what accumKron's 1 x R Ger
// computes, zero skip included — so a whole row is one dense.GatherGer.
func (k *Flat) rows(w, lo, hi int) {
	c, val, sc := &k.call, k.x.Val, &k.scratch[w]
	y, sm, u := c.y, c.sm, c.u
	a, runs := leadMode(len(u), sm.N), 0
	nz, lead, leadRow, acc, ua := sm.NZ, c.idx[a], unitRow, sc.acc[:c.acc], u[a]
	frows := sc.rows[:len(k.trail)]
	var one []int32
	var uone *dense.Matrix
	if len(k.trail) == 1 {
		one, uone = c.idx[k.trail[0]], u[k.trail[0]]
	}
	for r := lo; r < hi; r++ {
		yr := r
		if c.at != nil {
			yr = int(c.at[r])
		}
		if yr >= c.multi {
			p := sm.Ptr[r]
			t, x := c.t.Row(yr-c.multi), val[nz[p]]
			if c.uo != nil {
				// scaleKron of one row, inline: order 3 writes a singleton
				// a row at a time.
				for j, f := range c.uo.Row(int(c.other[p])) {
					t[j] = x * f
				}
			} else {
				k.compactRow(w, t, x, p)
			}
			runs++
			continue
		}
		row := y.Row(yr)
		clear(row)
		p, end := sm.Ptr[r], sm.Ptr[r+1]
		if uone != nil {
			runs += dense.GatherGer(lead[p:end], ua, val, nz[p:end], one[p:end], uone, acc, row)
			continue
		}
		for ; p < end; runs++ {
			i := lead[p]
			clear(acc)
			for ; p < end && lead[p] == i; p++ {
				for j, t := range k.trail {
					frows[j] = u[t].Row(int(c.idx[t][p]))
				}
				accumKron(acc, val[nz[p]], frows, sc.bufA, sc.bufB)
			}
			if a != sm.N {
				leadRow = ua.Row(int(i))
			}
			dense.Ger(leadRow, acc, row)
		}
	}
	k.runs[sm.N].Add(int64(runs)) // once a chunk; integers, so any thread count sums the same
}

// compactRow writes into t the compact row of the singleton at list
// position p whose rest is not one mode: its value x times ⊗ of its rows
// of the rest's factors (scaleKron; x alone on order 2). It stays out of
// rows, whose loop order 3 runs.
func (k *Flat) compactRow(w int, t []float64, x float64, p int32) {
	c := &k.call
	rest := k.scratch[w].rows[:len(c.rest)]
	for j, m := range c.rest {
		rest[j] = c.u[m].Row(int(c.idx[m][p]))
	}
	scaleKron(t, x, rest)
}

// Flops returns the accumulated multiply-add count of all calls so far:
// what the run-factored loop executed, not the nominal Flops.
func (k *Flat) Flops() int64 { return k.flops }

// RunsPerNZ reports the runs mode n's last TTMc closed per listed
// nonzero: about 1 on an unsorted input, a fraction on a sorted one.
func (k *Flat) RunsPerNZ(n int) float64 {
	return float64(k.runs[n].Load()) / float64(max(len(k.modes[n].NZ), 1))
}

// SweepFlops predicts the multiply-adds of one sweep at the given ranks
// by walking the update lists for their runs, as DTree.SweepFlops does
// the tree's nodes; a mode in split order writes each singleton's row
// in RowSize/R_Group.
func (k *Flat) SweepFlops(ranks []int) int64 {
	var total int64
	for n := range k.modes {
		sm, a := &k.modes[n], leadMode(len(ranks), n)
		rowSize, acc, runs := 1, 1, int64(0)
		for t, r := range ranks {
			if t != n {
				rowSize *= r
			}
			if t != n && t != a {
				acc *= r
			}
		}
		for r := range sm.Rows {
			nz := sm.RowNZ(r)
			for p, id := range nz {
				if p == 0 || k.x.Idx[a][id] != k.x.Idx[a][nz[p-1]] {
					runs++
				}
			}
		}
		total += int64(len(sm.NZ))*int64(acc) + runs*int64(rowSize)
		if sp := k.of(n); sp != nil {
			total -= int64(sp.kron.Rows()) * int64(acc+rowSize-rowSize/ranks[sp.group])
		}
	}
	return total
}

// StreamBytes reports what the kernel's index streams copy: nothing for
// a stream that aliases the tensor (symbolic.Mode.StreamBytes).
func (k *Flat) StreamBytes() int64 {
	var total int64
	for n := range k.modes {
		total += k.modes[n].StreamBytes()
	}
	return total
}

// Invalidate is a no-op: the flat kernel keeps no partials between calls.
func (k *Flat) Invalidate(int) {}

// runRows executes an owner-computes row loop over [0, n) on balanced
// chains with work-stealing (chains() is not consulted when the loop
// runs inline, so callers can defer the partition computation).
func runRows(n, threads int, chains func() []int32, body func(worker, lo, hi int)) {
	if threads <= 1 || n <= 1 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	par.RunChains(chains(), threads, body)
}
