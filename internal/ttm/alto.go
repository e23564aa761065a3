package ttm

import (
	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// ALTOTTMc is the sequential-stream TTMc engine over an adaptive
// linearized (ALTO) tensor. The format stores one sorted key stream, so
// every mode's product is computed by scanning the same stream front to
// back — no per-root-mode hierarchy to walk and no gather order to
// re-derive per mode. Parallelism comes from a recursive halving of the
// linearized range into a fixed block grid (a function of the nonzero
// count only, never the thread count), and the conflict-free output
// discipline is chosen per mode:
//
//   - Short modes accumulate into per-block dense slabs (dim x rowSize
//     each) while streaming their block's key range, then reduce the
//     slabs into the output rows in ascending block order — the
//     fixed-block discipline of par.SumBlocks, so results are bitwise
//     identical for every thread count.
//   - Long modes (where the slabs would not fit the accumulator budget)
//     fall back to owner-computes emission over the symbolic update
//     lists: every output row is owned by exactly one worker and its
//     nonzeros are accumulated in list order, exactly like the flat
//     kernel.
//
// The engine borrows the symbolic structure built from the same ALTO
// tensor and is not safe for concurrent use.
type ALTOTTMc struct {
	x   *tensor.ALTO
	sym *symbolic.Structure

	flops int64

	// bounds is the recursive-split block grid over the linearized
	// range: block b covers stream positions [bounds[b], bounds[b+1]),
	// and chains its balanced partition, weighted by block length.
	bounds []int32
	chains symbolic.ChainCache
	// acc is the reusable per-block dense accumulator arena of the
	// short-mode path.
	acc []float64
}

// altoAccBudget caps the short-mode accumulator arena (in float64
// entries): blocks x dim x rowSize beyond it switches the mode to the
// owner-computes path.
const altoAccBudget = 1 << 22

// altoSplitBounds derives the fixed block grid by recursively halving
// [0, n): splitting stops at 64 blocks or when a further halving would
// drop blocks below ~4096 nonzeros. The grid depends only on n, which
// is what makes the blocked reduction thread-count invariant.
func altoSplitBounds(n int) []int32 {
	blocks := 1
	for blocks < 64 && n/(blocks*2) >= 4096 {
		blocks *= 2
	}
	out := make([]int32, 0, blocks+1)
	var split func(lo, hi, k int)
	split = func(lo, hi, k int) {
		if k == 1 {
			out = append(out, int32(lo))
			return
		}
		mid := lo + (hi-lo)/2
		split(lo, mid, k/2)
		split(mid, hi, k-k/2)
	}
	split(0, n, blocks)
	return append(out, int32(n))
}

// NewALTOTTMc builds the engine over an ALTO tensor and the symbolic
// structure built from that same tensor. x must have order >= 2 and at
// least one nonzero.
func NewALTOTTMc(x *tensor.ALTO, sym *symbolic.Structure) *ALTOTTMc {
	if x.Order() < 2 {
		panic("ttm: ALTOTTMc needs an order >= 2 tensor")
	}
	if x.NNZ() == 0 {
		panic("ttm: ALTOTTMc needs a nonempty tensor")
	}
	if len(sym.Modes) != x.Order() {
		panic("ttm: symbolic structure does not match the ALTO tensor")
	}
	return &ALTOTTMc{
		x:      x,
		sym:    sym,
		bounds: altoSplitBounds(x.NNZ()),
	}
}

// NumRows returns the number of compact result rows for mode n (the
// count of nonempty slices), matching symbolic.Mode.NumRows.
func (k *ALTOTTMc) NumRows(n int) int { return k.sym.Modes[n].NumRows() }

// Rows returns the sorted nonempty slice indices of mode n, matching
// symbolic.Mode.Rows.
func (k *ALTOTTMc) Rows(n int) []int32 { return k.sym.Modes[n].Rows }

// Flops returns the accumulated multiply-add count of all kernel
// invocations so far (dominant AXPY terms, the same convention as the
// flat kernel's Flops).
func (k *ALTOTTMc) Flops() int64 { return k.flops }

// ResetFlops clears the accumulated flop counter.
func (k *ALTOTTMc) ResetFlops() { k.flops = 0 }

// Invalidate is a no-op: the stream kernels cache no factor-dependent
// values between calls.
func (k *ALTOTTMc) Invalidate(int) {}

// useDense reports whether mode n takes the blocked dense-accumulator
// path for the given row size. The decision depends only on the tensor
// and the factor shapes — never the thread count — so the
// accumulation order (and hence the bits) of the result is stable.
func (k *ALTOTTMc) useDense(n, rowSize int) bool {
	dim := k.x.Shape()[n]
	blocks := len(k.bounds) - 1
	return int64(blocks)*int64(dim)*int64(rowSize) <= altoAccBudget
}

// prefixLenFor returns the scratch length of the fused Kronecker
// buffers for mode n (everything except the last contracted mode).
func prefixLenFor(u []*dense.Matrix, order, n int) int {
	lastMode := order - 1
	if lastMode == n {
		lastMode--
	}
	prefixLen := 1
	for t := 0; t < order; t++ {
		if t != n && t != lastMode {
			prefixLen *= u[t].Cols
		}
	}
	return prefixLen
}

// TTMc computes the mode-n matricized product into y (pre-shaped
// NumRows(n) x RowSize(u, n); overwritten). U[n] is not referenced and
// may be nil.
func (k *ALTOTTMc) TTMc(y *dense.Matrix, n int, u []*dense.Matrix, threads int) {
	rowSize := RowSize(u, n)
	sm := &k.sym.Modes[n]
	if y.Rows != sm.NumRows() || y.Cols != rowSize {
		panic("ttm: ALTOTTMc output shape mismatch")
	}
	threads = par.DefaultThreads(threads)
	if k.useDense(n, rowSize) {
		k.denseTTMc(y, n, sm, u, rowSize, threads)
	} else {
		k.ownerTTMc(y, n, sm, u, rowSize, threads)
	}
	k.flops += Flops(k.x.NNZ(), rowSize)
}

// denseTTMc is the short-mode path: stream each block's linearized
// range into a per-block dim x rowSize slab, then reduce the slabs into
// the compact output rows in ascending block order.
func (k *ALTOTTMc) denseTTMc(y *dense.Matrix, n int, sm *symbolic.Mode, u []*dense.Matrix, rowSize, threads int) {
	x := k.x
	order := x.Order()
	dim := x.Shape()[n]
	blocks := len(k.bounds) - 1
	slab := dim * rowSize
	need := blocks * slab
	if cap(k.acc) < need {
		k.acc = make([]float64, need)
	}
	acc := k.acc[:need]

	cols := make([][]int32, order)
	for t := 0; t < order; t++ {
		cols[t] = x.ModeStream(t)
	}
	val := x.Values()
	prefixLen := prefixLenFor(u, order, n)

	chains := func() []int32 { return k.chains.Partition(k.bounds, threads) }
	type scratch struct {
		rows [][]float64
		bufA []float64
		bufB []float64
	}
	scratches := make([]*scratch, threads)
	runRows(blocks, threads, chains, func(w, blo, bhi int) {
		sc := scratches[w]
		if sc == nil {
			sc = &scratch{
				rows: make([][]float64, order-1),
				bufA: make([]float64, prefixLen),
				bufB: make([]float64, prefixLen),
			}
			scratches[w] = sc
		}
		for b := blo; b < bhi; b++ {
			base := b * slab
			// Each block has exactly one owner, so zeroing its slab here
			// parallelizes under the same ownership as the accumulation.
			for i := base; i < base+slab; i++ {
				acc[i] = 0
			}
			for i := int(k.bounds[b]); i < int(k.bounds[b+1]); i++ {
				j := 0
				for t := 0; t < order; t++ {
					if t == n {
						continue
					}
					sc.rows[j] = u[t].Row(int(cols[t][i]))
					j++
				}
				row := acc[base+int(cols[n][i])*rowSize:][:rowSize]
				accumKron(row, val[i], sc.rows, sc.bufA, sc.bufB)
			}
		}
	})

	runRows(sm.NumRows(), threads, func() []int32 { return sm.Chains(threads) },
		func(w, lo, hi int) {
			for r := lo; r < hi; r++ {
				row := y.Row(r)
				for i := range row {
					row[i] = 0
				}
				off := int(sm.Rows[r]) * rowSize
				for b := 0; b < blocks; b++ {
					src := acc[b*slab+off:][:rowSize]
					for i, v := range src {
						row[i] += v
					}
				}
			}
		})
}

// ownerTTMc is the long-mode path: the flat owner-computes row loop
// over the symbolic update lists, gathering coordinates from the
// de-linearized streams.
func (k *ALTOTTMc) ownerTTMc(y *dense.Matrix, n int, sm *symbolic.Mode, u []*dense.Matrix, rowSize, threads int) {
	x := k.x
	order := x.Order()
	cols := make([][]int32, order)
	for t := 0; t < order; t++ {
		cols[t] = x.ModeStream(t)
	}
	val := x.Values()
	prefixLen := prefixLenFor(u, order, n)
	type scratch struct {
		rows [][]float64
		bufA []float64
		bufB []float64
	}
	scratches := make([]*scratch, threads)
	runRows(sm.NumRows(), threads, func() []int32 { return sm.Chains(threads) },
		func(w, lo, hi int) {
			sc := scratches[w]
			if sc == nil {
				sc = &scratch{
					rows: make([][]float64, order-1),
					bufA: make([]float64, prefixLen),
					bufB: make([]float64, prefixLen),
				}
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
						if t == n {
							continue
						}
						sc.rows[j] = u[t].Row(int(cols[t][id]))
						j++
					}
					accumKron(row, val[id], sc.rows, sc.bufA, sc.bufB)
				}
			}
		})
}
