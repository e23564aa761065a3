package ttm

import (
	"hypertensor/internal/dense"
	"hypertensor/internal/par"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// CSFTTMc is the fiber-walking TTMc engine over a compressed-sparse-
// fiber tensor. Where the flat coordinate kernel gather-scatters N-1
// factor rows per nonzero, this engine sweeps the fiber hierarchy
// bottom-up: each level-l fiber accumulates the contraction of its
// subtree once (a dense block over the ranks of the modes below it),
// and its parent expands that block by the fiber's own factor row. Work
// shared by the nonzeros of a fiber is therefore hoisted out of the
// per-nonzero loop, and the index traffic is the compressed fiber
// levels instead of the N x nnz coordinate streams.
//
// For the root mode the upward sweep terminates directly in the output
// rows (one per root fiber). For a deeper mode the sweep stops at that
// mode's level and a second phase combines each fiber's "below" block
// with the Kronecker product of its ancestors' factor rows, grouped by
// slice index so that every output row is owned by exactly one worker
// and accumulated in ascending fiber order — the same lock-free,
// thread-count-deterministic discipline as the flat kernel.
//
// The symbolic fiber groupings are built once per tensor and reused by
// every numeric call; the engine is not safe for concurrent use.
type CSFTTMc struct {
	x     *tensor.CSF
	order int
	// groups[n] groups the level-Level(n) fibers by slice index
	// (nil for the root mode, whose fibers are already the rows).
	groups []*symbolic.Groups
	// anc[n] lists the ancestor levels 0..Level(n)-1 sorted by
	// ascending tensor mode, the order KronRows needs.
	anc [][]int
	// blkA/blkB are the ping-pong upward-sweep block buffers.
	blkA, blkB []float64
	flops      int64

	// partThreads is the worker count the cached partitions were built
	// for; a different thread count rebuilds them.
	partThreads int
	// levelBounds[l] chains the level-l fibers by their nnz weights
	// (the upward-sweep loop); emitParts[n] is the LPT assignment of
	// mode n's output rows by fiber count (the emission loop).
	levelBounds [][]int32
	emitParts   [][][]int32
}

// resetParts drops the cached partitions when the thread count changes.
func (k *CSFTTMc) resetParts(threads int) {
	if k.partThreads == threads {
		return
	}
	k.partThreads = threads
	k.levelBounds = make([][]int32, k.order)
	k.emitParts = make([][][]int32, k.order)
}

// boundsFor returns (building on first use) the balanced chain
// partition of level l's fibers, weighted by the nonzeros under each
// fiber — the precomputed partition the upward sweep runs on.
func (k *CSFTTMc) boundsFor(l, threads int) []int32 {
	k.resetParts(threads)
	if k.levelBounds[l] == nil {
		k.levelBounds[l] = par.PartitionChains(k.x.FiberWeights(l), threads)
	}
	return k.levelBounds[l]
}

// partsFor returns (building on first use) the LPT assignment of mode
// n's output rows, weighted by each row's fiber count. Emission cost is
// per fiber, and slice fiber counts are the most skewed weights in the
// pipeline (hot slices own orders of magnitude more fibers), which is
// exactly where LPT beats contiguous chains.
func (k *CSFTTMc) partsFor(n, threads int) [][]int32 {
	k.resetParts(threads)
	if k.emitParts[n] == nil {
		g := k.groups[n]
		w := make([]int64, g.NumGroups())
		for r := range w {
			w[r] = int64(len(g.Group(r)))
		}
		k.emitParts[n] = par.PartitionLPT(w, threads)
	}
	return k.emitParts[n]
}

// runLevel dispatches one upward-sweep fiber loop over its cached chains.
func (k *CSFTTMc) runLevel(l, nf, threads int, body func(worker, lo, hi int)) {
	runRows(nf, threads, func() []int32 { return k.boundsFor(l, threads) }, body)
}

// NewCSFTTMc builds the symbolic side of the engine: per-mode fiber
// groupings and ancestor orderings. x must have order >= 2 and at least
// one nonzero.
func NewCSFTTMc(x *tensor.CSF) *CSFTTMc {
	if x.Order() < 2 {
		panic("ttm: CSFTTMc requires an order >= 2 tensor")
	}
	if x.NNZ() == 0 {
		panic("ttm: CSFTTMc requires a nonempty tensor")
	}
	k := &CSFTTMc{
		x:      x,
		order:  x.Order(),
		groups: make([]*symbolic.Groups, x.Order()),
		anc:    make([][]int, x.Order()),
	}
	perm := x.Perm()
	for n := 0; n < k.order; n++ {
		ln := x.Level(n)
		if ln == 0 {
			continue
		}
		k.groups[n] = symbolic.FiberGroups(x, ln)
		levels := make([]int, ln)
		for l := range levels {
			levels[l] = l
		}
		// Sort ancestor levels by their tensor mode so the Kronecker
		// prefix comes out in ascending-mode order.
		for i := 1; i < len(levels); i++ {
			for j := i; j > 0 && perm[levels[j]] < perm[levels[j-1]]; j-- {
				levels[j], levels[j-1] = levels[j-1], levels[j]
			}
		}
		k.anc[n] = levels
	}
	return k
}

// NumRows returns the number of compact result rows for mode n (the
// count of nonempty slices), matching symbolic.Mode.NumRows.
func (k *CSFTTMc) NumRows(n int) int {
	if k.x.Level(n) == 0 {
		return k.x.NumFibers(0)
	}
	return k.groups[n].NumGroups()
}

// Rows returns the sorted nonempty slice indices of mode n, matching
// symbolic.Mode.Rows.
func (k *CSFTTMc) Rows(n int) []int32 {
	if k.x.Level(n) == 0 {
		return k.x.Fids(0)
	}
	return k.groups[n].Keys[0]
}

// Flops returns the accumulated multiply-add count of all kernel
// invocations so far (dominant AXPY terms, the same convention as Flops
// for the flat kernel).
func (k *CSFTTMc) Flops() int64 { return k.flops }

// ResetFlops zeroes the flop counter.
func (k *CSFTTMc) ResetFlops() { k.flops = 0 }

// Invalidate is a no-op: the fiber walk caches no factor-dependent
// values between calls.
func (k *CSFTTMc) Invalidate(int) {}

// TTMc computes the compacted mode-n matricized product Y_(n) into y —
// the same result and row order as the flat TTMc over the mode's update
// lists. y must be pre-shaped NumRows(n) x RowSize(u, n); it is
// overwritten. U[n] is not referenced and may be nil.
func (k *CSFTTMc) TTMc(y *dense.Matrix, n int, u []*dense.Matrix, threads int) {
	if y.Rows != k.NumRows(n) || y.Cols != RowSize(u, n) {
		panic("ttm: CSF TTMc output shape mismatch")
	}
	ln := k.x.Level(n)
	below := k.sweepUp(y, n, u, threads)
	if ln > 0 {
		k.emit(y, n, below, u, threads)
	}
}

// blockSizes returns bsz where bsz[l] is the dense block length of a
// level-l fiber during the mode-n upward sweep: the rank product of the
// modes at levels below l. Only levels >= Level(n) are populated.
func (k *CSFTTMc) blockSizes(n int, u []*dense.Matrix) []int {
	perm := k.x.Perm()
	ln := k.x.Level(n)
	bsz := make([]int, k.order)
	bsz[k.order-1] = 1
	for l := k.order - 2; l >= ln; l-- {
		bsz[l] = bsz[l+1] * u[perm[l+1]].Cols
	}
	return bsz
}

// sweepUp runs the bottom-up fiber contraction from the leaves to
// mode n's level and returns the level's blocks (bsz[ln] values per
// fiber). For the root mode the final level writes straight into y and
// the return value is nil.
func (k *CSFTTMc) sweepUp(y *dense.Matrix, n int, u []*dense.Matrix, threads int) []float64 {
	c := k.x
	perm := c.Perm()
	ln := c.Level(n)
	if ln == k.order-1 {
		return nil // leaf mode: the "below" blocks are the values
	}
	threads = par.DefaultThreads(threads)
	bsz := k.blockSizes(n, u)
	vals := c.Values()
	leafFids := c.Fids(k.order - 1)

	var cur []float64
	useA := true
	for l := k.order - 2; l >= ln; l-- {
		nf := c.NumFibers(l)
		outB := bsz[l]
		var dst []float64
		if l == 0 && ln == 0 {
			dst = y.Data
		} else if useA {
			k.blkA = ensureLen(k.blkA, nf*outB)
			dst = k.blkA
		} else {
			k.blkB = ensureLen(k.blkB, nf*outB)
			dst = k.blkB
		}
		useA = !useA

		mc := perm[l+1]
		rowsU := u[mc]
		ptr := c.ChildPtr(l)
		if l == k.order-2 {
			// Children are the nonzeros themselves.
			k.runLevel(l, nf, threads, func(w, lo, hi int) {
				for f := lo; f < hi; f++ {
					blk := dst[f*outB : (f+1)*outB]
					for i := range blk {
						blk[i] = 0
					}
					for p := ptr[f]; p < ptr[f+1]; p++ {
						dense.Axpy(vals[p], rowsU.Row(int(leafFids[p])), blk)
					}
				}
			})
		} else {
			// Insert mode mc's rank axis at its ascending-mode position
			// within the child block layout.
			aLen, bLen := 1, 1
			for _, m := range perm[l+2:] {
				if m < mc {
					aLen *= u[m].Cols
				} else {
					bLen *= u[m].Cols
				}
			}
			childB := bsz[l+1]
			fids1 := c.Fids(l + 1)
			prev := cur
			k.runLevel(l, nf, threads, func(w, lo, hi int) {
				for f := lo; f < hi; f++ {
					blk := dst[f*outB : (f+1)*outB]
					for i := range blk {
						blk[i] = 0
					}
					for ci := ptr[f]; ci < ptr[f+1]; ci++ {
						row := rowsU.Row(int(fids1[ci]))
						cblk := prev[int(ci)*childB : (int(ci)+1)*childB]
						for a := 0; a < aLen; a++ {
							sub := cblk[a*bLen : (a+1)*bLen]
							base := a * len(row) * bLen
							for r, rv := range row {
								if rv == 0 {
									continue
								}
								dense.Axpy(rv, sub, blk[base+r*bLen:base+(r+1)*bLen])
							}
						}
					}
				}
			})
		}
		k.flops += int64(c.NumFibers(l+1)) * int64(outB)
		cur = dst[:nf*outB]
	}
	if ln == 0 {
		return nil
	}
	return cur
}

// emit is the second phase for non-root modes: it combines each
// level-ln fiber's below block with the Kronecker product of its
// ancestors' factor rows and accumulates into the output row owned by
// the fiber's slice index.
func (k *CSFTTMc) emit(y *dense.Matrix, n int, below []float64, u []*dense.Matrix, threads int) {
	c := k.x
	perm := c.Perm()
	ln := c.Level(n)
	leafMode := ln == k.order-1
	belowB := 1
	if !leafMode {
		belowB = k.blockSizes(n, u)[ln]
	}
	vals := c.Values()

	// Output strides of every mode in the ascending, later-modes-
	// fastest row layout.
	stride := make([]int, k.order)
	s := 1
	for m := k.order - 1; m >= 0; m-- {
		if m == n {
			continue
		}
		stride[m] = s
		s *= u[m].Cols
	}
	// Offset tables mapping above/below block components to row
	// positions.
	posA := []int32{0}
	aboveSize := 1
	for _, la := range k.anc[n] {
		m := perm[la]
		r := u[m].Cols
		st := stride[m]
		next := make([]int32, len(posA)*r)
		for i, p := range posA {
			for q := 0; q < r; q++ {
				next[i*r+q] = p + int32(q*st)
			}
		}
		posA = next
		aboveSize *= r
	}
	var posB []int32
	belowContig := true
	if !leafMode {
		posB = []int32{0}
		belowModes := append([]int(nil), perm[ln+1:]...)
		for i := 1; i < len(belowModes); i++ {
			for j := i; j > 0 && belowModes[j] < belowModes[j-1]; j-- {
				belowModes[j], belowModes[j-1] = belowModes[j-1], belowModes[j]
			}
		}
		for _, m := range belowModes {
			r := u[m].Cols
			st := stride[m]
			next := make([]int32, len(posB)*r)
			for i, p := range posB {
				for q := 0; q < r; q++ {
					next[i*r+q] = p + int32(q*st)
				}
			}
			posB = next
		}
		for b, p := range posB {
			if int(p) != b {
				belowContig = false
				break
			}
		}
	}
	aboveContig := true
	for a, p := range posA {
		if int(p) != a {
			aboveContig = false
			break
		}
	}

	g := k.groups[n]
	nAnc := len(k.anc[n])
	nRows := g.NumGroups()
	threads = par.DefaultThreads(threads)
	type scratch struct {
		rows  [][]float64
		above []float64
	}
	scratches := make([]*scratch, threads)
	getScratch := func(w int) *scratch {
		sc := scratches[w]
		if sc == nil {
			sc = &scratch{rows: make([][]float64, nAnc), above: make([]float64, aboveSize)}
			scratches[w] = sc
		}
		return sc
	}
	doRow := func(sc *scratch, r int) {
		row := y.Row(r)
		for i := range row {
			row[i] = 0
		}
		for _, f := range g.Group(r) {
			leafPos := c.LeafStart(ln, int(f))
			for i, la := range k.anc[n] {
				af := c.FiberAt(la, leafPos)
				sc.rows[i] = u[perm[la]].Row(int(c.Fids(la)[af]))
			}
			KronRows(sc.rows, sc.above)
			if leafMode {
				v := vals[f]
				if aboveContig {
					dense.Axpy(v, sc.above, row)
				} else {
					for ai, av := range sc.above {
						row[posA[ai]] += v * av
					}
				}
				continue
			}
			blk := below[int(f)*belowB : (int(f)+1)*belowB]
			for ai, av := range sc.above {
				if av == 0 {
					continue
				}
				base := posA[ai]
				if belowContig {
					dense.Axpy(av, blk, row[base:int(base)+belowB])
				} else {
					for b, bv := range blk {
						row[base+posB[b]] += av * bv
					}
				}
			}
		}
	}
	if threads > 1 && nRows > 1 {
		// Emission rides the precomputed LPT row assignment: slice
		// fiber counts are the most skewed weights in the pipeline, so
		// contiguous chains can strand one worker with the hot slices.
		par.RunParts(k.partsFor(n, threads), func(w, item int) { doRow(getScratch(w), item) })
	} else {
		sc := getScratch(0)
		for r := 0; r < nRows; r++ {
			doRow(sc, r)
		}
	}
	k.flops += int64(k.x.NumFibers(ln)) * int64(aboveSize*belowB)
}

// ensureLen grows buf to at least n elements, reusing capacity.
func ensureLen(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
