package dense

// The axpy family — every hot loop of the shape y += c·x under TTMc,
// SYRK and GEMM — has two implementations: the Go loops in this file and,
// on amd64, AVX2 kernels in Go assembly (kernels_amd64.s). The assembly
// is UNFUSED: a VMULPD and then a VADDPD per update, never an FMA, so each
// element sees the same two roundings in the same order as the Go loop
// and the two paths agree bit for bit — including on ±0, ±Inf and NaN
// operands, because the assembly keeps each loop's zero-skip rule. (A NaN
// is a NaN on both paths; which payload survives when two different NaNs
// meet is the hardware's operand-order rule, which the compiler's
// register allocation decides per inlining site and no path ever fixed.)
//
// Two dispatch points, set once at start-up from CPUID + XGETBV on amd64
// and the constant false elsewhere and under the purego build tag: useAVX2
// for every kernel below, and useAVX512 (which requires useAVX2, AVX512F
// and the OS saving the opmask and ZMM state) for the Gram TRSVD's AᵀB
// tile at ZMM width. The wrappers keep every length check, take the
// assembly from one vector up (n >= 4) and fall through to the Go loop
// below that, where a call buys nothing. The Go loops are the portable build and the oracle
// of the differential tests (TestKernelsBitwise, FuzzKernelsBitwise).
//
// Two register tiles sit in front of the Axpy4 loops of the Gram TRSVD's
// block passes (tile.go): an AᵀB tile under SyrkInto and MatMulTAInto, and
// a narrow-GEMM tile under MatMulInto when B has at most twelve columns.
// Each has a YMM form (4x8 with a masked 4x4 tail; 4x12). Where useAVX512
// holds the AᵀB tile runs a ZMM form instead: 4x16 with an opmask tail of
// one to fifteen columns, SYRK's tiles starting at the diagonal. (ZMM
// narrow-GEMM tiles, 4x16 and 8x8, measured level end to end and were
// dropped; README "Kernels".) The ZMM tiles and the 4x12 tile prefetch
// the operand rows their next calls read, which on the Gram solver's tall
// shapes is worth more than the width (kernels_amd64.s); a prefetch
// changes no value. The tiles keep their destination in registers and
// give each element the operations of the Axpy4 calls they replace, in
// order, still unfused — the same bits at either width: the Go loops
// remain the definition (TestTilesBitwise, on every path the host has).
// Unfused is enough — the Axpy4 loops were
// bound by call overhead, one add chain and reloading the destination,
// not by the arithmetic ports (FMA in Axpy4/Ger measured flat), and the
// ZMM tiles gain by doing twice the lanes per instruction, not by fusing.
// A third, GatherGer, is the TTMc's run loop in one call — a flat row of
// order 3, or an entry of a dimension tree's root child that drops two
// modes: each run's accumulator stays in registers between its
// AxpyUnrolled terms and its Ger, in the order and with the zero skips of
// those calls (TestGatherGerBitwise). Where the factors leave L2 it waits
// on its rows, not on arithmetic, so it prefetches what the position
// GATHER_AHEAD ahead will read (kernels_amd64.s): that changes when a row
// arrives, never a value.
//
// The dot family (Dot, dot2, gemvRows) stays in Go: a single-chain sum
// cannot be vectorised along a row without re-associating it, which moves
// bits. Rows on lanes would keep them and was not taken: Gemv on
// delicious4's 13 MB Y already moves 14-19 GB/s on two threads against a
// 13-23 GB/s stream, and an eight-row scalar dot8 measured no faster than
// dot2.

// KernelName names the kernel path this process runs: "avx512" where the
// ZMM tiles run under the Gram TRSVD (the other kernels are AVX2 there
// too), "avx2", or "go".
func KernelName() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX2:
		return "avx2"
	}
	return "go"
}

// Axpy4 computes y += a0*x0 + a1*x1 + a2*x2 + a3*x3 with the four
// updates applied in order per element — for finite data, bitwise
// identical to four consecutive Axpy calls. The operands are four rows of
// one row-major array, as every tile that calls it has them: x_r is
// x[r*stride : r*stride+len(y)], so x must hold at least 3*stride+len(y)
// elements (more are ignored). Passing one slice and a stride instead of
// four slices keeps the whole call in registers, which is most of the
// cost at row lengths of 10-25. Unlike Axpy no zero coefficient is
// skipped, on either path, so a 0*Inf term yields NaN where Axpy's skip
// would not; that only matters on non-finite inputs and never depends on
// tile or thread boundaries. Keeping y[i] in a register across the four
// updates is what makes the four-row tiles pay: one load and one store
// per element instead of four of each. Runs the AVX2 kernel when the CPU
// has it and len(y) >= 4, Axpy4Go otherwise.
func Axpy4(a0, a1, a2, a3 float64, x []float64, stride int, y []float64) {
	n := len(y)
	if stride < 0 || len(x) < 3*stride+n {
		panic("dense: Axpy4 operand rows too short")
	}
	if useAVX2 && n >= 4 {
		axpy4AVX2(a0, a1, a2, a3, &x[0], stride, &y[0], n)
		return
	}
	Axpy4Go(a0, a1, a2, a3, x, stride, y)
}

// Axpy4Go is Axpy4's Go loop: the portable path and the oracle the AVX2
// kernel is held to.
func Axpy4Go(a0, a1, a2, a3 float64, x []float64, stride int, y []float64) {
	n := len(y)
	x0, x1, x2, x3 := x[:n], x[stride:stride+n], x[2*stride:2*stride+n], x[3*stride:3*stride+n]
	for i := 0; i < n; i++ {
		v := y[i]
		v += a0 * x0[i]
		v += a1 * x1[i]
		v += a2 * x2[i]
		v += a3 * x3[i]
		y[i] = v
	}
}

// Ger is the rank-one update of a len(c) x len(x) row-major block:
// y[p*n+q] += c[p]*x[q] with n = len(x), and len(y) must be len(c)*n.
// Rows with c[p] == 0 (either sign) are skipped on both paths, so an
// Inf or NaN in x does not reach them. It is the last step of the fused
// Kronecker accumulation of the per-nonzero TTMc loops and the block
// update of the dimension tree's inner nodes; taking the whole block per
// call is what lets the assembly pay at row lengths of 5-10. Runs the
// AVX2 kernel when the CPU has it and len(x) >= 4, GerGo otherwise.
func Ger(c, x, y []float64) {
	n := len(x)
	if len(y) != len(c)*n {
		panic("dense: Ger shape mismatch")
	}
	if useAVX2 && n >= 4 && len(c) > 0 {
		gerAVX2(&c[0], len(c), &x[0], n, &y[0])
		return
	}
	GerGo(c, x, y)
}

// GerGo is Ger's Go loop, two elements a step: the one-element loop is
// five instructions that the front end delivers in one cycle only if they
// sit in one 64-byte line, which the linker decides (the same source ran
// TTMc 22% slower when other packages' code size moved it by 32 bytes);
// two a step takes the front end off the critical path at either
// placement.
func GerGo(c, x, y []float64) {
	n := len(x)
	if len(y) != len(c)*n {
		panic("dense: Ger shape mismatch")
	}
	for p, cp := range c {
		if cp == 0 {
			continue
		}
		row := y[p*n : (p+1)*n]
		i := 0
		for ; i+2 <= n; i += 2 {
			row[i] += cp * x[i]
			row[i+1] += cp * x[i+1]
		}
		if i < n {
			row[i] += cp * x[i]
		}
	}
}

// gatherMaxCols is the widest factor row GatherGer keeps in registers:
// four YMM accumulators.
const gatherMaxCols = 16

// GatherGer is one row of the flat TTMc, or one entry of a dimension
// tree's root child that drops two modes, run by run. Neighbouring list
// positions with equal keys form a run; for each run, with
//
//	acc = Σ_p vals[ids[p]] · x.Row(cols[p])
//
// over its positions in order from +0, each term an Axpy (a zero value
// skipped), it adds l.Row(key) ⊗ acc to the l.Cols x x.Cols block y as Ger
// does, and it returns the number of runs. acc is the Go loops'
// accumulator, x.Cols long; what it holds afterwards is unspecified. On a
// CPU with AVX2 and x rows of 1 to 16 elements the row is one assembly
// call that keeps each run's acc in registers, where the loops make a call
// per entry and one per run and store and reload acc between them; each
// element still sees the loops' multiplies and adds in their order, so
// both paths give the same bits. A key, id or col out of range panics on
// either path, possibly after earlier runs were added to y.
//
// The assembly prefetches the value and both factor rows of the list
// position a fixed distance ahead of the one it computes, and that
// look-ahead runs on past len(keys) up to the capacity the three index
// slices share: given sub-slices of a mode's list-order streams, a short
// row prefetches the head of the next. An index past len(keys) only
// ever forms a prefetch address, which is neither checked nor loaded
// through, so what it holds can change neither the result nor whether
// the call panics (TestGatherLookAhead).
func GatherGer(keys []int32, l *Matrix, vals []float64, ids, cols []int32, x *Matrix, acc, y []float64) int {
	r, m := x.Cols, l.Cols
	if len(ids) != len(keys) || len(cols) != len(keys) || len(acc) != r || len(y) != m*r {
		panic("dense: GatherGer shape mismatch")
	}
	if useAVX2 && r >= 1 && r <= gatherMaxCols && m >= 1 && len(keys) > 0 &&
		len(x.Data) >= x.Rows*r && len(l.Data) >= l.Rows*m {
		lim := min(cap(keys), cap(ids), cap(cols))
		runs := gatherGerAVX2(&keys[0], &ids[0], &cols[0], len(keys), lim, &vals[0], len(vals),
			&x.Data[0], x.Rows, r, &l.Data[0], l.Rows, m, &y[0], &laneMask[3-(r-1)%4])
		if runs < 0 {
			panic("dense: GatherGer index out of range")
		}
		return runs
	}
	return gatherGerLoops(keys, l, vals, ids, cols, x, acc, y)
}

// gatherGerLoops is GatherGer's portable path, on the dispatching Axpy
// and Ger wrappers.
func gatherGerLoops(keys []int32, l *Matrix, vals []float64, ids, cols []int32, x *Matrix, acc, y []float64) int {
	runs := 0
	for p := 0; p < len(keys); runs++ {
		k := keys[p]
		clear(acc)
		for ; p < len(keys) && keys[p] == k; p++ {
			AxpyUnrolled(vals[ids[p]], x.Row(int(cols[p])), acc)
		}
		Ger(l.Row(int(k)), acc, y)
	}
	return runs
}
