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
// One dispatch point: useAVX2, set once at start-up from CPUID + XGETBV
// on amd64 and the constant false elsewhere and under the purego build
// tag. The wrappers keep every length check, take the assembly from one
// vector up (n >= 4) and fall through to the Go loop below that, where a
// call buys nothing. The Go loops are the portable build and the oracle
// of the differential tests (TestKernelsBitwise, FuzzKernelsBitwise).
//
// Two register tiles sit in front of the Axpy4 loops of the Gram TRSVD's
// block passes (tile.go): a 4x8 AᵀB tile under SyrkInto and MatMulTAInto,
// a four-row tile under MatMulInto when B has at most twelve columns. They
// keep their destination in YMM registers and give each element the
// operations of the Axpy4 calls they replace, in order, still unfused: the
// Go loops remain the definition (TestTilesBitwise). Unfused is enough —
// those loops were bound by call overhead, one add chain and reloading the
// destination, not by the arithmetic ports (FMA in Axpy4/Ger measured flat).
// A third, GatherGer, is the flat TTMc's row of order 3 in one call: each
// run's accumulator stays in registers between its AxpyUnrolled terms and
// its Ger, in the order and with the zero skips of those calls
// (TestGatherGerBitwise). A fourth, GatherOuter, is one entry of a
// dimension tree's root child in one call: the whole lead x trail block
// stays in registers across the entry's nonzeros, each adding its scaled
// lead row's Ger in order, with Ger's zero skip (TestGatherOuterBitwise).
// Where the factors leave L2 both gathers wait on their rows, not on
// arithmetic, so both prefetch what the position GATHER_AHEAD ahead will
// read (kernels_amd64.s): that changes when a row arrives, never a value.
//
// The dot family (Dot, dot2, gemvRows) stays in Go: a single-chain sum
// cannot be vectorised along a row without re-associating it, which moves
// bits. Rows on lanes would keep them and was not taken: Gemv on
// delicious4's 13 MB Y already moves 14-19 GB/s on two threads against a
// 13-23 GB/s stream, and an eight-row scalar dot8 measured no faster than
// dot2.

// KernelName names the axpy-family path this process runs: "avx2" or
// "go".
func KernelName() string {
	if useAVX2 {
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

// GatherGer is one row of the flat TTMc, run by run. Neighbouring list
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

// outerMaxVecs is the most YMM accumulators GatherOuter's assembly keeps
// a block in: twelve, leaving four for the value, the scaled lead
// element, the trail row's last vector and a product.
const outerMaxVecs = 12

// unitLead and unitOne are GatherOuter's unit lead row as the assembly
// reads it: every position's lead index 0, into a one-element row {1}.
var (
	unitLead = [1]int32{0}
	unitOne  = [1]float64{1}
)

// GatherOuter sets the block y to one entry of a dimension tree's root
// child: with l.Cols = m and x.Cols = r, for each list position p in order
//
//	c = vals[ids[p]] · l.Row(lead[p])
//	y[i*r+q] += c[i] · x.Row(trail[p])[q]   (i < m, q < r)
//
// from +0, a zero element of c (either sign) skipping its row: the fused
// two-row Kronecker accumulation of the TTMc loops — the scaled prefix
// row, then one Ger — once per position. With lead nil every lead row is
// the unit row {1} (m = 1) and l is not read. c is the Go loops' scaled
// lead row, m long; what it holds afterwards is unspecified.
// On a CPU with AVX2, x rows of 1 to 16 elements and m·⌈r/4⌉ <= 12 the
// entry is one assembly call that keeps the whole block in registers,
// where the loops make a Ger call per position and store and reload the
// block between them; each element still sees the loops' multiplies and
// adds in their order, so both paths give the same bits. A lead, id or
// trail index out of range panics on either path. The assembly looks
// ahead as GatherGer's does, up to the capacity that ids, trail and a
// non-nil lead share.
func GatherOuter(lead []int32, l *Matrix, vals []float64, ids, trail []int32, x *Matrix, c, y []float64) {
	r, m := x.Cols, 1
	if lead != nil {
		m = l.Cols
	}
	if (lead != nil && len(lead) != len(ids)) || len(trail) != len(ids) || len(c) != m || len(y) != m*r {
		panic("dense: GatherOuter shape mismatch")
	}
	if useAVX2 && r >= 1 && r <= gatherMaxCols && m >= 1 && m*((r+3)/4) <= outerMaxVecs && len(ids) > 0 &&
		len(x.Data) >= x.Rows*r && (lead == nil || len(l.Data) >= l.Rows*m) {
		lp, step, ld, lrows := &unitLead[0], 0, &unitOne[0], 1
		lim := min(cap(ids), cap(trail))
		if lead != nil {
			lp, step, ld, lrows = &lead[0], 4, &l.Data[0], l.Rows
			lim = min(lim, cap(lead))
		}
		if gatherOuterAVX2(lp, step, &ids[0], &trail[0], len(ids), lim, &vals[0], len(vals),
			&x.Data[0], x.Rows, r, ld, lrows, m, &y[0], &laneMask[3-(r-1)%4]) < 0 {
			panic("dense: GatherOuter index out of range")
		}
		return
	}
	gatherOuterLoops(lead, l, vals, ids, trail, x, c, y)
}

// gatherOuterLoops is GatherOuter's portable path, on the dispatching Ger.
func gatherOuterLoops(lead []int32, l *Matrix, vals []float64, ids, trail []int32, x *Matrix, c, y []float64) {
	clear(y)
	lrow := unitOne[:]
	for p, id := range ids {
		v := vals[id]
		if lead != nil {
			lrow = l.Row(int(lead[p]))
		}
		for i, e := range lrow {
			c[i] = v * e
		}
		Ger(c, x.Row(int(trail[p])), y)
	}
}
