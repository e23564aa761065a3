package dense

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The differential tests of the axpy family: the dispatching wrappers
// (the AVX2 assembly on a CPU that has it) against the Go loops, bit for
// bit. Under -tags purego, or off amd64, both sides are the Go loops and
// the tests hold trivially; what they then still check is the wrappers'
// length rules.

const (
	kernelGuard  = 4       // canary elements either side of every y
	kernelCanary = 1.5e300 // finite, so a stray += would change its bits
)

// sameFloat is bitwise equality, except that any NaN equals any NaN:
// which payload survives when two different NaNs meet is the hardware's
// operand-order rule, which no path fixes (see kernels.go).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// guarded returns a length-n slice filled from next that starts off
// elements into a canary-filled backing array, with at least kernelGuard
// canaries either side. An odd off puts the slice at an address that is
// not a multiple of 16 or 32 bytes.
func guarded(n, off int, next func() float64) (backing, v []float64) {
	backing = make([]float64, kernelGuard+off+n+kernelGuard)
	for i := range backing {
		backing[i] = kernelCanary
	}
	v = backing[kernelGuard+off : kernelGuard+off+n]
	for i := range v {
		v[i] = next()
	}
	return backing, v
}

// twin clones a guarded backing array and returns the clone with the
// slice at the same position.
func twin(backing []float64, n, off int) (backing2, v2 []float64) {
	backing2 = slices.Clone(backing)
	return backing2, backing2[kernelGuard+off : kernelGuard+off+n]
}

func compareBacking(t *testing.T, kernel string, got, want []float64, n, m, off int) {
	t.Helper()
	compareGuarded(t, fmt.Sprintf("%s n=%d m=%d off=%d", kernel, n, m, off), got, want, kernelGuard+off)
}

// compareGuarded holds two guarded arrays, canaries included, to the same
// bits; the data starts at element start.
func compareGuarded(t *testing.T, label string, got, want []float64, start int) {
	t.Helper()
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s: element %d of the guarded array (the data starts at %d) is %x on the dispatched path (%s), %x on the Go loop",
				label, i, start, math.Float64bits(got[i]), KernelName(), math.Float64bits(want[i]))
		}
	}
}

// saltedSource draws normal values with one in four replaced by a zero
// of either sign, an infinity, a NaN, a denormal or MaxFloat64.
func saltedSource(rng *rand.Rand) func() float64 {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xfff8000000000000), 5e-324, -2.5e-310, math.MaxFloat64}
	return func() float64 {
		if rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
}

// kernelCase holds the three kernels to their Go loops on one shape:
// vectors of n elements starting off elements into their arrays, an
// m-row block for Ger, every value drawn from next. The four x rows of
// Axpy4 are longer than y and n+3 apart.
func kernelCase(t *testing.T, n, m, off int, next func() float64) {
	t.Helper()
	var a [4]float64
	for i := range a {
		a[i] = next()
	}
	stride := n + 3 // rows a few elements longer than y, at odd strides too
	_, xs := guarded(3*stride+n+2, off+1, next)
	yb, y := guarded(n, off, next)
	yb2, y2 := twin(yb, n, off)
	Axpy4(a[0], a[1], a[2], a[3], xs, stride, y)
	Axpy4Go(a[0], a[1], a[2], a[3], xs, stride, y2)
	compareBacking(t, "Axpy4", yb, yb2, n, m, off)
	// AxpyUnrolled against Axpy and, where the wrapper does not return
	// early, against its own Go loop.
	x := xs[:n]
	for _, alpha := range []float64{a[0], 0, math.Copysign(0, -1)} {
		yb2, y2 = twin(yb, n, off)
		AxpyUnrolled(alpha, x, y2)
		yb3, y3 := twin(yb, n, off)
		Axpy(alpha, x, y3)
		compareBacking(t, "AxpyUnrolled vs Axpy", yb2, yb3, n, m, off)
		if alpha != 0 {
			yb3, y3 = twin(yb, n, off)
			axpyUnrolledGo(alpha, x, y3)
			compareBacking(t, "AxpyUnrolled", yb2, yb3, n, m, off)
		}
	}

	_, c := guarded(m, off+1, next)
	if m > 1 {
		c[m/2] = 0
		c[m-1] = math.Copysign(0, -1)
	}
	gb, g := guarded(m*n, off, next)
	gb2, g2 := twin(gb, m*n, off)
	Ger(c, x, g)
	GerGo(c, x, g2)
	compareBacking(t, "Ger", gb, gb2, n, m, off)
}

// guardedMatrix is guarded as a rows x cols matrix.
func guardedMatrix(rows, cols int, next func() float64) (backing []float64, m *Matrix) {
	backing, data := guarded(rows*cols, 1, next)
	return backing, &Matrix{Rows: rows, Cols: cols, Data: data}
}

// twinMatrix clones a guardedMatrix.
func twinMatrix(backing []float64, m *Matrix) (backing2 []float64, m2 *Matrix) {
	backing2, data := twin(backing, len(m.Data), 1)
	return backing2, &Matrix{Rows: m.Rows, Cols: m.Cols, Data: data}
}

// rowRanges are the [lo, hi) ranges a tile case runs on: the whole
// matrix, and a range that starts and ends off every multiple of four.
func rowRanges(rows int) [][2]int {
	if rows < 3 {
		return [][2]int{{0, rows}}
	}
	return [][2]int{{0, rows}, {1, rows - 1}}
}

// atbCase holds the AᵀB tiles to the Go loops on one shape: the block
// partial p += A[lo:hi]ᵀ·B[lo:hi] of MatMulTAInto for an ac-column A and a
// bc-column B, and — when the two widths agree — the upper-triangle
// partial of SyrkInto on A, whose destination holds NaN below the
// diagonal on entry (the tile may write there, nothing may come out of
// it). With zeroTail set the rows past the last whole four hold zeros of
// both signs among infinities: the Axpy loop that takes them skips the
// zero coefficients, a tile that reached them would turn each into a NaN.
func atbCase(t *testing.T, rows, ac, bc int, zeroTail bool, next func() float64) {
	t.Helper()
	_, a := guardedMatrix(rows, ac, next)
	_, b := guardedMatrix(rows, bc, next)
	for _, r := range rowRanges(rows) {
		lo, hi := r[0], r[1]
		if zeroTail {
			for i := lo + (hi-lo)&^3; i < hi; i++ {
				for j := range a.Row(i) {
					a.Row(i)[j] = []float64{0, math.Inf(1), math.Copysign(0, -1), math.Inf(-1)}[j&3]
				}
				for k := range b.Row(i) {
					b.Row(i)[k] = math.Inf(1 - 2*(k&1))
				}
			}
		}
		pb, p := guardedMatrix(ac, bc, next)
		pb2, p2 := twinMatrix(pb, p)
		matMulTABlock(p.Data, a, b, lo, hi)
		matMulTABlockGo(p2.Data, a, b, lo, hi)
		compareGuarded(t, fmt.Sprintf("matMulTABlock %dx%d rows [%d, %d) of %d", ac, bc, lo, hi, rows), pb, pb2, kernelGuard+1)
		if ac != bc {
			continue
		}
		sb, sp := guardedMatrix(ac, ac, next)
		sb2, sp2 := twinMatrix(sb, sp)
		for j := 0; j < ac; j++ {
			for k := 0; k < j; k++ {
				sp.Data[j*ac+k] = math.NaN()
			}
		}
		syrkBlock(sp.Data, a, lo, hi)
		syrkBlockGo(sp2.Data, a, lo, hi)
		for j := 0; j < ac; j++ {
			copy(sp.Row(j)[:j], sp2.Row(j)[:j]) // below the diagonal: unspecified
		}
		compareGuarded(t, fmt.Sprintf("syrkBlock %dx%d rows [%d, %d) of %d", ac, ac, lo, hi, rows), sb, sb2, kernelGuard+1)
	}
}

// gemmCase holds the narrow-GEMM tile to the Go loop on one shape:
// C[lo:hi] = A[lo:hi]·B for a rows x kdim A and a kdim x bc B, into a C
// that holds anything (both overwrite their rows and touch no other).
func gemmCase(t *testing.T, rows, kdim, bc int, next func() float64) {
	t.Helper()
	_, a := guardedMatrix(rows, kdim, next)
	_, b := guardedMatrix(kdim, bc, next)
	if kdim%4 != 0 && kdim > 1 && rows > 0 {
		// A zero against an infinity among the k%4 last terms, which
		// the zero-skipping Axpy takes on both paths.
		a.Row(rows - 1)[kdim-1] = 0
		b.Row(kdim - 1)[0] = math.Inf(1)
	}
	for _, r := range rowRanges(rows) {
		cb, c := guardedMatrix(rows, bc, next)
		cb2, c2 := twinMatrix(cb, c)
		matMulRows(c, a, b, r[0], r[1])
		matMulRowsGo(c2, a, b, r[0], r[1])
		compareGuarded(t, fmt.Sprintf("matMulRows %dx%dx%d rows [%d, %d)", rows, kdim, bc, r[0], r[1]), cb, cb2, kernelGuard+1)
	}
}

// gatherGerGo is GatherGer's definition: one flat TTMc row on the Go
// loops, per run an Axpy per entry into a zeroed accumulator, then GerGo.
func gatherGerGo(keys []int32, l *Matrix, vals []float64, ids, cols []int32, x *Matrix, acc, y []float64) int {
	runs := 0
	for p := 0; p < len(keys); runs++ {
		k := keys[p]
		clear(acc)
		for ; p < len(keys) && keys[p] == k; p++ {
			Axpy(vals[ids[p]], x.Row(int(cols[p])), acc)
		}
		GerGo(l.Row(int(k)), acc, y)
	}
	return runs
}

// gatherCase holds GatherGer to its Go loops on one shape: a row of n list
// positions in runs of about three, over the rows of an r-column factor
// (its last row always among them, where a tail load would run off the
// data) and of an m-column lead factor, into a guarded block, every value
// from next. A key may come back after another run. Where the shape
// allows, one entry's value is a zero and two lead elements are ±0. A
// non-nil frame places each index array the way the caller's streams hold
// it (streamIn).
func gatherCase(t *testing.T, r, m, n int, next func() float64, frame func([]int32) []int32) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(1000*r + 100*m + n)))
	_, x := guardedMatrix(5, r, next)
	_, l := guardedMatrix(4, m, next)
	if m > 1 {
		l.Row(0)[0], l.Row(3)[m-1] = 0, math.Copysign(0, -1)
	}
	vals := make([]float64, n+3)
	for i := range vals {
		vals[i] = next()
	}
	keys, ids, cols := make([]int32, n), make([]int32, n), make([]int32, n)
	for p := range keys {
		keys[p] = int32(rng.Intn(l.Rows))
		if p > 0 && rng.Intn(3) > 0 {
			keys[p] = keys[p-1]
		}
		ids[p], cols[p] = int32(rng.Intn(len(vals))), int32(rng.Intn(x.Rows))
	}
	cols[n-1] = int32(x.Rows - 1)
	if n > 1 {
		vals[ids[n/2]] = math.Copysign(0, float64(n&1)-0.5)
	}
	if frame != nil {
		keys, ids, cols = frame(keys), frame(ids), frame(cols)
	}
	yb, y := guarded(m*r, 1, next)
	yb2, y2 := twin(yb, m*r, 1)
	label := fmt.Sprintf("GatherGer r=%d m=%d n=%d", r, m, n)
	runs := GatherGer(keys, l, vals, ids, cols, x, make([]float64, r), y)
	if want := gatherGerGo(keys, l, vals, ids, cols, x, make([]float64, r), y2); runs != want {
		t.Fatalf("%s: %d runs on the dispatched path (%s), %d on the Go loops", label, runs, KernelName(), want)
	}
	compareGuarded(t, label, yb, yb2, kernelGuard+1)
}

// TestGatherGerBitwise: every factor row width through 20 (each register
// count, each masked tail, and past the widest the registers hold), lead
// rows of 1 to 10 and rows of 1 to 40 list positions, on finite and
// salted data.
func TestGatherGerBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	finite := rng.NormFloat64
	salted := saltedSource(rng)
	for r := 1; r <= 20; r++ {
		for _, m := range []int{1, 2, 5, 10} {
			for _, n := range []int{1, 2, 3, 7, 40} {
				gatherCase(t, r, m, n, finite, nil)
				gatherCase(t, r, m, n, salted, nil)
			}
		}
	}
}

// A key, id or col out of range panics on both paths, a col under a zero
// value included, and so do mismatched lengths: the assembly reads
// through no index it has not checked.
func TestGatherGerPanicsOnBadIndices(t *testing.T) {
	for _, r := range []int{3, 10, 20} {
		x, l, vals := NewMatrix(3, r), NewMatrix(2, 2), []float64{1, 2}
		for _, c := range []struct {
			name             string
			keys, ids, cols  []int32
			accLen, blockLen int
		}{
			{"key past the lead rows", []int32{0, 2}, []int32{0, 1}, []int32{0, 1}, r, 2 * r},
			{"negative key", []int32{-1}, []int32{0}, []int32{0}, r, 2 * r},
			{"id past the values", []int32{0, 0}, []int32{0, 2}, []int32{0, 1}, r, 2 * r},
			{"negative id", []int32{0}, []int32{-1}, []int32{0}, r, 2 * r},
			{"col past the rows", []int32{0, 1}, []int32{0, 1}, []int32{1, 3}, r, 2 * r},
			{"negative col", []int32{1}, []int32{0}, []int32{-1}, r, 2 * r},
			{"col past the rows under a zero value", []int32{0, 0}, []int32{0, 1}, []int32{0, 5}, r, 2 * r},
			{"fewer ids than keys", []int32{0, 0}, []int32{0}, []int32{0, 1}, r, 2 * r},
			{"fewer cols than keys", []int32{0, 0}, []int32{0, 1}, []int32{0}, r, 2 * r},
			{"short accumulator", []int32{0}, []int32{0}, []int32{0}, r - 1, 2 * r},
			{"short block", []int32{0}, []int32{0}, []int32{0}, r, 2*r - 1},
		} {
			v := slices.Clone(vals)
			if c.name == "col past the rows under a zero value" {
				v[1] = 0
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("r=%d %s: no panic", r, c.name)
					}
				}()
				GatherGer(c.keys, l, v, c.ids, c.cols, x, make([]float64, c.accLen), make([]float64, c.blockLen))
			}()
		}
	}
}

// gatherOuterGo is GatherOuter's definition: a zeroed block, then per list
// position the scaled lead row and one GerGo.
func gatherOuterGo(lead []int32, l *Matrix, vals []float64, ids, trail []int32, x *Matrix, y []float64) {
	clear(y)
	for p, id := range ids {
		lrow := []float64{1}
		if lead != nil {
			lrow = l.Row(int(lead[p]))
		}
		c := make([]float64, len(lrow))
		for i, e := range lrow {
			c[i] = vals[id] * e
		}
		GerGo(c, x.Row(int(trail[p])), y)
	}
}

// outerCase holds GatherOuter to its definition on one shape: n list
// positions over the rows of an r-column trail factor (its last row always
// among them, where a tail load would run off the data) and of an m-column
// lead factor — the unit row when unit — into a guarded block that starts
// out holding values the kernel must overwrite, every value from next.
// Where the shape allows, one position's value is a zero and two lead and
// two trail elements are ±0. A non-nil frame places each index array as
// gatherCase's does.
func outerCase(t *testing.T, r, m, n int, unit bool, next func() float64, frame func([]int32) []int32) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(1000*r + 100*m + n)))
	_, x := guardedMatrix(5, r, next)
	x.Row(1)[0], x.Row(2)[r-1] = 0, math.Copysign(0, -1)
	_, l := guardedMatrix(4, m, next)
	if m > 1 {
		l.Row(0)[0], l.Row(3)[m-1] = 0, math.Copysign(0, -1)
	}
	vals := make([]float64, n+3)
	for i := range vals {
		vals[i] = next()
	}
	lead, ids, trail := make([]int32, n), make([]int32, n), make([]int32, n)
	for p := range ids {
		lead[p], ids[p], trail[p] = int32(rng.Intn(l.Rows)), int32(rng.Intn(len(vals))), int32(rng.Intn(x.Rows))
	}
	if n > 0 {
		trail[n-1] = int32(x.Rows - 1)
	}
	if n > 1 {
		vals[ids[n/2]] = math.Copysign(0, float64(n&1)-0.5)
	}
	if frame != nil {
		lead, ids, trail = frame(lead), frame(ids), frame(trail)
	}
	label := fmt.Sprintf("GatherOuter r=%d m=%d n=%d", r, m, n)
	if unit {
		lead, l, label = nil, nil, fmt.Sprintf("GatherOuter r=%d unit n=%d", r, n)
		m = 1
	}
	yb, y := guarded(m*r, 1, next)
	yb2, y2 := twin(yb, m*r, 1)
	GatherOuter(lead, l, vals, ids, trail, x, make([]float64, m), y)
	gatherOuterGo(lead, l, vals, ids, trail, x, y2)
	compareGuarded(t, label, yb, yb2, kernelGuard+1)
}

// TestGatherOuterBitwise: lead rows of 1 (the unit row and a real one), 2,
// 5, 8 and 10 elements against every trail row width through 20 (each
// vector count, each masked tail, and past the widest the registers
// hold), the blocks either side of the twelve-register boundary, and 0 to
// 40 list positions, on finite and salted data.
func TestGatherOuterBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	finite := rng.NormFloat64
	salted := saltedSource(rng)
	type shape struct {
		r, m int
		unit bool
	}
	var shapes []shape
	for r := 1; r <= 20; r++ {
		shapes = append(shapes, shape{r, 1, true})
		for _, m := range []int{1, 2, 5, 8, 10} {
			shapes = append(shapes, shape{r, m, false})
		}
	}
	// m·⌈r/4⌉ at 12 and just past it, for each vector count.
	for _, s := range [][2]int{{4, 12}, {4, 13}, {8, 6}, {8, 7}, {12, 4}, {9, 5}, {16, 3}, {13, 4}} {
		shapes = append(shapes, shape{s[0], s[1], false})
	}
	for _, s := range shapes {
		for _, n := range []int{0, 1, 2, 3, 7, 40} {
			outerCase(t, s.r, s.m, n, s.unit, finite, nil)
			outerCase(t, s.r, s.m, n, s.unit, salted, nil)
		}
	}
}

// A lead, id or trail index out of range panics on both paths, a trail
// index under a zero value included, and so do mismatched lengths: the
// assembly reads through no index it has not checked.
func TestGatherOuterPanicsOnBadIndices(t *testing.T) {
	for _, r := range []int{3, 10, 20} {
		x, l, vals := NewMatrix(3, r), NewMatrix(2, 2), []float64{1, 2}
		for _, c := range []struct {
			name                 string
			lead, ids, trail     []int32
			unit                 bool
			scratchLen, blockLen int
		}{
			{"lead past the rows", []int32{0, 2}, []int32{0, 1}, []int32{0, 1}, false, 2, 2 * r},
			{"negative lead", []int32{-1}, []int32{0}, []int32{0}, false, 2, 2 * r},
			{"id past the values", []int32{0, 0}, []int32{0, 2}, []int32{0, 1}, false, 2, 2 * r},
			{"negative id", []int32{0}, []int32{-1}, []int32{0}, false, 2, 2 * r},
			{"negative id on the unit row", nil, []int32{-1}, []int32{0}, true, 1, r},
			{"trail past the rows", []int32{0, 1}, []int32{0, 1}, []int32{1, 3}, false, 2, 2 * r},
			{"negative trail", []int32{1}, []int32{0}, []int32{-1}, false, 2, 2 * r},
			{"trail past the rows on the unit row", nil, []int32{0, 1}, []int32{0, 3}, true, 1, r},
			{"trail past the rows under a zero value", []int32{0, 0}, []int32{0, 1}, []int32{0, 5}, false, 2, 2 * r},
			{"fewer leads than ids", []int32{0}, []int32{0, 1}, []int32{0, 1}, false, 2, 2 * r},
			{"fewer trails than ids", []int32{0, 0}, []int32{0, 1}, []int32{0}, false, 2, 2 * r},
			{"short scratch", []int32{0}, []int32{0}, []int32{0}, false, 1, 2 * r},
			{"short block", []int32{0}, []int32{0}, []int32{0}, false, 2, 2*r - 1},
			{"unit block of two rows", nil, []int32{0}, []int32{0}, true, 1, 2 * r},
		} {
			v := slices.Clone(vals)
			if c.name == "trail past the rows under a zero value" {
				v[1] = 0
			}
			lm := l
			if c.unit {
				lm = nil
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("r=%d %s: no panic", r, c.name)
					}
				}()
				GatherOuter(c.lead, lm, v, c.ids, c.trail, x, make([]float64, c.scratchLen), make([]float64, c.blockLen))
			}()
		}
	}
}

// streamIn returns s inside a longer stream array, as a row's positions
// sit inside a mode's list: after a few positions and, when junk, before
// 64 more whose indices are out of every range (negative, the int32
// extremes, huge), or with its capacity ending at its last position. The
// gather kernels' look-ahead reads the index arrays up to their capacity
// and only ever prefetches through what it reads there.
func streamIn(s []int32, junk bool) []int32 {
	const before, after = 3, 64
	bad := [...]int32{-1, math.MaxInt32, math.MinInt32, 1 << 24, 1<<31 - 64}
	buf := make([]int32, before+len(s)+after)
	for i := range buf {
		buf[i] = bad[i%len(bad)]
	}
	copy(buf[before:], s)
	end := before + len(s)
	if junk {
		return buf[before:end]
	}
	return buf[before:end:end]
}

// TestGatherLookAhead: GatherGer and GatherOuter give their Go loops' bits
// and do not panic whether the stream arrays end at the row's last
// position or run on into positions whose indices are out of range — the
// look-ahead only prefetches through them. Every register width, rows
// shorter and longer than the look-ahead, real and unit lead rows.
func TestGatherLookAhead(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, junk := range []bool{false, true} {
		t.Run(fmt.Sprintf("junk=%v", junk), func(t *testing.T) {
			frame := func(s []int32) []int32 { return streamIn(s, junk) }
			for r := 1; r <= 16; r++ {
				for _, n := range []int{1, 5, 40} {
					gatherCase(t, r, 3, n, rng.NormFloat64, frame)
					outerCase(t, r, 3, n, false, rng.NormFloat64, frame)
					outerCase(t, r, 1, n, true, rng.NormFloat64, frame)
				}
			}
		})
	}
}

// onEachPath runs f as a subtest on every kernel path this host has,
// the Go loops included, and logs which ran.
func onEachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	var ran []string
	for _, p := range KernelPaths() {
		func() {
			defer UseKernelPath(p)()
			t.Run(p, f)
		}()
		ran = append(ran, p)
	}
	t.Logf("kernel paths run: %s", strings.Join(ran, ", "))
	if !slices.Contains(ran, "avx512") {
		t.Logf("no AVX-512 here (%s): the ZMM tiles did not run", cpuFeatures())
	}
}

// TestKernelPath logs the path a plain run takes and the CPU bits it was
// chosen from, so that a CI log shows whether the runner had the ZMM
// tiles. The path is the last, widest one the host has.
func TestKernelPath(t *testing.T) {
	paths := KernelPaths()
	t.Logf("kernels: %s; %s", KernelName(), cpuFeatures())
	if want := paths[len(paths)-1]; KernelName() != want {
		t.Fatalf("KernelName() = %q, want %q, the widest path this host has", KernelName(), want)
	}
}

// The shapes of TestTilesBitwise: every column count through 20 (below
// one tile, every masked tail, a tile and a half), then widths that leave
// 1, 3, 4 and 5 columns past the last whole eight and none, one to eight
// and nine to fifteen past the last whole sixteen (24, 31 to 33, 100,
// 125); row counts with every remainder of four, one strip, and several
// strips with a short last one.
var (
	tileCols = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 24, 31, 32, 33, 67, 100, 125}
	tileRows = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 130, 701}
)

// TestTilesBitwise: the Go loops are the definition of SYRK, AᵀB and the
// narrow GEMM, and the register tiles equal them bit for bit — on finite
// data and on data salted with zeros of both signs, infinities, NaNs and
// denormals — on every path the host has. On the Go loops, and under
// -tags purego, both sides are the Go loops.
func TestTilesBitwise(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		finite := rng.NormFloat64
		salted := saltedSource(rng)
		for _, rows := range tileRows {
			for _, cols := range tileCols {
				if rows > 200 && cols < 100 && cols > 20 {
					continue // the long shapes at the Gram solver's widths only
				}
				atbCase(t, rows, cols, cols, false, finite)
				atbCase(t, rows, cols, cols, true, salted)
				atbCase(t, rows, cols, 10, true, finite) // a tall operand against a factor, both ways round
				atbCase(t, rows, 10, cols, false, salted)
				for bc := 1; bc <= gemmNarrow+1; bc++ {
					if rows > 200 && bc != 5 && bc != 10 {
						continue
					}
					gemmCase(t, rows, cols, bc, finite)
					gemmCase(t, rows, cols, bc, salted)
				}
			}
		}
	})
}

// The tiles under the three entry points keep the thread-count contract:
// the same bits at every T and on every path the host has (the first
// path's T = 1 result is the reference), at shapes where every tile kind
// runs (whole tiles, masked tails, Axpy4 rows, strips, a backed-up last
// GEMM call on B of ten and of five columns).
func TestTilesBitwiseInvariantAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := RandomNormal(1301, 102, rng)
	f := RandomNormal(1301, 10, rng)
	v := RandomNormal(102, 10, rng)
	v5 := RandomNormal(102, 5, rng)
	var refSyrk, refTA, refMM, refMM5 []byte
	var refPath string
	onEachPath(t, func(t *testing.T) {
		var work []float64
		for _, threads := range []int{1, 2, 4, 8} {
			g := NewMatrix(102, 102)
			work = SyrkInto(g, a, work, threads)
			ta := NewMatrix(10, 102)
			MatMulTAInto(ta, f, a, threads)
			mm := NewMatrix(1301, 10)
			MatMulInto(mm, a, v, threads)
			mm5 := NewMatrix(1301, 5)
			MatMulInto(mm5, a, v5, threads)
			if refSyrk == nil {
				refSyrk, refTA, refMM, refMM5 = bits(g.Data), bits(ta.Data), bits(mm.Data), bits(mm5.Data)
				refPath = KernelName()
				continue
			}
			for _, c := range []struct {
				name      string
				got, want []byte
			}{
				{"SyrkInto", bits(g.Data), refSyrk},
				{"MatMulTAInto", bits(ta.Data), refTA},
				{"MatMulInto 102->10", bits(mm.Data), refMM},
				{"MatMulInto 102->5", bits(mm5.Data), refMM5},
			} {
				if !bytes.Equal(c.got, c.want) {
					t.Fatalf("%s on %s at %d threads differs from %s at 1 thread", c.name, KernelName(), threads, refPath)
				}
			}
		}
	})
}

// SyrkInto's result is exactly symmetric and does not depend on what the
// partial buffer it is handed held: the tiles that straddle the diagonal
// write below it, and only the mirror of the upper triangle may come out.
func TestSyrkSymmetricWhateverTheWorkBufferHeld(t *testing.T) {
	onEachPath(t, testSyrkSymmetric)
}

func testSyrkSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, shape := range [][2]int{{40, 12}, {701, 20}, {2051, 100}} {
		a := RandomNormal(shape[0], shape[1], rng)
		n := a.Cols
		for _, threads := range []int{1, 2} {
			ref := NewMatrix(n, n)
			SyrkInto(ref, a, nil, threads)
			work := make([]float64, 40*n*n)
			for i := range work {
				work[i] = math.NaN()
			}
			g := NewMatrix(n, n)
			for i := range g.Data {
				g.Data[i] = math.Inf(1)
			}
			SyrkInto(g, a, work, threads)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if math.Float64bits(g.At(i, j)) != math.Float64bits(g.At(j, i)) {
						t.Fatalf("%dx%d threads=%d: G(%d,%d) = %v but G(%d,%d) = %v", shape[0], n, threads, i, j, g.At(i, j), j, i, g.At(j, i))
					}
					if math.Float64bits(g.At(i, j)) != math.Float64bits(ref.At(i, j)) {
						t.Fatalf("%dx%d threads=%d: G(%d,%d) = %v with a dirty work buffer, %v with a fresh one", shape[0], n, threads, i, j, g.At(i, j), ref.At(i, j))
					}
				}
			}
		}
	}
}

// TestKernelsBitwise: every length from 0 through 67 (below one vector,
// every tail after whole vectors, past the widest unrolling), slices at
// even and odd element offsets, finite data and data salted with zeros
// of both signs, infinities, NaNs and denormals.
func TestKernelsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	finite := rng.NormFloat64
	salted := saltedSource(rng)
	for n := 0; n <= 67; n++ {
		for _, off := range []int{0, 1, 3} {
			for _, m := range []int{0, 1, 2, 5} {
				kernelCase(t, n, m, off, finite)
				kernelCase(t, n, m, off, salted)
			}
		}
	}
}

// A zero coefficient must shield y from an Inf or NaN in x where the Go
// loop's rule says so (Ger rows, Axpy), and must not where it does not
// (Axpy4) — on both paths.
func TestKernelZeroSkipRules(t *testing.T) {
	inf := make([]float64, 8)
	for i := range inf {
		inf[i] = math.Inf(1)
	}
	for _, zero := range []float64{0, math.Copysign(0, -1)} {
		y := make([]float64, 16)
		Ger([]float64{zero, zero}, inf, y)
		AxpyUnrolled(zero, inf, y[:8])
		for i, v := range y {
			if math.Float64bits(v) != 0 {
				t.Fatalf("zero coefficient %v let x through: y[%d] = %v", zero, i, v)
			}
		}
		Axpy4(zero, zero, zero, zero, inf, 0, y[:8])
		for i, v := range y[:8] {
			if v == v {
				t.Fatalf("Axpy4 skipped a zero coefficient: y[%d] = %v, want NaN", i, v)
			}
		}
	}
	// A NaN coefficient is not a zero.
	y := make([]float64, 8)
	Ger([]float64{math.NaN()}, make([]float64, 8), y)
	for i, v := range y {
		if v == v {
			t.Fatalf("Ger skipped a NaN coefficient: y[%d] = %v", i, v)
		}
	}
}

// A zeroed C row is +0, and +0 plus a product that is -0 is +0: a tile
// that started its accumulators from the first product instead would
// hand back -0 here.
func TestNarrowGemmStartsFromPlusZero(t *testing.T) {
	a, b := NewMatrix(8, 8), NewMatrix(8, 5)
	for i := range b.Data {
		b.Data[i] = -1
	}
	c, want := NewMatrix(8, 5), NewMatrix(8, 5)
	c.Data[3], want.Data[3] = 7, 7 // overwritten, not added to
	matMulRows(c, a, b, 0, 8)
	matMulRowsGo(want, a, b, 0, 8)
	for i, v := range c.Data {
		if math.Float64bits(v) != 0 || math.Float64bits(want.Data[i]) != 0 {
			t.Fatalf("C[%d] = %x on the dispatched path (%s), %x on the Go loop, want +0 on both",
				i, math.Float64bits(v), KernelName(), math.Float64bits(want.Data[i]))
		}
	}
}

// The wrappers keep the Go loops' length rules: the assembly has no
// bounds checks of its own.
func TestKernelWrappersPanicOnBadLengths(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	long, y := make([]float64, 12), make([]float64, 12)
	short := make([]float64, 12)[:11:11]
	rows := make([]float64, 3*20+12)
	mustPanic("Axpy4 with a short last row", func() { Axpy4(1, 1, 1, 1, rows[:3*20+11], 20, y) })
	mustPanic("Axpy4 with a negative stride", func() { Axpy4(1, 1, 1, 1, rows, -1, y) })
	Axpy4(1, 1, 1, 1, rows, 20, y) // exactly long enough
	mustPanic("AxpyUnrolled with a short x", func() { AxpyUnrolled(1, short, y) })
	mustPanic("AxpyUnrolled with a long x", func() { AxpyUnrolled(1, long, y[:11]) })
	mustPanic("Ger with a short y", func() { Ger(long[:3], long[:4], y[:11]) })
	mustPanic("Ger with a long y", func() { Ger(long[:2], long[:5], y[:11]) })
	mustPanic("GerGo with a short y", func() { GerGo(long[:3], long[:4], y[:11]) })
}

func TestKernelsDoNotAllocate(t *testing.T) {
	x := make([]float64, 40)
	y := make([]float64, 40)
	c := []float64{1, 2, 3, 4}
	a, b, u := NewMatrix(50, 13), NewMatrix(13, 10), NewMatrix(50, 10)
	p := make([]float64, 13*13)
	matMulRows(u, a, b, 0, 50) // warms the pack panel's pool entry
	keys, ids, cols, acc, l := []int32{0, 0, 1}, []int32{0, 3, 1}, []int32{2, 2, 40}, make([]float64, 10), NewMatrix(2, 4)
	if n := testing.AllocsPerRun(100, func() {
		GatherGer(keys, l, x, ids, cols, u, acc, y)
		GatherOuter(keys, l, x, ids, cols, u, acc[:4], y[:40])
		GatherOuter(nil, nil, x, ids, cols, u, acc[:1], y[:10])
		Axpy4(1, 2, 3, 4, x, 0, y)
		AxpyUnrolled(2, x, y)
		Ger(c, x[:10], y)
		syrkBlock(p, a, 0, 50)
		matMulTABlock(p[:130], a, u, 0, 50)
		matMulRows(u, a, b, 0, 50)
	}); n != 0 {
		t.Fatalf("%v allocations per run, want 0", n)
	}

	// The entry points, above serialCutoff so two threads run the
	// parallel paths, hold their partials and region bodies in pools.
	if raceBuild {
		t.Skip("the race detector makes sync.Pool drop puts at random")
	}
	rng := rand.New(rand.NewSource(4))
	big, tall, narrow := RandomNormal(400, 100, rng), RandomNormal(400, 10, rng), RandomNormal(100, 10, rng)
	xr, yc := make([]float64, 400), make([]float64, 100)
	g, ct, cm := NewMatrix(100, 100), NewMatrix(100, 10), NewMatrix(400, 10)
	ka, kk, kfull := kronCases[len(kronCases)-1].build(rng) // several groups' reduce blocks
	kw, ky := NewMatrix(kfull.Rows, 10), RandomNormal(kfull.Rows, 10, rng)
	kz := NewMatrix(kfull.Cols, 10)
	for _, threads := range []int{1, 2} {
		var work, kwork []float64
		run := func() {
			GemvT(big, xr, yc, threads)
			MatMulTAInto(ct, big, tall, threads)
			work = SyrkInto(g, big, work, threads)
			kwork = SyrkKronInto(g, ka, kk, kwork, threads)
			KronMatMulInto(kw, ka, kk, narrow, threads)
			KronMatMulTAInto(kz, ka, kk, ky, threads)
			MatMulInto(cm, big, narrow, threads)
		}
		run() // grows work and warms the pools
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Fatalf("threads=%d: the entry points make %v allocations per run, want 0", threads, n)
		}

		// The Kron kernels keep their state in the rows, which no
		// collection drops: two empty every sync.Pool, and once the same
		// calls on nil rows have refilled dense's and par's shared pools,
		// the split calls allocate nothing. The nil calls run twice: the
		// scratch pool hands its buffers out in turn, and the second round
		// grows each to the largest size any of the calls takes. All run
		// on one P, so that every Put and Get meets the same per-P cache.
		var allocs uint64
		procs := runtime.GOMAXPROCS(1)
		for range 5 {
			runtime.GC()
			runtime.GC()
			for range 2 {
				kwork = SyrkKronInto(g, kfull, nil, kwork, threads)
				KronMatMulInto(kw, kfull, nil, narrow, threads)
				KronMatMulTAInto(kz, kfull, nil, ky, threads)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			kwork = SyrkKronInto(g, ka, kk, kwork, threads)
			KronMatMulInto(kw, ka, kk, narrow, threads)
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
		}
		runtime.GOMAXPROCS(procs)
		if allocs != 0 {
			t.Fatalf("threads=%d: after two collections SyrkKronInto and KronMatMulInto make %d allocations in five calls, want 0", threads, allocs)
		}
	}
}

// FuzzKernelsBitwise drives kernelCase and the tile cases from fuzzed
// shapes and values:
// each value is a selector byte (zeros, infinities, NaN, a denormal, raw
// bits, or a small dyadic number) and its payload, read round and round
// the input.
func FuzzKernelsBitwise(f *testing.F) {
	f.Add(uint8(10), uint8(10), uint8(1), []byte{7, 3, 9, 200, 2, 0, 1, 1})
	f.Add(uint8(67), uint8(2), uint8(3), []byte{4, 0, 2, 0, 0, 0, 6, 1, 2, 3, 4, 5, 6, 7, 0xf0, 0x7f})
	f.Add(uint8(5), uint8(5), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, n, m, off uint8, data []byte) {
		pos := 0
		nextByte := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		next := func() float64 {
			switch sel := nextByte(); sel % 8 {
			case 0:
				return math.Copysign(0, float64(int8(nextByte())))
			case 1:
				return math.Inf(int(int8(nextByte())))
			case 2:
				return math.NaN()
			case 3:
				return float64(nextByte()) * 5e-324
			case 4:
				var bits uint64
				for i := 0; i < 8; i++ {
					bits = bits<<8 | uint64(nextByte())
				}
				return math.Float64frombits(bits)
			default:
				return float64(int8(nextByte())) / 16
			}
		}
		kernelCase(t, int(n%68), int(m%12), int(off%4), next)
		// The same three bytes shape the tiles, on every path the host
		// has: up to 67 rows, operand widths through 33 (a whole
		// sixteen-lane tile and a tail of any width in both), the tail
		// rows zeroed on odd off. The narrow GEMM takes B through 13
		// columns, one past the widest its tiles take.
		rows, ac, bc := int(n%68), 1+int(m%33), 1+int(off%33)
		for _, p := range KernelPaths() {
			func() {
				defer UseKernelPath(p)()
				atbCase(t, rows, ac, bc, off&1 == 1, next)
				atbCase(t, rows, ac, ac, off&1 == 1, next)
				gemmCase(t, rows, ac, 1+(bc-1)%(gemmNarrow+1), next)
			}()
		}
		// And a TTMc row: factor rows through 20 wide, lead rows through
		// 11, up to 9 list positions.
		gatherCase(t, 1+int(n%20), 1+int(m%11), 1+int(n/20)%9, next, nil)
		// And a tree entry: trail rows through 20 wide, lead rows through
		// 13 (the unit row at 0), up to 9 list positions.
		outerCase(t, 1+int(n%20), max(1, int(m%14)), int(n/20)%10, m%14 == 0, next, nil)
	})
}
