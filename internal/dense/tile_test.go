package dense

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// naive reference kernels: plain triple loops, no tiling, no blocking.

func naiveGemv(a *Matrix, x []float64) []float64 {
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var s float64
		for j := 0; j < a.Cols; j++ {
			s += a.At(i, j) * x[j]
		}
		y[i] = s
	}
	return y
}

func naiveGemvT(a *Matrix, x []float64) []float64 {
	y := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			y[j] += a.At(i, j) * x[i]
		}
	}
	return y
}

func naiveMM(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			for j := 0; j < b.Cols; j++ {
				c.Data[i*c.Cols+j] += a.At(i, k) * b.At(k, j)
			}
		}
	}
	return c
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// The tiled/panel-blocked kernels must agree with naive loops on every
// awkward shape: empty dimensions, single rows/columns, odd sizes that
// leave every kind of tile remainder, and shapes wide enough to take
// more than one GEMM j-panel (cols > gemmJC).
func TestTiledKernelsMatchNaiveOddShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ m, k, n int }{
		{0, 0, 0}, {0, 5, 3}, {5, 0, 3}, {5, 3, 0},
		{1, 1, 1}, {1, 7, 1}, {7, 1, 7}, {1, 1, 9},
		{2, 3, 5}, {3, 4, 2}, {9, 13, 7}, {13, 9, 11},
		{33, 65, 17}, {65, 33, 66}, {64, 64, 64},
		{16, 40, 600},                // two j-panels: bc > gemmJC
		{7, 40, 600},                 // the same on few rows
		{16, gemmKC + 3, gemmJC + 5}, // k and j panel remainders
	}
	for _, sh := range shapes {
		a := randomNormal(sh.m, sh.k, rng)
		b := randomNormal(sh.k, sh.n, rng)
		x := make([]float64, sh.k)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		xr := make([]float64, sh.m)
		for i := range xr {
			xr[i] = rng.NormFloat64()
		}
		for _, threads := range []int{1, 4} {
			// GemvInto vs naive.
			y := make([]float64, sh.m)
			GemvInto(y, a, x, threads)
			if d := maxAbsDiff(y, naiveGemv(a, x)); d > 1e-10 {
				t.Fatalf("Gemv %dx%d threads=%d: diff %g", sh.m, sh.k, threads, d)
			}
			// GemvTInto vs naive.
			yt := make([]float64, sh.k)
			GemvTInto(yt, a, xr, threads)
			if d := maxAbsDiff(yt, naiveGemvT(a, xr)); d > 1e-10 {
				t.Fatalf("GemvT %dx%d threads=%d: diff %g", sh.m, sh.k, threads, d)
			}
			// MatMulInto vs naive (also on more than one j-panel).
			c := NewMatrix(sh.m, sh.n)
			MatMulInto(c, a, b, threads)
			if want := naiveMM(a, b); !c.Equal(want, 1e-10) {
				t.Fatalf("MatMul %dx%dx%d threads=%d mismatch", sh.m, sh.k, sh.n, threads)
			}
			// MatMulTAInto vs naive.
			ct := NewMatrix(sh.k, sh.n)
			bt := randomNormal(sh.m, sh.n, rng)
			MatMulTAInto(ct, a, bt, threads)
			if want := naiveMM(a.T(), bt); !ct.Equal(want, 1e-10) {
				t.Fatalf("MatMulTA %dx%dx%d threads=%d mismatch", sh.m, sh.k, sh.n, threads)
			}
		}
	}
}

func bits(x []float64) []byte {
	var buf bytes.Buffer
	for _, v := range x {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		buf.Write(b[:])
	}
	return buf.Bytes()
}

// The block-reduction kernels must be bitwise identical for every
// thread count: the reduction grid depends only on the problem size,
// and the register tiles never change an element's accumulation order.
// Sizes are chosen above serialCutoff so the parallel paths actually
// run.
func TestKernelsBitwiseInvariantAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomNormal(301, 203, rng) // > serialCutoff elements
	b := randomNormal(301, 57, rng)
	x := make([]float64, 203)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	xr := make([]float64, 301)
	for i := range xr {
		xr[i] = rng.NormFloat64()
	}

	refGemv := make([]float64, 301)
	GemvInto(refGemv, a, x, 1)
	refGemvT := make([]float64, 203)
	GemvTInto(refGemvT, a, xr, 1)
	refTA := NewMatrix(203, 57)
	MatMulTAInto(refTA, a, b, 1)
	big := randomNormal(203, 301, rng)
	refMM := NewMatrix(301, 301)
	MatMulInto(refMM, a, big, 1)

	for _, threads := range []int{2, 3, 4, 8} {
		y := make([]float64, 301)
		GemvInto(y, a, x, threads)
		if !bytes.Equal(bits(y), bits(refGemv)) {
			t.Fatalf("Gemv not bitwise invariant at %d threads", threads)
		}
		yt := make([]float64, 203)
		GemvTInto(yt, a, xr, threads)
		if !bytes.Equal(bits(yt), bits(refGemvT)) {
			t.Fatalf("GemvT not bitwise invariant at %d threads", threads)
		}
		ta := NewMatrix(203, 57)
		MatMulTAInto(ta, a, b, threads)
		if !bytes.Equal(bits(ta.Data), bits(refTA.Data)) {
			t.Fatalf("MatMulTA not bitwise invariant at %d threads", threads)
		}
		mm := NewMatrix(301, 301)
		MatMulInto(mm, a, big, threads)
		if !bytes.Equal(bits(mm.Data), bits(refMM.Data)) {
			t.Fatalf("MatMul not bitwise invariant at %d threads", threads)
		}
	}
}

// AxpyUnrolled must produce the same bits as Axpy (it is the same
// elementwise update, just unrolled); DotUnrolled agrees with Dot to
// rounding (different association).
func TestUnrolledLevel1Kernels(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 3, 4, 5, 31, 32, 33, 100, 1023} {
		x := make([]float64, n)
		y1 := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y1[i] = rng.NormFloat64()
		}
		y2 := append([]float64(nil), y1...)
		Axpy(0.73, x, y1)
		AxpyUnrolled(0.73, x, y2)
		if !bytes.Equal(bits(y1), bits(y2)) {
			t.Fatalf("AxpyUnrolled differs from Axpy at n=%d", n)
		}
		d1 := Dot(x, y1)
		d2 := DotUnrolled(x, y1)
		if math.Abs(d1-d2) > 1e-12*(1+math.Abs(d1)) {
			t.Fatalf("DotUnrolled vs Dot at n=%d: %v vs %v", n, d1, d2)
		}
	}
}

// ReuseMatrix/ReuseVec must reuse capacity, zero contents, and grow
// geometrically so one-step upward resizes amortize.
func TestReuseMatrixAndVec(t *testing.T) {
	m := ReuseMatrix(nil, 4, 5)
	if m.Rows != 4 || m.Cols != 5 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	m.Set(2, 3, 7)
	m2 := ReuseMatrix(m, 2, 10)
	if &m2.Data[0] != &m.Data[0] {
		t.Fatal("same-capacity resize reallocated")
	}
	for _, v := range m2.Data {
		if v != 0 {
			t.Fatal("reused matrix not zeroed")
		}
	}
	m3 := ReuseMatrix(m2, 6, 6)
	if cap(m3.Data) < 2*cap(m2.Data) {
		t.Fatalf("growth not geometric: %d -> %d", cap(m2.Data), cap(m3.Data))
	}
	// One-step upward resizes (the Lanczos bidiagonal growth pattern)
	// must reallocate O(log) times, not once per step.
	allocs := 0
	cur := ReuseMatrix(nil, 1, 1)
	for s := 2; s <= 64; s++ {
		next := ReuseMatrix(cur, s, s)
		if &next.Data[0] != &cur.Data[0] {
			allocs++
		}
		cur = next
	}
	if allocs > 16 {
		t.Fatalf("one-step resizes caused %d reallocations; want O(log n)", allocs)
	}

	v := ReuseVec(nil, 3)
	v[0] = 1
	v2 := ReuseVec(v, 2)
	if v2[0] != 0 {
		t.Fatal("reused vec not zeroed")
	}
	v3 := ReuseVec(v2, 4)
	if cap(v3) < 6 {
		t.Fatalf("vec growth not geometric: cap %d", cap(v3))
	}
}

// The workspace SVD must agree with the allocating SVD, and the
// values+last-row fast path with both.
func TestSVDWorkMatchesSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var wk SVDWork
	for _, sh := range []struct{ m, n int }{{6, 6}, {12, 5}, {5, 12}, {30, 30}} {
		a := randomNormal(sh.m, sh.n, rng)
		u1, s1, v1 := SVD(a)
		u2, s2, v2 := wk.SVD(a)
		if !u1.Equal(u2, 1e-12) || !v1.Equal(v2, 1e-12) {
			t.Fatalf("%dx%d: workspace SVD factors differ", sh.m, sh.n)
		}
		if d := maxAbsDiff(s1, s2); d > 1e-12 {
			t.Fatalf("%dx%d: singular values differ by %g", sh.m, sh.n, d)
		}
		if sh.m >= sh.n {
			sv, last := wk.SingularValuesLastRow(a)
			if d := maxAbsDiff(sv, s1); d > 1e-12 {
				t.Fatalf("%dx%d: fast-path values differ by %g", sh.m, sh.n, d)
			}
			for j := range last {
				if d := math.Abs(math.Abs(last[j]) - math.Abs(u1.At(sh.m-1, j))); d > 1e-10 {
					t.Fatalf("%dx%d: fast-path last row col %d differs by %g", sh.m, sh.n, j, d)
				}
			}
		}
	}
}

// MatMulTAInto forms a product whose rows are shorter than its columns
// are many as the transpose of BᵀA: every element has the bits of the
// product in its own orientation, on every kernel path and at every
// thread count, with exact zeros in either operand (the Go loop's tail
// skips those of its first operand, and a transposed product reads the
// other one first) and with row counts that leave a tail.
func TestMatMulTATransposedBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	onEachPath(t, func(t *testing.T) {
		for _, sh := range [][3]int{{1301, 125, 5}, {2003, 100, 10}, {999, 100, 1}, {67, 9, 4}, {5, 7, 3}} {
			a, b := randomNormal(sh[0], sh[1], rng), randomNormal(sh[0], sh[2], rng)
			for i := 0; i < len(a.Data); i += 7 {
				a.Data[i] = 0
			}
			for i := 0; i < len(b.Data); i += 5 {
				b.Data[i] = 0
			}
			want := NewMatrix(sh[1], sh[2])
			new(Scratch).matMulTA(want, a, b, 1)
			for _, threads := range []int{1, 2, 3, 8} {
				got := NewMatrix(sh[1], sh[2])
				MatMulTAInto(got, a, b, threads)
				if !bytes.Equal(bits(got.Data), bits(want.Data)) {
					t.Fatalf("%d rows, %d x %d at %d threads: not the bits of the product in its own orientation", sh[0], sh[1], sh[2], threads)
				}
			}
		}
	})
}
