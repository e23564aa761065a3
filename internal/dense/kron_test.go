package dense

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// kronCase is a matrix whose rows past multi are grouped Kronecker
// products, built the way the flat TTMc builds a one-nonzero row of
// order 3: the grouping factor's row and x times the other factor's row.
type kronCase struct {
	name  string
	multi int
	sizes []int // rows per group
	rg, c int   // u's and t's lengths
	slow  bool
	zero  int // a group whose u is zero, or -1
}

// build returns the dense prefix, the grouped rows with T bound, and
// the whole matrix written out here, independently of Materialize.
func (kc kronCase) build(rng *rand.Rand) (*Matrix, *KronRows, *Matrix) {
	n := kc.rg * kc.c
	singles := 0
	for _, s := range kc.sizes {
		singles += s
	}
	full := randomNormal(kc.multi+singles, n, rng)
	a := &Matrix{Rows: kc.multi, Cols: n, Data: append([]float64(nil), full.Data[:kc.multi*n]...)}
	u := randomNormal(3*len(kc.sizes)+1, kc.rg, rng)
	k := &KronRows{Ptr: []int32{0}, U: u, T: *NewMatrix(singles, kc.c), Slow: kc.slow}
	row := 0
	for j, s := range kc.sizes {
		k.Idx = append(k.Idx, int32(3*j+1))
		k.Ptr = append(k.Ptr, k.Ptr[j]+int32(s))
		if j == kc.zero {
			clear(u.Row(3*j + 1))
		}
		uj := u.Row(3*j + 1)
		for ; row < int(k.Ptr[j+1]); row++ {
			x := 1 + rng.Float64()
			t := k.T.Row(row)
			for q := range t {
				t[q] = x * rng.NormFloat64()
			}
			y := full.Row(kc.multi + row)
			for p, up := range uj {
				for q, tq := range t {
					if kc.slow {
						y[p*kc.c+q] = up * tq
					} else {
						y[q*kc.rg+p] = up * tq
					}
				}
			}
		}
	}
	return a, k, full
}

var kronCases = []kronCase{
	{"slow", 130, []int{5, 1, 9, 2, 40, 3, 7, 1, 1, 12}, 10, 10, true, -1},
	{"fast", 130, []int{5, 1, 9, 2, 40, 3, 7, 1, 1, 12}, 10, 10, false, -1},
	{"uneven slow", 71, []int{3, 8, 2, 1, 30, 6}, 3, 7, true, -1},
	{"uneven fast", 71, []int{3, 8, 2, 1, 30, 6}, 7, 3, false, -1},
	{"group of one", 90, []int{1}, 4, 6, true, -1},
	{"every row a singleton", 0, []int{20, 1, 33, 4, 4, 17, 2, 60}, 5, 4, false, -1},
	{"no singleton row", 257, nil, 6, 5, true, -1},
	{"zero u_g row", 64, []int{6, 11, 3, 25}, 4, 4, true, 1},
	{"order 2", 70, []int{4, 1, 19, 2, 36}, 9, 1, true, -1},
	// Over several reduction blocks of groups, the multi rows' products
	// past serialCutoff, so that more than one thread runs every loop.
	{"many groups", 50, manyGroups(80), 10, 10, false, 7},
}

// manyGroups is n group sizes from 1 to 9.
func manyGroups(n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 1 + i*7%9
	}
	return sizes
}

// relDiff is max |got - want| over the largest |want|.
func relDiff(got, want []float64) float64 {
	var scale, diff float64
	for i, w := range want {
		scale = max(scale, math.Abs(w))
		diff = max(diff, math.Abs(got[i]-w))
	}
	return diff / scale
}

// SyrkKronInto is SyrkInto on the written-out matrix summed in another
// order: within 1e-13 of the largest entry of the full SYRK on every
// kernel path, exactly symmetric, and the full SYRK's bits when there is
// no grouped row. Materialize writes out the matrix the rows describe,
// in the layout Slow names.
func TestSyrkKronMatchesSyrk(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for _, kc := range kronCases {
			a, k, full := kc.build(rng)
			if !bytes.Equal(bits(k.Materialize(a).Data), bits(full.Data)) {
				t.Fatalf("%s: Materialize is not the matrix the rows describe", kc.name)
			}
			n := a.Cols
			want := NewMatrix(n, n)
			SyrkInto(want, full, nil, 1)
			got := NewMatrix(n, n)
			got.Data[0] = 99 // the destination is overwritten, not added to
			SyrkKronInto(got, a, k, nil, 2)
			if d := relDiff(got.Data, want.Data); d > 1e-13 {
				t.Errorf("%s: |G - SyrkInto| is %g of its largest entry", kc.name, d)
			}
			if len(k.Idx) == 0 && !bytes.Equal(bits(got.Data), bits(want.Data)) {
				t.Errorf("%s: not SyrkInto's bits", kc.name)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					if math.Float64bits(got.At(i, j)) != math.Float64bits(got.At(j, i)) {
						t.Fatalf("%s: G is not symmetric at (%d,%d)", kc.name, i, j)
					}
				}
			}
		}
	})
}

// KronMatMulInto and KronMatMulTAInto are MatMulInto and MatMulTAInto on
// the written-out matrix, within 1e-13 of their largest entry on every
// kernel path, and their bits where there is no grouped row; the
// destinations are overwritten.
func TestKronMatMulMatchesMatMul(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		for _, kc := range kronCases {
			a, k, full := kc.build(rng)
			for _, bc := range []int{1, 3, 10, 13} {
				w := randomNormal(a.Cols, bc, rng)
				want, got := NewMatrix(full.Rows, bc), NewMatrix(full.Rows, bc)
				MatMulInto(want, full, w, 1)
				got.Data[0] = 99
				new(Scratch).KronMatMulInto(got, a, k, w, 2)
				if d := relDiff(got.Data, want.Data); d > 1e-13 {
					t.Errorf("%s, %d columns: |B·W - MatMulInto| is %g of its largest entry", kc.name, bc, d)
				}
				y := randomNormal(full.Rows, bc, rng)
				wantT, gotT := NewMatrix(a.Cols, bc), NewMatrix(a.Cols, bc)
				MatMulTAInto(wantT, full, y, 1)
				gotT.Data[0] = 99
				new(Scratch).KronMatMulTAInto(gotT, a, k, y, 2)
				if d := relDiff(gotT.Data, wantT.Data); d > 1e-13 {
					t.Errorf("%s, %d columns: |Bᵀ·Y - MatMulTAInto| is %g of its largest entry", kc.name, bc, d)
				}
				if len(k.Idx) == 0 && (!bytes.Equal(bits(got.Data), bits(want.Data)) || !bytes.Equal(bits(gotT.Data), bits(wantT.Data))) {
					t.Errorf("%s, %d columns: not the plain products' bits", kc.name, bc)
				}
			}
		}
	})
}

// The three Kron kernels give the same bits at every thread count and
// on every kernel path, with or without a kept work buffer.
func TestSyrkKronBitwiseInvariantAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	type built struct {
		a, w, y *Matrix
		k       *KronRows
	}
	cases := make([]built, len(kronCases))
	for i, kc := range kronCases {
		var full *Matrix
		cases[i].a, cases[i].k, full = kc.build(rng)
		cases[i].w = randomNormal(full.Cols, 10, rng)
		cases[i].y = randomNormal(full.Rows, 10, rng)
	}
	ref := make([][]byte, len(kronCases))
	onEachPath(t, func(t *testing.T) {
		var work []float64
		for _, threads := range []int{1, 2, 3, 8} {
			for i, c := range cases {
				g := NewMatrix(c.a.Cols, c.a.Cols)
				work = SyrkKronInto(g, c.a, c.k, work, threads)
				yw := NewMatrix(c.y.Rows, c.w.Cols)
				new(Scratch).KronMatMulInto(yw, c.a, c.k, c.w, threads)
				z := NewMatrix(c.a.Cols, c.y.Cols)
				new(Scratch).KronMatMulTAInto(z, c.a, c.k, c.y, threads)
				got := append(append(bits(g.Data), bits(yw.Data)...), bits(z.Data)...)
				if ref[i] == nil {
					ref[i] = got
					continue
				}
				if !bytes.Equal(got, ref[i]) {
					t.Fatalf("%s on %s at %d threads differs from the first path at 1 thread", kronCases[i].name, KernelName(), threads)
				}
			}
		}
	})
}

// SyrkKronInto's buffer holds the partials of SyrkInto over all of the
// matrix's rows: the written-out matrix's SYRK, whose singleton rows are
// all multi rows, grows no buffer, and neither does a second call.
func TestSyrkKronWorkHoldsThePlainPartials(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, kc := range kronCases {
		a, k, full := kc.build(rng)
		for _, threads := range []int{1, 2, 3} {
			g := NewMatrix(a.Cols, a.Cols)
			work := SyrkKronInto(g, a, k, nil, threads)
			if len(work) == 0 {
				continue // one reduction block: no partials to hold
			}
			for _, got := range [][]float64{SyrkInto(g, full, work, threads), SyrkKronInto(g, a, k, work, threads)} {
				if &got[:1][0] != &work[:1][0] || cap(got) != cap(work) {
					t.Errorf("%s at %d threads: the buffer grew from %d to %d", kc.name, threads, cap(work), cap(got))
				}
			}
		}
	}
}

// The madds the Kron kernels are counted at: the multi rows' SYRK, each
// grouped row's c x c triangle, and Pᵀ·S; for a product with k columns
// the multi rows at full width, the grouped ones at c, and each group's
// contraction of the panel.
func TestSyrkKronMadds(t *testing.T) {
	if got, want := SyrkMadds(7, 100), int64(7*5050); got != want {
		t.Errorf("SyrkMadds(7, 100) = %d, want %d", got, want)
	}
	if got, want := SyrkKronMadds(7, 30, 4, 100, 10), int64(7*5050+30*55+4*10000); got != want {
		t.Errorf("SyrkKronMadds = %d, want %d", got, want)
	}
	if got, want := KronMatMulMadds(7, 30, 4, 100, 10, 3), int64(7*100*3+30*10*3+4*100*3); got != want {
		t.Errorf("KronMatMulMadds = %d, want %d", got, want)
	}
}

// Nil rows are no grouped rows: each Kron kernel then makes exactly the
// plain kernel's calls, and gives its bits, on every kernel path at every
// thread count.
func TestNilKronRowsArePlainKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	var ops [][3]*Matrix // a, W, Y
	for _, kc := range kronCases {
		_, _, full := kc.build(rng)
		ops = append(ops, [3]*Matrix{full, randomNormal(full.Cols, 10, rng), randomNormal(full.Rows, 10, rng)})
	}
	onEachPath(t, func(t *testing.T) {
		for _, threads := range []int{1, 2, 3, 8} {
			for i, op := range ops {
				a, w, y := op[0], op[1], op[2]
				n := a.Cols
				want, got := NewMatrix(n, n), NewMatrix(n, n)
				SyrkInto(want, a, nil, threads)
				SyrkKronInto(got, a, nil, nil, threads)
				wantW, gotW := NewMatrix(a.Rows, w.Cols), NewMatrix(a.Rows, w.Cols)
				MatMulInto(wantW, a, w, threads)
				new(Scratch).KronMatMulInto(gotW, a, nil, w, threads)
				wantT, gotT := NewMatrix(n, y.Cols), NewMatrix(n, y.Cols)
				MatMulTAInto(wantT, a, y, threads)
				new(Scratch).KronMatMulTAInto(gotT, a, nil, y, threads)
				for _, p := range [][2]*Matrix{{got, want}, {gotW, wantW}, {gotT, wantT}} {
					if !bytes.Equal(bits(p[0].Data), bits(p[1].Data)) {
						t.Fatalf("%s at %d threads: a Kron kernel on nil rows is not the plain kernel's bits", kronCases[i].name, threads)
					}
				}
			}
		}
	})
	var k *KronRows
	if k.Rows() != 0 || k.SyrkMadds(7, 100) != SyrkMadds(7, 100) || k.MatMulMadds(7, 100, 3) != 7*100*3 {
		t.Errorf("nil rows: Rows %d, SyrkMadds %d, MatMulMadds %d; want 0 and the plain counts", k.Rows(), k.SyrkMadds(7, 100), k.MatMulMadds(7, 100, 3))
	}
}

// Every worker's W_j slot starts on a cache line of its own, whatever
// the thread count.
func TestKronMatMulSlotsStartOnALine(t *testing.T) {
	kc := kronCases[len(kronCases)-1]
	a, k, full := kc.build(rand.New(rand.NewSource(71)))
	w, y := randomNormal(a.Cols, 3, rand.New(rand.NewSource(73))), NewMatrix(full.Rows, 3)
	for _, threads := range []int{1, 2, 3, 8} {
		new(Scratch).KronMatMulInto(y, a, k, w, threads)
		if k.stride%8 != 0 || k.stride < kc.c*3 {
			t.Fatalf("%d threads: slots %d float64s apart for %d", threads, k.stride, kc.c*3)
		}
		for i := range threads {
			if p := uintptr(unsafe.Pointer(&k.slots[i*k.stride])); p%64 != 0 {
				t.Fatalf("%d threads: worker %d's slot starts %d bytes into a cache line", threads, i, p%64)
			}
		}
	}
}
