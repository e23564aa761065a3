package dense

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// gramOf returns the PSD matrix AᵀA of a random rows x n matrix whose
// columns are scaled by scale (nil leaves them alone).
func gramOf(rng *rand.Rand, rows, n int, scale []float64) *Matrix {
	a := RandomNormal(rows, n, rng)
	for i := 0; i < rows && scale != nil; i++ {
		for j := range scale {
			a.Data[i*n+j] *= scale[j]
		}
	}
	return MatMulTA(a, a, 1)
}

// SymEig is held to the Jacobi SVD (for a symmetric PSD matrix the two
// decompositions coincide) and to the defining identities.
func TestSymEigMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	clustered := make([]float64, 40)
	for j := range clustered {
		clustered[j] = 1 + 1e-7*float64(j%3) // three tight clusters
	}
	decaying := make([]float64, 30)
	for j := range decaying {
		decaying[j] = math.Pow(10, -float64(j)/6)
	}
	diag := NewMatrix(6, 6)
	for i, v := range []float64{2, 7, 0, 3, 7, 1} {
		diag.Set(i, i, v)
	}
	cases := []struct {
		name string
		g    *Matrix
	}{
		{"1x1", FromRows([][]float64{{4}})},
		{"2x2", FromRows([][]float64{{2, 1}, {1, 2}})},
		{"zero", NewMatrix(5, 5)},
		{"diagonal", diag},
		{"random PSD 7", gramOf(rng, 20, 7, nil)},
		{"random PSD 100", gramOf(rng, 300, 100, nil)},
		{"clustered", gramOf(rng, 200, 40, clustered)},
		{"decaying", gramOf(rng, 90, 30, decaying)},
		{"rank 5 of 24", gramOf(rng, 5, 24, nil)},
	}
	var wk SVDWork
	for _, tc := range cases {
		n := tc.g.Rows
		lam, vt := wk.SymEig(tc.g)
		_, want, _ := SVD(tc.g)
		norm := math.Max(want[0], 1e-300)
		for j := range want {
			if j > 0 && lam[j] > lam[j-1] {
				t.Fatalf("%s: eigenvalues not descending: %v", tc.name, lam)
			}
			if d := math.Abs(lam[j] - want[j]); d > 1e-13*norm {
				t.Fatalf("%s: λ[%d] = %v, Jacobi %v (off by %.3g·λ₁)", tc.name, j, lam[j], want[j], d/norm)
			}
		}
		checkOrthonormalColumns(t, vt.T(), 1e-13)
		// ‖G·V − V·Λ‖: row j of vt is the eigenvector of lam[j].
		for j := 0; j < n; j++ {
			gv := make([]float64, n)
			Gemv(tc.g, vt.Row(j), gv, 1)
			Axpy(-lam[j], vt.Row(j), gv)
			if r := Nrm2(gv); r > 1e-12*norm {
				t.Fatalf("%s: ‖G·v − λ·v‖ = %.3g·‖G‖ for pair %d", tc.name, r/norm, j)
			}
		}
	}
}

// Only the upper triangle is an input, and a reused workspace gives the
// bits a fresh one gives.
func TestSymEigReadsUpperTriangleAndReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := gramOf(rng, 60, 17, nil)
	var fresh SVDWork
	lam, vt := fresh.SymEig(g)
	wantLam, wantV := append([]float64(nil), lam...), vt.Clone()

	junk := g.Clone()
	for i := 0; i < junk.Rows; i++ {
		for j := 0; j < i; j++ {
			junk.Set(i, j, math.NaN())
		}
	}
	var used SVDWork
	used.SymEig(gramOf(rng, 80, 31, nil)) // leaves larger buffers behind
	lam, vt = used.SymEig(junk)
	if !bytes.Equal(bits(lam), bits(wantLam)) || !bytes.Equal(bits(vt.Data), bits(wantV.Data)) {
		t.Fatal("SymEig read the lower triangle or a reused workspace changed the result")
	}
	if lam, vt = used.SymEig(NewMatrix(0, 0)); len(lam) != 0 || vt.Rows != 0 {
		t.Fatal("SymEig of the empty matrix is not empty")
	}
}

// SyrkInto is the upper triangle of MatMulTAInto(g, a, a), bit for bit,
// mirrored; and the same bits on every thread count, with or without a
// kept work buffer.
func TestSyrkMatchesMatMulTABitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, shape := range [][2]int{{0, 4}, {1, 1}, {3, 5}, {63, 9}, {130, 33}, {701, 67}, {2051, 40}} {
		a := RandomNormal(shape[0], shape[1], rng)
		if shape[0] > 2 {
			a.Row(shape[0] - 1)[0] = 0 // a zero coefficient in the remainder rows
		}
		n := a.Cols
		ref := NewMatrix(n, n)
		MatMulTAInto(ref, a, a, 1)
		var work []float64
		for _, threads := range []int{1, 2, 4, 8, 1} {
			g := NewMatrix(n, n)
			g.Data[0] = 99 // the destination is overwritten, not added to
			work = SyrkInto(g, a, work, threads)
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					if math.Float64bits(g.At(i, j)) != math.Float64bits(ref.At(i, j)) {
						t.Fatalf("%dx%d threads=%d: G(%d,%d) = %v, MatMulTA %v", shape[0], n, threads, i, j, g.At(i, j), ref.At(i, j))
					}
					if math.Float64bits(g.At(j, i)) != math.Float64bits(g.At(i, j)) {
						t.Fatalf("%dx%d threads=%d: G is not symmetric at (%d,%d)", shape[0], n, threads, i, j)
					}
				}
			}
		}
	}
}
