package dense

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

// gramOf returns the PSD matrix AᵀA of a random rows x n matrix whose
// columns are scaled by scale (nil leaves them alone).
func gramOf(rng *rand.Rand, rows, n int, scale []float64) *Matrix {
	a := randomNormal(rows, n, rng)
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
		lam, vt := wk.SymEig(tc.g, n)
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
			GemvInto(gv, tc.g, vt.Row(j), 1)
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
	lam, vt := fresh.SymEig(g, 17)
	wantLam, wantV := append([]float64(nil), lam...), vt.Clone()

	junk := g.Clone()
	for i := 0; i < junk.Rows; i++ {
		for j := 0; j < i; j++ {
			junk.Set(i, j, math.NaN())
		}
	}
	var used SVDWork
	used.SymEig(gramOf(rng, 80, 31, nil), 31) // leaves larger buffers behind
	lam, vt = used.SymEig(junk, 17)
	if !bytes.Equal(bits(lam), bits(wantLam)) || !bytes.Equal(bits(vt.Data), bits(wantV.Data)) {
		t.Fatal("SymEig read the lower triangle or a reused workspace changed the result")
	}
	if lam, vt = used.SymEig(NewMatrix(0, 0), 0); len(lam) != 0 || vt.Rows != 0 {
		t.Fatal("SymEig of the empty matrix is not empty")
	}
}

// SyrkInto is the upper triangle of MatMulTAInto(g, a, a), bit for bit,
// mirrored; and the same bits on every thread count, with or without a
// kept work buffer.
func TestSyrkMatchesMatMulTABitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, shape := range [][2]int{{0, 4}, {1, 1}, {3, 5}, {63, 9}, {130, 33}, {701, 67}, {2051, 40}} {
		a := randomNormal(shape[0], shape[1], rng)
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

// symEigFull is the oracle SymEig is held to: the full EISPACK tred2/tql2
// eigendecomposition, which accumulates the reflectors into Q and rotates
// all n eigenvectors through every QL sweep. It returns the eigenvalues,
// descending, and the n x n matrix whose row j is the eigenvector of
// lam[j].
func symEigFull(g *Matrix) (lam []float64, vt *Matrix) {
	n := g.Rows
	z := g.Clone()
	d, e := make([]float64, n), make([]float64, n)
	if n > 0 {
		tred2(z, d, e)
		tql2(z, d, e)
	}
	return d, z
}

// tred2 reduces the symmetric matrix held in z's upper triangle to
// tridiagonal form and accumulates the transforms: on return d is the
// diagonal, e[1:] the subdiagonal, and row j of z the j-th column of Q.
func tred2(z *Matrix, d, e []float64) {
	n := z.Rows
	for j := 0; j < n; j++ {
		d[j] = z.Data[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z.Data[j*n+i-1]
				z.Data[j*n+i] = 0
				z.Data[i*n+j] = 0
			}
			d[i] = 0
			continue
		}
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		for j := 0; j < i; j++ {
			e[j] = 0
		}
		for j := 0; j < i; j++ {
			f = d[j]
			z.Data[i*n+j] = f
			zj := z.Row(j)
			g = e[j] + zj[j]*f
			for k := j + 1; k < i; k++ {
				g += zj[k] * d[k]
				e[k] += zj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			zj := z.Row(j)
			for k := j; k < i; k++ {
				zj[k] -= f*e[k] + g*d[k]
			}
			d[j] = zj[i-1]
			zj[i] = 0
		}
		d[i] = h
	}
	for i := 0; i < n-1; i++ {
		z.Data[i*n+n-1] = z.Data[i*n+i]
		z.Data[i*n+i] = 1
		zi1 := z.Row(i + 1)[:i+1]
		if h := d[i+1]; h != 0 {
			for k := range zi1 {
				d[k] = zi1[k] / h
			}
			for j := 0; j <= i; j++ {
				zj := z.Row(j)[:i+1]
				Axpy(-Dot(zi1, zj), d[:i+1], zj)
			}
		}
		for k := range zi1 {
			zi1[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = z.Data[j*n+n-1]
		z.Data[j*n+n-1] = 0
	}
	z.Data[n*n-1] = 1
	e[0] = 0
}

// tql2 diagonalizes the tridiagonal (d, e) of tred2 with implicit-shift
// QL iterations, rotating the rows of z along, and sorts the eigenpairs
// by descending eigenvalue.
func tql2(z *Matrix, d, e []float64) {
	n := z.Rows
	copy(e, e[1:])
	e[n-1] = 0
	const eps = 0x1p-52
	var f, tst1 float64
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		if m > l {
			for iter := 0; iter < 64; iter++ {
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				var s, s2 float64
				for i := m - 1; i >= l; i-- {
					c3, c2, s2 = c2, c, s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					zi, zi1 := z.Row(i), z.Row(i+1)
					for k, hk := range zi1 {
						zi1[k] = s*zi[k] + c*hk
						zi[k] = c*zi[k] - s*hk
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if !(math.Abs(e[l]) > eps*tst1) {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] > d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			zi, zk := z.Row(i), z.Row(k)
			for t := range zi {
				zi[t], zk[t] = zk[t], zi[t]
			}
		}
	}
}

// equalBlocks returns the block-diagonal matrix of m copies of b: a
// tridiagonal that splits exactly, every eigenvalue repeated m times.
func equalBlocks(b *Matrix, m int) *Matrix {
	n := b.Rows
	g := NewMatrix(m*n, m*n)
	for r := 0; r < m; r++ {
		for i := 0; i < n; i++ {
			copy(g.Row(r*n + i)[r*n:], b.Row(i))
		}
	}
	return g
}

// withSpectrum returns Q·diag(lam)·Qᵀ for a random orthogonal Q.
func withSpectrum(rng *rand.Rand, lam []float64) *Matrix {
	n := len(lam)
	q, _ := QR(randomNormal(n, n, rng))
	ql := q.Clone()
	for i := 0; i < n; i++ {
		for j, l := range lam {
			ql.Data[i*n+j] *= l
		}
	}
	return MatMul(ql, q.T(), 1)
}

// The top-k solver against the full oracle: the same eigenvalues, bit
// for bit (the reduction and the QL sweeps are the oracle's, less the
// vector updates); each eigenvector the oracle's to 1e-12 in the cosine
// — or, where eigenvalues repeat, inside the oracle's eigenspace to
// 1e-12 — and the k vectors orthonormal to 1e-13. Row j is the same
// bits whatever k is. Random Gram matrices at the solver's shapes, then
// hostile ones: zero, the identity (one cluster of n), a repeated top
// eigenvalue, rank 1, equal diagonal blocks, and a NaN entry, which must
// come back.
func TestSymEigTopKMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	type tc struct {
		name string
		g    *Matrix
	}
	var cases []tc
	for _, n := range []int{1, 2, 25, 100, 125} {
		cases = append(cases, tc{"random Gram", gramOf(rng, 2*n+3, n, nil)})
	}
	cases = append(cases,
		tc{"zero", NewMatrix(25, 25)},
		tc{"identity", Identity(125)},
		tc{"repeated top", withSpectrum(rng, []float64{5, 5, 5, 3, 2, 1, 0.5, 0.25, 0.1, 0.1, 0.05, 0.01})},
		tc{"rank 1", gramOf(rng, 1, 100, nil)},
		tc{"three equal blocks", equalBlocks(gramOf(rng, 12, 8, nil), 3)},
	)
	var wk SVDWork
	for _, c := range cases {
		n := c.g.Rows
		wantLam, wantV := symEigFull(c.g)
		scale := math.Max(math.Abs(wantLam[0]), math.Abs(wantLam[n-1]))
		var first *Matrix
		for _, k := range []int{1, 5, 10, n} {
			if k > n {
				continue
			}
			lam, vt := wk.SymEig(c.g, k)
			if vt.Rows != k || vt.Cols != n {
				t.Fatalf("%s n=%d k=%d: %dx%d vectors", c.name, n, k, vt.Rows, vt.Cols)
			}
			if !bytes.Equal(bits(lam), bits(wantLam)) {
				t.Fatalf("%s n=%d k=%d: eigenvalues %v, oracle %v", c.name, n, k, lam, wantLam)
			}
			for j := 0; j < k; j++ {
				// The cosine to the oracle's eigenspace of lam[j].
				var c2 float64
				for i := range wantLam {
					if math.Abs(wantLam[i]-lam[j]) <= 1e-10*scale {
						d := Dot(vt.Row(j), wantV.Row(i))
						c2 += d * d
					}
				}
				if cos := math.Sqrt(c2); !(cos >= 1-1e-12) {
					t.Fatalf("%s n=%d k=%d: vector %d at cosine 1 − %.3g to the oracle's", c.name, n, k, j, 1-cos)
				}
			}
			checkOrthonormalColumns(t, vt.T(), 1e-13)
			if first == nil {
				first = vt.Clone()
				continue
			}
			if !bytes.Equal(bits(vt.Data[:first.Rows*n]), bits(first.Data)) {
				t.Fatalf("%s n=%d: the first %d rows at k=%d are not the bits of k=%d", c.name, n, first.Rows, k, first.Rows)
			}
		}
	}

	nan := gramOf(rng, 60, 25, nil)
	nan.Set(3, 17, math.NaN())
	done := make(chan struct{})
	go func() {
		wk.SymEig(nan, 5)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SymEig did not return on a matrix with a NaN")
	}
}
