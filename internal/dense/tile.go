package dense

import "sync"

// This file holds the register-tiled micro-kernels and the pooled
// scratch behind the level-2/3 BLAS layer. Two invariants govern every
// kernel here:
//
//  1. Fixed association: each output element accumulates its terms in
//     one canonical order (ascending k for GEMM, ascending row for the
//     transposed products, Dot's single-chain association for the row
//     dots) regardless of tile or thread boundaries. Tiling changes
//     instruction scheduling, never values, so the HOOI fit trajectory
//     stays bitwise identical for every thread count and schedule.
//  2. No steady-state allocation: reduction partials and packing
//     buffers come from a sync.Pool, whose per-P caches effectively pin
//     a warm buffer to each worker between calls.

// dot2 returns (Dot(x0, y), Dot(x1, y)) sharing one streaming pass
// over y: two independent single-accumulator chains with exactly Dot's
// association, so each result is bitwise identical to a separate Dot
// call no matter where a row falls relative to a tile boundary. (The
// tile kernels pair rows for bandwidth — y is loaded once for two rows
// — while the per-row association stays that of the scalar kernel.)
func dot2(x0, x1, y []float64) (float64, float64) {
	n := len(y)
	if len(x0) != n || len(x1) != n {
		panic("dense: dot2 length mismatch")
	}
	var sa, sb float64
	for i, v := range y {
		sa += x0[i] * v
		sb += x1[i] * v
	}
	return sa, sb
}

// GEMM panel geometry: C row segments of gemmJC columns stay resident
// in L1 across the whole k sweep, and when B is wide enough that its
// rows are far apart, k-panels of gemmKC rows are packed into a
// contiguous pooled buffer first (the classic GEMM B-pack), so the
// inner kernel streams one dense panel instead of gemmKC strided rows.
const (
	gemmJC = 512
	gemmKC = 64
)

// matMulRows computes C[lo:hi,:] = A[lo:hi,:] * B for row-major
// operands, assuming those C rows are already zeroed. The inner kernel
// is a k-unrolled Axpy4 against a j-panel of B; per element the k order
// is ascending across panels and within them, so the result matches
// the naive i-k-j loop bit for bit and never depends on [lo, hi).
func matMulRows(c, a, b *Matrix, lo, hi int) {
	kdim, bc := a.Cols, b.Cols
	if kdim == 0 || bc == 0 {
		return
	}
	// Packing pays once per panel and is amortized over the row range;
	// skip it for narrow B (rows already nearly contiguous) or when too
	// few rows share the packed panel.
	pack := bc > gemmJC && hi-lo >= 8
	var sc *scratch
	if pack {
		sc = getScratch(gemmKC * gemmJC)
	}
	for j0 := 0; j0 < bc; j0 += gemmJC {
		j1 := min(j0+gemmJC, bc)
		jw := j1 - j0
		for k0 := 0; k0 < kdim; k0 += gemmKC {
			k1 := min(k0+gemmKC, kdim)
			if pack {
				panel := sc.data[:(k1-k0)*jw]
				for k := k0; k < k1; k++ {
					copy(panel[(k-k0)*jw:(k-k0+1)*jw], b.Row(k)[j0:j1])
				}
				for i := lo; i < hi; i++ {
					arow := a.Row(i)
					crow := c.Row(i)[j0:j1]
					k := k0
					for ; k+4 <= k1; k += 4 {
						Axpy4(arow[k], arow[k+1], arow[k+2], arow[k+3], panel[(k-k0)*jw:], jw, crow)
					}
					for ; k < k1; k++ {
						Axpy(arow[k], panel[(k-k0)*jw:(k-k0+1)*jw], crow)
					}
				}
				continue
			}
			for i := lo; i < hi; i++ {
				arow := a.Row(i)
				crow := c.Row(i)[j0:j1]
				k := k0
				for ; k+4 <= k1; k += 4 {
					Axpy4(arow[k], arow[k+1], arow[k+2], arow[k+3], b.Data[k*bc+j0:], bc, crow)
				}
				for ; k < k1; k++ {
					Axpy(arow[k], b.Row(k)[j0:j1], crow)
				}
			}
		}
	}
	if sc != nil {
		sc.release()
	}
}

// scratch is a pooled float64 buffer used for reduction partials and
// packed GEMM panels. Contents are unspecified on Get; callers zero
// what they need.
type scratch struct{ data []float64 }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(n int) *scratch {
	s := scratchPool.Get().(*scratch)
	if cap(s.data) < n {
		s.data = make([]float64, n)
	}
	s.data = s.data[:n]
	return s
}

func (s *scratch) release() { scratchPool.Put(s) }

// ReuseMatrix returns a zeroed r x c matrix, reusing m's backing
// storage when it is large enough and allocating otherwise. Growth is
// geometric (at least double the old capacity), so callers that resize
// a workspace buffer upward one step at a time — the Lanczos projected
// bidiagonal grows by one row per iteration — amortize to O(log)
// allocations instead of one per call. Call sites keep the returned
// matrix in the workspace slot, so steady-state reuse allocates
// nothing.
func ReuseMatrix(m *Matrix, r, c int) *Matrix {
	n := r * c
	if m == nil || cap(m.Data) < n {
		grown := n
		if m != nil && 2*cap(m.Data) > grown {
			grown = 2 * cap(m.Data)
		}
		return &Matrix{Rows: r, Cols: c, Data: make([]float64, grown)[:n]}
	}
	m.Rows, m.Cols = r, c
	m.Data = m.Data[:n]
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// ReuseMatrixUninit is ReuseMatrix without the zeroing: contents are
// unspecified. For buffers whose every element is written before it is
// read (the Lanczos Krylov bases), the memset ReuseMatrix performs is
// pure memory traffic — megabytes per solve on large modes.
func ReuseMatrixUninit(m *Matrix, r, c int) *Matrix {
	n := r * c
	if m == nil || cap(m.Data) < n {
		grown := n
		if m != nil && 2*cap(m.Data) > grown {
			grown = 2 * cap(m.Data)
		}
		return &Matrix{Rows: r, Cols: c, Data: make([]float64, grown)[:n]}
	}
	m.Rows, m.Cols = r, c
	m.Data = m.Data[:n]
	return m
}

// ReuseVec returns a zeroed length-n slice, reusing v's backing array
// when it is large enough; like ReuseMatrix it grows geometrically.
func ReuseVec(v []float64, n int) []float64 {
	if cap(v) < n {
		grown := n
		if 2*cap(v) > grown {
			grown = 2 * cap(v)
		}
		return make([]float64, grown)[:n]
	}
	v = v[:n]
	for i := range v {
		v[i] = 0
	}
	return v
}
