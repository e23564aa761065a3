package ttm

import "hypertensor/internal/dense"

// KronRows writes the Kronecker product of the given row vectors into
// dst, which must have length equal to the product of the row lengths.
// The last row varies fastest, matching the matricization layout
// produced by tensor.MatricizeOffset.
func KronRows(rows [][]float64, dst []float64) {
	if len(rows) == 0 {
		if len(dst) != 1 {
			panic("ttm: KronRows of no rows needs dst of length 1")
		}
		dst[0] = 1
		return
	}
	size := 1
	for _, r := range rows {
		size *= len(r)
	}
	if size != len(dst) {
		panic("ttm: KronRows dst length mismatch")
	}
	dst[0] = 1
	cur := 1
	for _, r := range rows {
		// Expand dst[:cur] by r in place, walking backwards so sources
		// are not overwritten before they are read.
		for p := cur - 1; p >= 0; p-- {
			v := dst[p]
			base := p * len(r)
			for q := len(r) - 1; q >= 0; q-- {
				dst[base+q] = v * r[q]
			}
		}
		cur *= len(r)
	}
}

// RowSize returns the TTMc row length for the given factor matrices when
// mode skip is left uncontracted: prod_{t != skip} U[t].Cols.
func RowSize(u []*dense.Matrix, skip int) int {
	size := 1
	for t, m := range u {
		if t == skip || m == nil {
			continue
		}
		size *= m.Cols
	}
	return size
}

// accumKron adds x * (rows[0] ⊗ rows[1] ⊗ ... ⊗ rows[k-1]) to dst using
// the fused scheme described in DESIGN.md: the prefix Kronecker product
// of the first k-1 rows is built in scratch buffers (bufA, bufB, each of
// length >= len(dst)/len(last row)), then the last row is AXPY-ed into
// consecutive segments of dst. This avoids materializing a full
// len(dst) temporary per nonzero, which the ablation benchmark shows is
// the difference between a bandwidth-bound and a compute-bound kernel.
func accumKron(dst []float64, x float64, rows [][]float64, bufA, bufB []float64) {
	k := len(rows)
	if k == 0 {
		dst[0] += x
		return
	}
	cur := bufA[:1]
	cur[0] = x
	for j := 0; j < k-1; j++ {
		r := rows[j]
		nxt := bufB[:len(cur)*len(r)]
		for p, c := range cur {
			base := p * len(r)
			for q, rv := range r {
				nxt[base+q] = c * rv
			}
		}
		cur, bufA, bufB = nxt, bufB, bufA
	}
	last := rows[k-1]
	rl := len(last)
	for p, c := range cur {
		if c == 0 {
			continue
		}
		axpy2(c, last, dst[p*rl:(p+1)*rl])
	}
}

// axpy2 is y += c*x two elements a step (x at least as long as y). It
// is for the short rows of the per-nonzero loops, whose one-element
// loop is five instructions that the front end delivers in one cycle
// only if they sit in one 64-byte line — which the linker decides: the
// same source ran TTMc 22% slower when other packages' code size moved
// accumKron by 32 bytes. Two elements a step takes the front end off
// the critical path at either placement. Elementwise, so the bits are
// dense.Axpy's.
func axpy2(c float64, x, y []float64) {
	x = x[:len(y)]
	i := 0
	for ; i+2 <= len(y); i += 2 {
		y[i] += c * x[i]
		y[i+1] += c * x[i+1]
	}
	if i < len(y) {
		y[i] += c * x[i]
	}
}
