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

// accumKron adds x * (rows[0] ⊗ rows[1] ⊗ ... ⊗ rows[k-1]) to dst —
// Flat's run accumulator, a root child's block in DTree — fused: the
// prefix Kronecker product of the first k-1 rows is built in scratch
// buffers (bufA, bufB, each of length >= len(dst)/len(last row)), then
// the last row is AXPY-ed into consecutive segments of dst, skipping
// prefix entries that are zero — one dense.Ger over the whole of dst.
// This avoids materializing a full len(dst) temporary per nonzero, the
// difference between a bandwidth-bound and a compute-bound kernel.
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
	dense.Ger(cur, rows[k-1], dst)
}

// kronScratch is one worker's scratch: the factor rows of the entry at
// hand, two Kronecker prefix buffers and Flat's run accumulator.
type kronScratch struct {
	rows            [][]float64
	bufA, bufB, acc []float64
}

// growKronScratch returns s holding a scratch for each of threads
// workers, with room for order factor rows, for Kronecker prefixes of
// length kron and for an accumulator of length acc (0 for the tree,
// which has none); what is already large enough is kept. Every worker
// writes its scratch once per nonzero, and small allocations made back
// to back sit side by side in memory, so each worker's slices start and
// end a cache line inside their allocation: no two workers share a line.
func growKronScratch(s []kronScratch, threads, order, kron, acc int) []kronScratch {
	const (
		linePad = 8 // float64s in a 64-byte line
		rowsPad = 3 // slice headers covering a 64-byte line
	)
	for len(s) < threads {
		s = append(s, kronScratch{rows: make([][]float64, order+2*rowsPad)[rowsPad : rowsPad+order]})
	}
	for w := range s[:threads] {
		if sc := &s[w]; cap(sc.bufA) < kron || len(sc.acc) < acc {
			// Whole lines: the size class a multiple of 64 bytes lands in is
			// one too, so the slab starts on a line. The tree's 208-byte
			// slab at ranks 5 (2 x 5 + padding, once it stopped carrying
			// acc) came from a class that is not, and its TTMc ran 17%
			// slower on buffers that straddled lines.
			slab := make([]float64, (2*kron+acc+3*linePad-1)/linePad*linePad)
			sc.bufA = slab[linePad : linePad+kron : linePad+kron]
			sc.bufB = slab[linePad+kron : linePad+2*kron : linePad+2*kron]
			sc.acc = slab[linePad+2*kron : linePad+2*kron+acc]
		}
	}
	return s
}
