package ttm

import (
	"hypertensor/internal/dense"
	"hypertensor/internal/par"
)

// KronRows writes the Kronecker product of the given row vectors into
// dst, which must have length equal to the product of the row lengths.
// The last row varies fastest, matching the matricization layout
// produced by tensor.MatricizeOffset.
func KronRows(rows [][]float64, dst []float64) {
	size := 1
	for _, r := range rows {
		size *= len(r)
	}
	if size != len(dst) {
		panic("ttm: KronRows dst length mismatch")
	}
	scaleKron(dst, 1, rows)
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

// accumKron adds x * (rows[0] ⊗ rows[1] ⊗ ... ⊗ rows[k-1]) to dst — a
// root child's run accumulator unless exactly one mode trails the lead
// (which runs dense.GatherGer) — fused: the prefix Kronecker product of
// the first k-1 rows is built in scratch buffers (bufA, bufB, each of
// length >= len(dst)/len(last row)), then the last row is AXPY-ed into
// consecutive segments of dst, skipping prefix entries that are zero —
// one dense.Ger over the whole of dst. This avoids materializing a full
// len(dst) temporary per nonzero, the difference between a
// bandwidth-bound and a compute-bound kernel.
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
// hand, two Kronecker prefix buffers and a root child's run
// accumulator, the last three in one slot of slab.
type kronScratch struct {
	rows                  [][]float64
	bufA, bufB, acc, slab []float64
}

// growKronScratch returns s holding a scratch for each of threads
// workers, with room for order factor rows, for Kronecker prefixes of
// length kron and for an accumulator of length acc (a root child's
// trail rank); what is already large enough is kept.
// Every worker writes its scratch once per nonzero, so each worker's
// buffers are a slot of its own (par.Slots), which starts and ends on a
// cache line, and its row headers sit a line inside their allocation: no
// two workers share a line. The tree's prefix buffer at ranks 5 once came from a
// 208-byte size class that is not whole lines, and its TTMc ran 17%
// slower on buffers that straddled them.
func growKronScratch(s []kronScratch, threads, order, kron, acc int) []kronScratch {
	const rowsPad = 3 // slice headers covering a 64-byte line
	for len(s) < threads {
		s = append(s, kronScratch{rows: make([][]float64, order+2*rowsPad)[rowsPad : rowsPad+order]})
	}
	for w := range s[:threads] {
		sc := &s[w]
		var slot []float64
		sc.slab, slot, _ = par.Slots(sc.slab, 1, 2*kron+acc)
		sc.bufA = slot[:kron:kron]
		sc.bufB = slot[kron : 2*kron : 2*kron]
		sc.acc = slot[2*kron : 2*kron+acc]
	}
	return s
}
