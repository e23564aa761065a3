package tensor

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"hypertensor/internal/par"
)

// COO is a sparse tensor of order N = len(Dims) in coordinate format.
// Indices are stored mode-major: Idx[m][t] is the mode-m index of
// nonzero t. This layout keeps the per-mode streams contiguous, which is
// what the symbolic and numeric TTMc kernels scan.
type COO struct {
	Dims []int
	Idx  [][]int32
	Val  []float64
}

// NewCOO returns an empty sparse tensor with the given mode sizes and
// capacity for nnz nonzeros.
func NewCOO(dims []int, nnz int) *COO {
	if len(dims) < 1 {
		panic("tensor: need at least one mode")
	}
	for _, d := range dims {
		if d <= 0 {
			panic("tensor: mode sizes must be positive")
		}
	}
	idx := make([][]int32, len(dims))
	for m := range idx {
		idx[m] = make([]int32, 0, nnz)
	}
	return &COO{
		Dims: append([]int(nil), dims...),
		Idx:  idx,
		Val:  make([]float64, 0, nnz),
	}
}

// Order returns the number of modes N.
func (t *COO) Order() int { return len(t.Dims) }

// NNZ returns the number of stored nonzeros.
func (t *COO) NNZ() int { return len(t.Val) }

// Append adds a nonzero with the given coordinates. It panics if the
// coordinate count or ranges are invalid; use AppendChecked for error
// returns when ingesting untrusted data.
func (t *COO) Append(coord []int, v float64) {
	if err := t.AppendChecked(coord, v); err != nil {
		panic(err)
	}
}

// AppendChecked adds a nonzero, validating the coordinates.
func (t *COO) AppendChecked(coord []int, v float64) error {
	if len(coord) != t.Order() {
		return fmt.Errorf("tensor: coordinate has %d modes, tensor has %d", len(coord), t.Order())
	}
	for m, c := range coord {
		if c < 0 || c >= t.Dims[m] {
			return fmt.Errorf("tensor: coordinate %d out of range [0,%d) in mode %d", c, t.Dims[m], m)
		}
	}
	for m, c := range coord {
		t.Idx[m] = append(t.Idx[m], int32(c))
	}
	t.Val = append(t.Val, v)
	return nil
}

// Coord writes the coordinates of nonzero i into dst (which must have
// length >= Order) and returns it.
func (t *COO) Coord(i int, dst []int) []int {
	for m := range t.Dims {
		dst[m] = int(t.Idx[m][i])
	}
	return dst
}

// Clone returns a deep copy.
func (t *COO) Clone() *COO {
	out := NewCOO(t.Dims, t.NNZ())
	for m := range t.Idx {
		out.Idx[m] = append(out.Idx[m], t.Idx[m]...)
	}
	out.Val = append(out.Val, t.Val...)
	return out
}

// Norm returns the Frobenius norm of the tensor, parallel over nonzeros
// with a fixed-block reduction (bitwise identical for any thread count).
// Where the sum of squares overflows or underflows, it is taken again
// over the values scaled by a power of two (normScale).
func (t *COO) Norm(threads int) float64 {
	s := t.squares(1, threads)
	if scale := normScale(s, t.Val); scale != 1 {
		return math.Sqrt(t.squares(scale, threads)) / scale
	}
	return math.Sqrt(s)
}

// squares is sumSquares over the values on SumBlocks' fixed grid.
func (t *COO) squares(scale float64, threads int) float64 {
	return par.SumBlocks(t.NNZ(), threads, func(lo, hi int) float64 { return sumSquares(t.Val[lo:hi], scale) })
}

// sumSquares is Σ (scale·v)² over vals in order: at scale 1 the plain
// sum of squares, bit for bit.
func sumSquares(vals []float64, scale float64) float64 {
	var s float64
	for _, v := range vals {
		v *= scale
		s += v * v
	}
	return s
}

// normScale is the power of two a sum of squares s of vals is taken
// again at: 2^-600 where s overflowed to +Inf, 2^600 where it came out
// zero with a nonzero value, 1 where s stands — a finite nonzero s (every
// in-range input) or a NaN. Scaled, the largest values' squares neither
// overflow nor underflow (an overflowing sum's finite values are below
// 2^1024, an underflowing one's below 2^-537), and the scaling is exact
// wherever a square counts; an infinite value stays infinite.
func normScale(s float64, vals []float64) float64 {
	switch {
	case math.IsInf(s, 1):
		return 0x1p-600
	case s == 0:
		for _, v := range vals {
			if v != 0 {
				return 0x1p600
			}
		}
	}
	return 1
}

// keyWords is the number of 64-bit words a linearized coordinate of a
// tensor with these mode sizes takes (3 standing for "more than 2"). A
// factor of two is held back, so rounding in the product cannot matter.
func keyWords(dims []int) int {
	var prod float64 = 1
	for _, d := range dims {
		prod *= float64(d)
	}
	switch {
	case prod <= 0x1p63:
		return 1
	case prod <= 0x1p127:
		return 2
	}
	return 3
}

// key returns a comparable linearized coordinate of nonzero i under the
// given mode ordering. It is only valid for shapes of one key word.
func (t *COO) key(i int, order []int) uint64 {
	var k uint64
	for _, m := range order {
		k = k*uint64(t.Dims[m]) + uint64(t.Idx[m][i])
	}
	return k
}

// SortDedup sorts nonzeros lexicographically by coordinate and merges
// duplicates by summing their values, dropping exact zeros produced by
// cancellation. Real-world tensor ingestion (repeated (user,item,time)
// events) depends on this. It returns the receiver for chaining.
func (t *COO) SortDedup() *COO {
	order := make([]int, t.Order())
	for m := range order {
		order[m] = m
	}
	return t.SortDedupOrder(order)
}

// SortDedupOrder is SortDedup under a custom lexicographic mode
// ordering: nonzeros are sorted by their order[0] index first, then
// order[1], and so on. The deduplicated nonzero set is identical for
// every ordering; only the storage order differs. The CSF constructor
// uses this to lay nonzeros out in fiber order.
func (t *COO) SortDedupOrder(order []int) *COO {
	if len(order) != t.Order() {
		panic("tensor: SortDedupOrder needs one mode per level")
	}
	n := t.NNZ()
	if n == 0 {
		return t
	}
	t.sortDedup(order, keyWords(t.Dims) == 1)
	return t
}

// sortDedup is SortDedupOrder's body. With keyed, nonzeros compare by
// their linearized 64-bit key, which the shape must admit; without, by
// coordinate tuple, which any shape does (the paper's 4-mode tensors
// and most shapes of order 6 and up do not linearize). Both are the
// same total order, so the result is the same bit for bit.
func (t *COO) sortDedup(order []int, keyed bool) {
	n := t.NNZ()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	// compare orders nonzeros a and b by coordinate under the mode
	// ordering.
	compare := func(a, b int) int {
		for _, m := range order {
			if c := cmp.Compare(t.Idx[m][a], t.Idx[m][b]); c != 0 {
				return c
			}
		}
		return 0
	}
	if keyed {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = t.key(i, order)
		}
		compare = func(a, b int) int { return cmp.Compare(keys[a], keys[b]) }
	}
	// Tie-break equal coordinates on the original position: duplicates
	// are summed in appearance order, so every storage format's dedup
	// produces bitwise-identical values for the same input.
	slices.SortFunc(perm, func(a, b int) int {
		if c := compare(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	outIdx := make([][]int32, t.Order())
	for m := range outIdx {
		outIdx[m] = make([]int32, 0, n)
	}
	outVal := make([]float64, 0, n)
	i := 0
	for i < n {
		j := i
		var sum float64
		for j < n && compare(perm[j], perm[i]) == 0 {
			sum += t.Val[perm[j]]
			j++
		}
		if sum != 0 {
			for m := range outIdx {
				outIdx[m] = append(outIdx[m], t.Idx[m][perm[i]])
			}
			outVal = append(outVal, sum)
		}
		i = j
	}
	t.Idx = outIdx
	t.Val = outVal
}

// ModeCounts returns, for the given mode, the number of nonzeros in each
// slice (a histogram of the mode's index stream). This is the slice-size
// statistic driving coarse-grain task weights.
func (t *COO) ModeCounts(mode int) []int32 {
	counts := make([]int32, t.Dims[mode])
	for _, ix := range t.Idx[mode] {
		counts[ix]++
	}
	return counts
}

// NonEmptySlices returns the number of distinct indices used in a mode.
func (t *COO) NonEmptySlices(mode int) int {
	n := 0
	for _, c := range t.ModeCounts(mode) {
		if c > 0 {
			n++
		}
	}
	return n
}

// Density returns nnz / prod(dims) as a float64 (may underflow to 0 for
// very large tensors; informational only).
func (t *COO) Density() float64 {
	d := float64(t.NNZ())
	for _, dim := range t.Dims {
		d /= float64(dim)
	}
	return d
}

// Subset returns a new tensor holding the nonzeros whose positions are
// listed in ids, in that order. Used to build per-rank local tensors.
func (t *COO) Subset(ids []int32) *COO {
	out := NewCOO(t.Dims, len(ids))
	for m := range t.Idx {
		col := t.Idx[m]
		dst := out.Idx[m][:0]
		for _, id := range ids {
			dst = append(dst, col[id])
		}
		out.Idx[m] = dst
	}
	for _, id := range ids {
		out.Val = append(out.Val, t.Val[id])
	}
	return out
}

// String summarizes the tensor.
func (t *COO) String() string {
	return fmt.Sprintf("COO(dims=%v, nnz=%d)", t.Dims, t.NNZ())
}
