package tensor

import (
	"fmt"
	"math"

	"hypertensor/internal/dense"
)

// Dense is a dense N-mode tensor stored in row-major (last mode fastest)
// order: element (i_1, ..., i_N) lives at offset
// sum_m i_m * Stride[m] with Stride[N-1] = 1. It holds the core tensor G
// and reference results in tests.
type Dense struct {
	Dims   []int
	Stride []int
	Data   []float64
}

// NewDense returns a zeroed dense tensor with the given mode sizes.
func NewDense(dims []int) *Dense {
	if len(dims) == 0 {
		panic("tensor: need at least one mode")
	}
	size := 1
	stride := make([]int, len(dims))
	for m := len(dims) - 1; m >= 0; m-- {
		if dims[m] <= 0 {
			panic("tensor: mode sizes must be positive")
		}
		stride[m] = size
		size *= dims[m]
	}
	return &Dense{
		Dims:   append([]int(nil), dims...),
		Stride: stride,
		Data:   make([]float64, size),
	}
}

// Order returns the number of modes.
func (d *Dense) Order() int { return len(d.Dims) }

// Offset returns the linear offset of the given coordinates.
func (d *Dense) Offset(coord []int) int {
	off := 0
	for m, c := range coord {
		if c < 0 || c >= d.Dims[m] {
			panic(fmt.Sprintf("tensor: coordinate %d out of range in mode %d", c, m))
		}
		off += c * d.Stride[m]
	}
	return off
}

// At returns the element at the given coordinates.
func (d *Dense) At(coord ...int) float64 { return d.Data[d.Offset(coord)] }

// Set assigns the element at the given coordinates.
func (d *Dense) Set(v float64, coord ...int) { d.Data[d.Offset(coord)] = v }

// Norm returns the Frobenius norm, rescaled as COO.Norm's where the sum
// of squares overflows or underflows.
func (d *Dense) Norm() float64 {
	s := sumSquares(d.Data, 1)
	if scale := normScale(s, d.Data); scale != 1 {
		return math.Sqrt(sumSquares(d.Data, scale)) / scale
	}
	return math.Sqrt(s)
}

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	out := NewDense(d.Dims)
	copy(out.Data, d.Data)
	return out
}

// Matricize returns the mode-n matricization X_(n) as a dense matrix of
// shape Dims[n] x prod(other dims). Columns are ordered with the
// canonical Kolda-Bader layout restricted to this library's convention:
// the remaining modes vary with the *later* modes fastest, matching
// MatricizeOffset below and the Kronecker order used by the TTMc kernel
// (⊗_{t≠n} U_t with t ascending).
func (d *Dense) Matricize(mode int) *dense.Matrix {
	rows := d.Dims[mode]
	cols := 1
	for m, dim := range d.Dims {
		if m != mode {
			cols *= dim
		}
	}
	out := dense.NewMatrix(rows, cols)
	coord := make([]int, d.Order())
	for off, v := range d.Data {
		// Decode the row-major offset into coordinates.
		rem := off
		for m := 0; m < d.Order(); m++ {
			coord[m] = rem / d.Stride[m]
			rem %= d.Stride[m]
		}
		col := MatricizeOffset(d.Dims, mode, coord)
		out.Set(coord[mode], col, v)
	}
	return out
}

// MatricizeOffset returns the column index of coordinate coord in the
// mode-n matricization, with the remaining modes enumerated in ascending
// order and the last of them varying fastest. This is the layout
// produced by the nonzero-based TTMc kernel: row Y_(n)(i,:) equals
// ⊗_{t≠n, t ascending} U_t(i_t, :), and the Kronecker product of row
// vectors places the last factor in the fastest-varying position.
func MatricizeOffset(dims []int, mode int, coord []int) int {
	col := 0
	for m := 0; m < len(dims); m++ {
		if m == mode {
			continue
		}
		col = col*dims[m] + coord[m]
	}
	return col
}

// UnmatricizeOffset inverts MatricizeOffset: it decodes a (row, col)
// pair of the mode-n matricization into full coordinates written to
// coord (length len(dims)).
func UnmatricizeOffset(dims []int, mode, row, col int, coord []int) {
	coord[mode] = row
	for m := len(dims) - 1; m >= 0; m-- {
		if m == mode {
			continue
		}
		coord[m] = col % dims[m]
		col /= dims[m]
	}
}

// DenseFromCOO scatters a sparse tensor into a dense one (test helper
// and small-problem reference path).
func DenseFromCOO(t *COO) *Dense {
	d := NewDense(t.Dims)
	coord := make([]int, t.Order())
	for i := 0; i < t.NNZ(); i++ {
		t.Coord(i, coord)
		d.Data[d.Offset(coord)] += t.Val[i]
	}
	return d
}
