package tensor

// Sparse is the storage abstraction over sparse tensor formats that
// symbolic.Build and ttm.BuildDTree read a tensor through. The HOOI
// driver hands them a COO; the CSF and ALTO implementations are reached
// only from the per-layer benchmark rows.
//
// Nonzeros are addressed by a stable storage-order position 0..NNZ()-1.
// Different formats store the same tensor in different orders (CSF
// sorts lexicographically under its mode permutation), so positions are
// only meaningful relative to one Sparse value; symbolic structures
// built from a Sparse must be used with that same Sparse.
type Sparse interface {
	// Order returns the number of modes N.
	Order() int
	// Shape returns the mode sizes. The slice is owned by the tensor
	// and must not be mutated.
	Shape() []int
	// NNZ returns the number of stored nonzeros.
	NNZ() int
	// Coord writes the coordinates of the nonzero at storage position i
	// into dst (length >= Order) and returns it.
	Coord(i int, dst []int) []int
	// Value returns the value of the nonzero at storage position i.
	Value(i int) float64
	// Values returns the nonzero values in storage order. The slice is
	// owned by the tensor and must not be mutated.
	Values() []float64
	// ModeStream returns the mode-m index of every nonzero in storage
	// order. For COO this is the native Idx[m] array; CSF expands it
	// from the fiber hierarchy on first use and caches it. The slice is
	// owned by the tensor and must not be mutated.
	ModeStream(m int) []int32
	// Norm returns the Frobenius norm, parallel over nonzeros.
	Norm(threads int) float64
	// IndexBytes reports the bytes of index storage intrinsic to the
	// format (COO: N x nnz int32 streams; CSF: the compressed fiber
	// levels and pointers). Lazily materialized caches do not count.
	IndexBytes() int64
}

// Shape returns the mode sizes (the Dims field) to satisfy Sparse. The
// slice is shared with the tensor; do not mutate it.
func (t *COO) Shape() []int { return t.Dims }

// Value returns the value of nonzero i.
func (t *COO) Value(i int) float64 { return t.Val[i] }

// Values returns the value array in storage order.
func (t *COO) Values() []float64 { return t.Val }

// ModeStream returns the mode-m index stream (the Idx[m] array).
func (t *COO) ModeStream(m int) []int32 { return t.Idx[m] }

// IndexBytes reports the coordinate storage: N x nnz int32 entries.
func (t *COO) IndexBytes() int64 {
	return int64(t.Order()) * int64(t.NNZ()) * 4
}

var _ Sparse = (*COO)(nil)
