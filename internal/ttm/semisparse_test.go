package ttm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hypertensor/internal/dense"
	"hypertensor/internal/gen"
	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// ChainTTMc computes the same mode-n TTMc result as TTMc but with the
// strategy of MET (the memory-efficient Tucker implementation in the
// Matlab Tensor Toolbox): a sequence of single-mode TTM products, each
// materializing a semi-sparse intermediate tensor whose contracted modes
// are dense blocks. Contraction proceeds in ascending mode order so the
// final dense blocks use the same Kronecker layout as TTMc (later modes
// fastest).
//
// It returns the set of nonempty mode-n slice indices (sorted) and the
// compacted result matrix with one row per nonempty slice — the same
// convention as the symbolic structure, so results compare directly.
// It shares no loop with the kernels: it is their oracle, and the
// single-core baseline of the paper's §V MET comparison
// (BenchmarkChainVsFlat).
func ChainTTMc(x *tensor.COO, mode int, u []*dense.Matrix) (rows []int32, y *dense.Matrix) {
	s := FromCOO(x)
	for m := 0; m < x.Order(); m++ {
		if m != mode {
			s = s.Contract(m, u[m])
		}
	}
	return s.MatricizeRows(mode)
}

// SemiSparse is a tensor that is sparse in some modes and dense in the
// others: each entry couples one coordinate per remaining sparse mode
// with a dense block over the contracted modes. It is the intermediate
// of ChainTTMc: contracting mode m with Uᵀ turns the sparse mode-m
// coordinate into a dense rank-R_m axis, until one sparse mode is left
// for MatricizeRows.
//
// Block layout: each contraction appends its rank axis as the fastest-
// varying dimension, and contractions proceed in ascending mode order,
// so later original modes always vary faster — matching both the
// Kronecker layout of the TTMc kernels and tensor.Dense's row-major
// order.
type SemiSparse struct {
	Dims        []int     // original mode sizes
	SparseModes []int     // still-sparse modes, ascending
	Keys        [][]int32 // Keys[m] populated only for sparse modes; len = NEntries
	BlockSize   int
	Blocks      []float64 // NEntries * BlockSize
}

// FromCOO wraps a sparse tensor as a fully sparse SemiSparse (block
// size 1), copying the index and value data.
func FromCOO(x *tensor.COO) *SemiSparse {
	order := x.Order()
	s := &SemiSparse{
		Dims:        append([]int(nil), x.Dims...),
		SparseModes: make([]int, order),
		Keys:        make([][]int32, order),
		BlockSize:   1,
		Blocks:      append([]float64(nil), x.Val...),
	}
	for m := 0; m < order; m++ {
		s.SparseModes[m] = m
		s.Keys[m] = append([]int32(nil), x.Idx[m]...)
	}
	return s
}

// NEntries returns the number of semi-sparse entries.
func (s *SemiSparse) NEntries() int {
	if s.BlockSize == 0 {
		return 0
	}
	return len(s.Blocks) / s.BlockSize
}

// Block returns the dense block of entry e.
func (s *SemiSparse) Block(e int) []float64 {
	return s.Blocks[e*s.BlockSize : (e+1)*s.BlockSize]
}

// Contract computes Z = S ×_m Uᵀ for a still-sparse mode m: entries
// agreeing on every other sparse coordinate merge, and each merged
// block becomes Σ_e block_e ⊗ U(key_e, :). The receiver is unchanged.
func (s *SemiSparse) Contract(m int, u *dense.Matrix) *SemiSparse {
	idx := -1
	for _, sm := range s.SparseModes {
		if sm == m {
			idx = m
		}
	}
	if idx == -1 {
		panic("ttm: Contract on a mode that is not sparse")
	}
	rem := make([]int, 0, len(s.SparseModes)-1)
	for _, sm := range s.SparseModes {
		if sm != m {
			rem = append(rem, sm)
		}
	}
	n := s.NEntries()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		ia, ib := perm[a], perm[b]
		for _, sm := range rem {
			ka, kb := s.Keys[sm][ia], s.Keys[sm][ib]
			if ka != kb {
				return ka < kb
			}
		}
		return false
	})
	sameGroup := func(a, b int) bool {
		for _, sm := range rem {
			if s.Keys[sm][a] != s.Keys[sm][b] {
				return false
			}
		}
		return true
	}

	r := u.Cols
	out := &SemiSparse{
		Dims:        s.Dims,
		SparseModes: rem,
		Keys:        make([][]int32, len(s.Keys)),
		BlockSize:   s.BlockSize * r,
	}
	for _, sm := range rem {
		out.Keys[sm] = make([]int32, 0, n)
	}
	i := 0
	for i < n {
		j := i
		start := len(out.Blocks)
		out.Blocks = append(out.Blocks, make([]float64, out.BlockSize)...)
		dst := out.Blocks[start : start+out.BlockSize]
		for j < n && sameGroup(perm[i], perm[j]) {
			e := perm[j]
			urow := u.Row(int(s.Keys[m][e]))
			src := s.Block(e)
			for p, c := range src {
				if c != 0 {
					dense.Axpy(c, urow, dst[p*r:(p+1)*r])
				}
			}
			j++
		}
		for _, sm := range rem {
			out.Keys[sm] = append(out.Keys[sm], s.Keys[sm][perm[i]])
		}
		i = j
	}
	return out
}

// MatricizeRows emits the compacted mode-n matricization of a
// semi-sparse tensor whose only remaining sparse mode is n: rows sorted
// by the mode-n index, one per distinct index, plus the index list.
// This is the final step of a TTM chain.
func (s *SemiSparse) MatricizeRows(n int) (rows []int32, y *dense.Matrix) {
	if len(s.SparseModes) != 1 || s.SparseModes[0] != n {
		panic("ttm: MatricizeRows requires exactly one remaining sparse mode")
	}
	ne := s.NEntries()
	perm := make([]int, ne)
	for i := range perm {
		perm[i] = i
	}
	keys := s.Keys[n]
	sort.Slice(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	rows = make([]int32, ne)
	y = dense.NewMatrix(ne, s.BlockSize)
	for out, e := range perm {
		rows[out] = keys[e]
		copy(y.Row(out), s.Block(e))
	}
	return rows, y
}

func TestFromCOORoundtrip(t *testing.T) {
	x := tensor.NewCOO([]int{3, 4, 5}, 2)
	x.Append([]int{0, 1, 2}, 1.5)
	x.Append([]int{2, 3, 4}, -2)
	s := FromCOO(x)
	if s.NEntries() != 2 || s.BlockSize != 1 {
		t.Fatalf("entries=%d block=%d", s.NEntries(), s.BlockSize)
	}
	if s.Block(0)[0] != 1.5 || s.Block(1)[0] != -2 {
		t.Fatal("blocks wrong")
	}
	if len(s.SparseModes) != 3 {
		t.Fatal("all modes should be sparse")
	}
}

func TestContractMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dims := []int{4, 5, 3}
	x := tensor.NewCOO(dims, 0)
	coord := make([]int, 3)
	for i := 0; i < 25; i++ {
		for m := range coord {
			coord[m] = rng.Intn(dims[m])
		}
		x.Append(coord, rng.NormFloat64())
	}
	x.SortDedup()
	u1 := randomNormal(5, 2, rng)

	s := FromCOO(x).Contract(1, u1)
	if s.BlockSize != 2 {
		t.Fatalf("block size %d", s.BlockSize)
	}
	// Dense reference: Z[i, q, k] = sum_j X[i,j,k] * U1[j,q].
	xd := tensor.DenseFromCOO(x)
	for e := 0; e < s.NEntries(); e++ {
		i := int(s.Keys[0][e])
		k := int(s.Keys[2][e])
		for q := 0; q < 2; q++ {
			var want float64
			for j := 0; j < 5; j++ {
				want += xd.At(i, j, k) * u1.At(j, q)
			}
			if got := s.Block(e)[q]; math.Abs(got-want) > 1e-12 {
				t.Fatalf("entry (%d,%d) q=%d: %v want %v", i, k, q, got, want)
			}
		}
	}
}

func TestContractMergesFibers(t *testing.T) {
	// Two nonzeros in the same mode-1 fiber must merge into one entry.
	x := tensor.NewCOO([]int{2, 3, 2}, 2)
	x.Append([]int{1, 0, 1}, 2)
	x.Append([]int{1, 2, 1}, 3)
	u := dense.FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	s := FromCOO(x).Contract(1, u)
	if s.NEntries() != 1 {
		t.Fatalf("expected 1 merged entry, got %d", s.NEntries())
	}
	// Block = 2*U(0,:) + 3*U(2,:) = (2+3*1, 3*1) = (5, 3).
	if s.Block(0)[0] != 5 || s.Block(0)[1] != 3 {
		t.Fatalf("merged block = %v", s.Block(0))
	}
}

func TestContractInvalidModePanics(t *testing.T) {
	x := tensor.NewCOO([]int{2, 2}, 1)
	x.Append([]int{0, 0}, 1)
	s := FromCOO(x).Contract(0, dense.Identity(2))
	defer func() {
		if recover() == nil {
			t.Fatal("contracting a dense mode should panic")
		}
	}()
	s.Contract(0, dense.Identity(2))
}

func TestMatricizeRowsSortedAndComplete(t *testing.T) {
	x := tensor.NewCOO([]int{5, 3}, 3)
	x.Append([]int{4, 0}, 1)
	x.Append([]int{0, 1}, 2)
	x.Append([]int{2, 2}, 3)
	s := FromCOO(x).Contract(1, dense.FromRows([][]float64{{1}, {1}, {1}}))
	rows, y := s.MatricizeRows(0)
	if len(rows) != 3 || y.Rows != 3 || y.Cols != 1 {
		t.Fatalf("shape: %d rows, %dx%d", len(rows), y.Rows, y.Cols)
	}
	wantRows := []int32{0, 2, 4}
	wantVals := []float64{2, 3, 1}
	for i := range wantRows {
		if rows[i] != wantRows[i] || y.At(i, 0) != wantVals[i] {
			t.Fatalf("row %d: (%d, %v), want (%d, %v)", i, rows[i], y.At(i, 0), wantRows[i], wantVals[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MatricizeRows with two sparse modes should panic")
		}
	}()
	FromCOO(x).MatricizeRows(0)
}

// BenchmarkChainVsFlat is the paper's §V MET comparison at the one layer
// where MET's HOOI and the nonzero-based one differ: each mode's TTMc on
// one thread, by the TTM chain (a semi-sparse intermediate per
// contracted mode; B/op is its size) and by the flat kernel, on gen's
// "random" preset (1K³, 100K nonzeros; the paper's is 10K³ with 1M) at
// ranks 10. The TRSVD and core steps are the same code in both.
//
//	go test -run '^$' -bench ChainVsFlat ./internal/ttm
func BenchmarkChainVsFlat(b *testing.B) {
	cfg, err := gen.Preset("random", 1)
	if err != nil {
		b.Fatal(err)
	}
	x := gen.Random(cfg)
	rng := rand.New(rand.NewSource(1))
	u := make([]*dense.Matrix, x.Order())
	for m := range u {
		u[m] = randomNormal(x.Dims[m], 10, rng)
	}
	sym := symbolic.Build(x, 1)
	for n := range u {
		b.Run(fmt.Sprintf("mode%d/chain", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ChainTTMc(x, n, u)
			}
		})
		b.Run(fmt.Sprintf("mode%d/flat", n), func(b *testing.B) {
			k := NewFlat(x, sym)
			y := dense.NewMatrix(sym.Modes[n].NumRows(), RowSize(u, n))
			k.TTMc(y, n, u, 1) // builds the mode's index streams
			b.ReportAllocs()
			for b.Loop() {
				k.TTMc(y, n, u, 1)
			}
		})
	}
}
