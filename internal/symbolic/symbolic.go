// Package symbolic implements the symbolic TTMc preprocessing step of
// the paper (§III.A.1): for every mode n it groups the tensor's nonzero
// ids by their mode-n index into update lists ul_n(i), stored as a CSR
// structure over the set J_n of nonempty slices. The structure resolves
// all index computations and write dependencies once, before the HOOI
// iterations, so the numeric TTMc can update each row of Y_(n)
// independently in parallel without locks. It is built once and reused
// by every iteration (and by every run with different ranks).
package symbolic

import (
	"fmt"

	"hypertensor/internal/par"
	"hypertensor/internal/tensor"
)

// Mode is the symbolic structure for one mode: update lists ul_n(i) in
// CSR form. For the r-th nonempty slice (row index Rows[r]), the nonzero
// ids contributing to Y_(n)(Rows[r], :) are NZ[Ptr[r]:Ptr[r+1]].
type Mode struct {
	N    int     // which mode this structure describes
	Rows []int32 // J_n: sorted distinct mode-n indices with nonempty slices
	Ptr  []int32 // row pointers into NZ, len(Rows)+1
	NZ   []int32 // nonzero ids grouped by row; a permutation of 0..nnz-1
	// Pos maps a mode-n index to its position in Rows, or -1 when the
	// slice is empty. Sized Dims[n]; int32 keeps it compact for the
	// multi-million-index modes of the 4-mode datasets.
	Pos []int32
}

// NumRows returns |J_n|, the number of nonempty slices.
func (m *Mode) NumRows() int { return len(m.Rows) }

// RowNZ returns the nonzero ids of the r-th nonempty slice.
func (m *Mode) RowNZ(r int) []int32 { return m.NZ[m.Ptr[r]:m.Ptr[r+1]] }

// RowWeights returns the per-row nonzero counts — the TTMc cost of each
// row, which the balanced schedule partitions over.
func (m *Mode) RowWeights() []int64 { return rowWeights(m.Ptr) }

func rowWeights(ptr []int32) []int64 {
	w := make([]int64, len(ptr)-1)
	for r := range w {
		w[r] = int64(ptr[r+1] - ptr[r])
	}
	return w
}

// ChainCache holds a balanced chain partition of a CSR structure's rows
// (par.PartitionChains over the row lengths), so that every sweep after
// the first reuses it. The zero value is empty; not safe for concurrent
// callers.
type ChainCache struct {
	bounds  []int32
	threads int
}

// Partition returns the partition of the rows ptr delimits for threads
// workers, computed on first use and when threads changed.
func (c *ChainCache) Partition(ptr []int32, threads int) []int32 {
	if c.bounds == nil || c.threads != threads {
		c.bounds, c.threads = par.PartitionChains(rowWeights(ptr), threads), threads
	}
	return c.bounds
}

// Gather returns keys[t] in the order of ids, s[t][p] == keys[t][ids[p]],
// for every t with keys[t] set (s[t] is nil where it is not): the
// "resolve all index computations once" of §III.A.1 taken to the index
// arrays, so that a loop over a list reads its coordinates in sequence
// instead of through the list. Where ids is the identity every stream
// aliases its keys; otherwise each is a copy, 4 bytes an entry, summed
// in bytes. The TTMc kernel's root children (ttm.DTree) use it.
func Gather(ids []int32, keys [][]int32) (s [][]int32, bytes int64) {
	identity := true
	for p, id := range ids {
		if int(id) != p {
			identity = false
			break
		}
	}
	s = make([][]int32, len(keys))
	for t, k := range keys {
		switch {
		case k == nil:
		case identity:
			s[t] = k[:len(ids):len(ids)]
		default:
			st := make([]int32, len(ids))
			for p, id := range ids {
				st[p] = k[id]
			}
			s[t], bytes = st, bytes+4*int64(len(st))
		}
	}
	return s, bytes
}

// Select returns the mode's structure restricted to the rows at the
// given ascending positions: the same update lists in the same order,
// for those rows only. A kernel driven by it computes exactly the
// selected rows of Y_(n), bit for bit — how a coarse-grain rank, whose
// local tensor also stores nonzeros it holds through other modes,
// evaluates just the slices it owns (Algorithm 4 lines 3-4).
func (m *Mode) Select(positions []int32) Mode {
	out := Mode{
		N:    m.N,
		Rows: make([]int32, len(positions)),
		Ptr:  make([]int32, 1, len(positions)+1),
		Pos:  make([]int32, len(m.Pos)),
	}
	for i := range out.Pos {
		out.Pos[i] = -1
	}
	for k, p := range positions {
		out.Rows[k] = m.Rows[p]
		out.Pos[m.Rows[p]] = int32(k)
		out.NZ = append(out.NZ, m.RowNZ(int(p))...)
		out.Ptr = append(out.Ptr, int32(len(out.NZ)))
	}
	return out
}

// Structure bundles the per-mode symbolic data for a tensor.
type Structure struct {
	Modes []Mode
}

// Build computes the symbolic TTMc structure for every mode of t. The
// per-mode constructions are independent and run in parallel (the paper
// parallelizes exactly this way). Each mode is a counting sort over its
// index stream (histogram, prefix sum, scatter). On an ALTO tensor the
// streams are first recovered from the mode-bit boundaries of the
// linearized keys in one parallel sweep (each key is de-linearized once
// for all modes).
func Build(t tensor.Sparse, threads int) *Structure {
	s := &Structure{Modes: make([]Mode, t.Order())}
	if a, ok := t.(*tensor.ALTO); ok {
		streams := a.MaterializeStreams(threads)
		par.For(t.Order(), threads, 1, func(n int) {
			s.Modes[n] = buildMode(streams[n], t.Shape()[n], n)
		})
		return s
	}
	par.For(t.Order(), threads, 1, func(n int) {
		s.Modes[n] = buildMode(t.ModeStream(n), t.Shape()[n], n)
	})
	return s
}

func buildMode(idx []int32, dim, n int) Mode {
	nnz := len(idx)
	counts := make([]int32, dim)
	nz := make([]int32, nnz)
	groupByKey(idx, nil, nz, counts)
	// counts now holds per-index group end offsets; collect nonempty
	// rows, their pointers, and the Pos map from them.
	pos := make([]int32, dim)
	rows := make([]int32, 0, dim)
	ptr := make([]int32, 1, dim+1)
	prev := int32(0)
	for i, end := range counts {
		if end > prev {
			pos[i] = int32(len(rows))
			rows = append(rows, int32(i))
			ptr = append(ptr, end)
		} else {
			pos[i] = -1
		}
		prev = end
	}
	return Mode{N: n, Rows: rows, Ptr: ptr, NZ: nz, Pos: pos}
}

// Validate checks the structural invariants: Rows sorted and within
// range, Ptr monotone covering exactly nnz ids, NZ a permutation of
// 0..nnz-1 where every id lands in the row matching its mode index, and
// Pos consistent with Rows. Used by tests and available to callers
// ingesting untrusted structures.
func (s *Structure) Validate(t tensor.Sparse) error {
	if len(s.Modes) != t.Order() {
		return fmt.Errorf("symbolic: %d modes for order-%d tensor", len(s.Modes), t.Order())
	}
	for n := range s.Modes {
		m := &s.Modes[n]
		stream := t.ModeStream(n)
		if m.N != n {
			return fmt.Errorf("symbolic: mode %d labeled %d", n, m.N)
		}
		if len(m.Ptr) != len(m.Rows)+1 || int(m.Ptr[len(m.Rows)]) != t.NNZ() {
			return fmt.Errorf("symbolic: mode %d pointer structure inconsistent", n)
		}
		seen := make([]bool, t.NNZ())
		for r := range m.Rows {
			if r > 0 && m.Rows[r] <= m.Rows[r-1] {
				return fmt.Errorf("symbolic: mode %d rows not strictly sorted", n)
			}
			if m.Ptr[r] > m.Ptr[r+1] {
				return fmt.Errorf("symbolic: mode %d ptr not monotone", n)
			}
			if m.Pos[m.Rows[r]] != int32(r) {
				return fmt.Errorf("symbolic: mode %d Pos inconsistent at row %d", n, r)
			}
			for _, id := range m.RowNZ(r) {
				if id < 0 || int(id) >= t.NNZ() {
					return fmt.Errorf("symbolic: mode %d nonzero id %d out of range", n, id)
				}
				if seen[id] {
					return fmt.Errorf("symbolic: mode %d nonzero id %d duplicated", n, id)
				}
				seen[id] = true
				if stream[id] != m.Rows[r] {
					return fmt.Errorf("symbolic: mode %d nonzero %d in wrong row", n, id)
				}
			}
		}
		for id, ok := range seen {
			if !ok {
				return fmt.Errorf("symbolic: mode %d missing nonzero id %d", n, id)
			}
		}
		for i, p := range m.Pos {
			if p == -1 {
				continue
			}
			if int(p) >= len(m.Rows) || m.Rows[p] != int32(i) {
				return fmt.Errorf("symbolic: mode %d Pos[%d] broken", n, i)
			}
		}
	}
	return nil
}
