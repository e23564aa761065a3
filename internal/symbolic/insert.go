package symbolic

import (
	"fmt"
	"sort"

	"hypertensor/internal/tensor"
)

// Clone returns a deep copy of the structure (the cached schedule
// partitions and index streams are dropped; they rebuild on first use).
// A resident engine clones the plan's structure before its first
// incremental Insert so the plan stays reusable.
func (s *Structure) Clone() *Structure {
	out := &Structure{Modes: make([]Mode, len(s.Modes))}
	for n := range s.Modes {
		m := &s.Modes[n]
		out.Modes[n] = Mode{
			N:    m.N,
			Rows: append([]int32(nil), m.Rows...),
			Ptr:  append([]int32(nil), m.Ptr...),
			NZ:   append([]int32(nil), m.NZ...),
			Pos:  append([]int32(nil), m.Pos...),
		}
	}
	return out
}

// Insert incrementally maintains the update lists after the tensor
// grew: nonzeros with ids oldNNZ..t.NNZ()-1 were appended to t (the
// stable-id delta-merge discipline of tensor.COO.Merge — existing ids
// never move). Only the touched slices' update lists change: each
// appended id is spliced into its row (appended ids exceed every
// existing id, so rows keep the ascending-id order Build produces), and
// slices that become nonempty are inserted into the row set at their
// sorted position. The result is identical to rebuilding the structure
// from the merged tensor — Insert is the O(nnz + delta) splice that
// avoids the per-mode counting sorts.
//
// The returned list holds, per mode, the ascending slice indices whose
// update lists changed. Value-only mutations do not alter the symbolic
// structure and need no Insert.
func (s *Structure) Insert(t tensor.Sparse, oldNNZ int) ([][]int32, error) {
	if len(s.Modes) != t.Order() {
		return nil, fmt.Errorf("symbolic: %d modes for order-%d tensor", len(s.Modes), t.Order())
	}
	nnz := t.NNZ()
	if oldNNZ < 0 || oldNNZ > nnz {
		return nil, fmt.Errorf("symbolic: old nonzero count %d outside [0,%d]", oldNNZ, nnz)
	}
	touched := make([][]int32, t.Order())
	k := nnz - oldNNZ
	if k == 0 {
		return touched, nil
	}
	for n := range s.Modes {
		m := &s.Modes[n]
		if int(m.Ptr[len(m.Rows)]) != oldNNZ {
			return nil, fmt.Errorf("symbolic: mode %d covers %d nonzeros, expected %d before the append", n, m.Ptr[len(m.Rows)], oldNNZ)
		}
		idx := t.ModeStream(n)
		dim := t.Shape()[n]

		// Appended ids grouped by slice: a stable sort keeps ids
		// ascending within each slice.
		ids := make([]int32, k)
		for i := range ids {
			ids[i] = int32(oldNNZ + i)
		}
		sort.SliceStable(ids, func(a, b int) bool { return idx[ids[a]] < idx[ids[b]] })

		newRows := make([]int32, 0, len(m.Rows)+k)
		newPtr := make([]int32, 1, len(m.Rows)+k+1)
		newNZ := make([]int32, 0, nnz)
		tl := make([]int32, 0, k)
		firstInserted := -1

		r, j := 0, 0
		emit := func(row int32, old int) {
			if old >= 0 {
				newNZ = append(newNZ, m.RowNZ(old)...)
			}
			added := false
			for j < k && idx[ids[j]] == row {
				newNZ = append(newNZ, ids[j])
				added = true
				j++
			}
			if added {
				tl = append(tl, row)
			}
			if old < 0 && firstInserted < 0 {
				firstInserted = len(newRows)
			}
			newRows = append(newRows, row)
			newPtr = append(newPtr, int32(len(newNZ)))
		}
		for r < len(m.Rows) || j < k {
			switch {
			case j >= k || (r < len(m.Rows) && m.Rows[r] <= idx[ids[j]]):
				emit(m.Rows[r], r)
				r++
			default:
				row := idx[ids[j]]
				if int(row) < 0 || int(row) >= dim {
					return nil, fmt.Errorf("symbolic: mode %d appended index %d out of range [0,%d)", n, row, dim)
				}
				emit(row, -1)
			}
		}
		m.Rows, m.Ptr, m.NZ = newRows, newPtr, newNZ
		// Positions shift only from the first newly inserted row on.
		if firstInserted >= 0 {
			for p := firstInserted; p < len(newRows); p++ {
				m.Pos[newRows[p]] = int32(p)
			}
		}
		// The row weights changed, the list moved and the merge may have
		// regrown the arrays an identity list aliased.
		m.chains, m.streams, m.streamsOf, m.streamBytes = ChainCache{}, nil, nil, 0
		touched[n] = tl
	}
	return touched, nil
}
