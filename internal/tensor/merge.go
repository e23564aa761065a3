package tensor

import (
	"fmt"
	"math/bits"
	"slices"
)

// MergeInfo reports what a COO delta merge did, in terms the incremental
// layers above the storage need: which existing storage positions had
// their value changed (positions are stable — Merge never moves an
// existing nonzero), and how many brand-new nonzeros were appended at
// the tail (their ids are OldNNZ..OldNNZ+Appended-1).
type MergeInfo struct {
	// Updated lists the storage positions of existing nonzeros whose
	// value changed, ascending.
	Updated []int32
	// Appended is the number of new coordinates appended at the tail.
	Appended int
	// OldNNZ is the receiver's nonzero count before the merge.
	OldNNZ int
}

// validateDelta runs the pre-mutation checks of the delta-merge entry
// points (COO.MergeIndexed, CSF.Merge) against the receiver's shape:
// order and mode sizes must match, every coordinate must be in range,
// and the index streams must be consistent. Nothing may be mutated
// before this passes.
func validateDelta(dims []int, delta *COO) error {
	if delta == nil {
		return fmt.Errorf("tensor: nil delta")
	}
	if delta.Order() != len(dims) {
		return fmt.Errorf("tensor: delta has order %d, tensor has %d", delta.Order(), len(dims))
	}
	for m, d := range dims {
		if delta.Dims[m] != d {
			return fmt.Errorf("tensor: delta mode-%d size %d does not match tensor size %d", m, delta.Dims[m], d)
		}
	}
	for m := range delta.Idx {
		if len(delta.Idx[m]) != delta.NNZ() {
			return fmt.Errorf("tensor: delta index stream %d has %d entries for %d nonzeros", m, len(delta.Idx[m]), delta.NNZ())
		}
		for i, c := range delta.Idx[m] {
			if c < 0 || int(c) >= dims[m] {
				return fmt.Errorf("tensor: delta nonzero %d coordinate %d out of range [0,%d) in mode %d", i, c, dims[m], m)
			}
		}
	}
	return nil
}

// MergeIndex is a reusable coordinate-lookup index for repeated Merge
// calls on one evolving tensor. A one-shot Merge hashes every existing
// nonzero to find duplicates — O(nnz) per call, which would dominate a
// resident engine ingesting small deltas. An index built once via
// NewMergeIndex amortizes that: MergeIndexed extends it with the
// appended tail after each merge, so successive ingests cost only the
// delta. The index is only valid while the tensor mutates through
// MergeIndexed (stable ids); it must not be shared between tensors.
type MergeIndex struct {
	owner *COO
	// pos maps a linearized coordinate (wideKey) to its storage position
	// by the low word alone; wide does, by both words, for shapes whose
	// coordinates do not linearize into 64 bits. Exactly one of the two
	// is non-nil.
	pos  map[uint64]int32
	wide map[[2]uint64]int32
	n    int // nonzeros indexed so far
}

// NewMergeIndex returns an empty index bound to t; the first
// MergeIndexed call populates it.
func (t *COO) NewMergeIndex() *MergeIndex {
	if keyWords(t.Dims) == 1 {
		return &MergeIndex{owner: t, pos: make(map[uint64]int32, t.NNZ())}
	}
	return &MergeIndex{owner: t, wide: make(map[[2]uint64]int32, t.NNZ())}
}

// wideKey is the linearized coordinate of nonzero i in 128 bits, high
// word first. It is only valid for shapes of at most two key words,
// which MergeIndexed checks.
func (t *COO) wideKey(i int) (k [2]uint64) {
	for m, d := range t.Dims {
		hi, lo := bits.Mul64(k[1], uint64(d))
		lo, carry := bits.Add64(lo, uint64(t.Idx[m][i]), 0)
		k[0], k[1] = k[0]*uint64(d)+hi+carry, lo
	}
	return k
}

// sync indexes the nonzeros appended since the last call.
func (ix *MergeIndex) sync() {
	t := ix.owner
	for ; ix.n < t.NNZ(); ix.n++ {
		if k := t.wideKey(ix.n); ix.pos != nil {
			ix.pos[k[1]] = int32(ix.n)
		} else {
			ix.wide[k] = int32(ix.n)
		}
	}
}

// find returns the storage position of the nonzero with the coordinates
// of d's nonzero i, if the index holds one.
func (ix *MergeIndex) find(d *COO, i int) (int32, bool) {
	k := d.wideKey(i)
	if ix.pos != nil {
		p, ok := ix.pos[k[1]]
		return p, ok
	}
	p, ok := ix.wide[k]
	return p, ok
}

// Merge ingests a delta tensor: for every delta nonzero whose
// coordinates already exist in the receiver the values are summed in
// place, and genuinely new coordinates are appended at the tail in the
// delta's canonical (sorted) order. Existing storage positions never
// move and entries are never dropped — a sum that cancels to exactly
// zero keeps its (zero-valued) entry — so nonzero ids stay stable,
// which is what the incremental symbolic and dimension-tree update
// paths key on. The receiver therefore need not stay globally sorted;
// callers that want the canonical layout can SortDedup afterwards.
//
// The delta is canonicalized first with the standard sort-dedup pass
// (duplicate coordinates within the delta are summed; exact-zero sums
// are dropped), without mutating the caller's delta. The whole delta is
// validated before the first mutation: a shape mismatch or an
// out-of-range coordinate returns an error and leaves the receiver
// untouched.
//
// Merge builds a fresh coordinate index per call; streaming callers
// should hold a MergeIndex and use MergeIndexed.
func (t *COO) Merge(delta *COO) (*MergeInfo, error) {
	return t.MergeIndexed(delta, nil)
}

// MergeIndexed is Merge with a caller-retained MergeIndex (see
// NewMergeIndex); nil behaves like Merge. The index is kept in sync
// with the appended nonzeros, so a resident engine's ingest cost is
// proportional to the delta, not the tensor.
func (t *COO) MergeIndexed(delta *COO, ix *MergeIndex) (*MergeInfo, error) {
	if err := validateDelta(t.Dims, delta); err != nil {
		return nil, err
	}
	if keyWords(t.Dims) > 2 {
		return nil, fmt.Errorf("tensor: shape %v is too large for the merge index's 128-bit coordinate keys", t.Dims)
	}
	if ix != nil && ix.owner != t {
		return nil, fmt.Errorf("tensor: merge index belongs to a different tensor")
	}
	info := &MergeInfo{OldNNZ: t.NNZ()}
	if delta.NNZ() == 0 {
		return info, nil
	}
	d := delta.Clone().SortDedup()

	if ix == nil {
		ix = t.NewMergeIndex()
	}
	ix.sync()
	for i := 0; i < d.NNZ(); i++ {
		if p, ok := ix.find(d, i); ok {
			t.Val[p] += d.Val[i]
			info.Updated = append(info.Updated, p)
		} else {
			for m := range t.Idx {
				t.Idx[m] = append(t.Idx[m], d.Idx[m][i])
			}
			t.Val = append(t.Val, d.Val[i])
			info.Appended++
		}
	}
	ix.sync()
	// Delta entries were visited in sorted-key order, but the positions
	// they update are in the receiver's (arbitrary) storage order.
	slices.Sort(info.Updated)
	return info, nil
}
