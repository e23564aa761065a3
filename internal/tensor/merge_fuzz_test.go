package tensor

import (
	"testing"
)

// FuzzMergeDelta drives COO.Merge and CSF.Merge with arbitrary
// (possibly malformed) deltas against a fixed receiver: out-of-range
// coordinates must error without mutating the receiver, and every
// accepted delta must leave both formats holding the same canonical
// nonzero multiset (merge-then-canonicalize ==
// concatenate-then-canonicalize), with the CSF passing its structural
// Validate.
func FuzzMergeDelta(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 1, 2, 250}, int16(3))
	f.Add([]byte{0, 0, 0, 255, 255, 255, 7, 7}, int16(1))
	f.Add([]byte{}, int16(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9}, int16(-4))

	dims := []int{7, 9, 11}
	base := NewCOO(dims, 0)
	for i := 0; i < 50; i++ {
		base.Append([]int{(i * 3) % 7, (i * 5) % 9, (i * 7) % 11}, float64(i%11)-5)
	}
	base.SortDedup()

	f.Fuzz(func(t *testing.T, raw []byte, vseed int16) {
		// Decode the byte stream into a delta: triples of coordinate
		// bytes (intentionally unclamped, so out-of-range and negative
		// coordinates appear) with values derived from vseed.
		d := &COO{Dims: dims, Idx: make([][]int32, 3)}
		for i := 0; i+2 < len(raw) && d.NNZ() < 64; i += 3 {
			for m := 0; m < 3; m++ {
				d.Idx[m] = append(d.Idx[m], int32(raw[i+m])-2)
			}
			d.Val = append(d.Val, float64(vseed)+float64(i))
		}

		x := base.Clone()
		c := NewCSF(base, CSFOptions{})
		before := x.Clone()

		info, err := x.Merge(d)
		cinfo, cerr := c.Merge(d)
		if (err == nil) != (cerr == nil) {
			t.Fatalf("formats disagree on delta validity: coo=%v csf=%v", err, cerr)
		}
		if err != nil {
			// Rejected: the receiver must be untouched.
			if x.NNZ() != before.NNZ() {
				t.Fatalf("failed merge changed nnz %d -> %d", before.NNZ(), x.NNZ())
			}
			for i := range x.Val {
				if x.Val[i] != before.Val[i] {
					t.Fatal("failed merge changed a value")
				}
				for m := range dims {
					if x.Idx[m][i] != before.Idx[m][i] {
						t.Fatal("failed merge moved a coordinate")
					}
				}
			}
			if c.NNZ() != before.NNZ() {
				t.Fatal("failed CSF merge changed nnz")
			}
			return
		}
		if info.OldNNZ != before.NNZ() || x.NNZ() != before.NNZ()+info.Appended {
			t.Fatalf("merge accounting inconsistent: %+v nnz=%d", info, x.NNZ())
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("merged CSF fails Validate: %v", err)
		}
		if cinfo.OldNNZ != before.NNZ() || c.NNZ() != before.NNZ()+cinfo.Inserted {
			t.Fatalf("CSF merge accounting inconsistent: %+v nnz=%d", cinfo, c.NNZ())
		}

		// Reference: concatenate and canonicalize.
		ref := before.Clone()
		for i := 0; i < d.NNZ(); i++ {
			for m := range dims {
				ref.Idx[m] = append(ref.Idx[m], d.Idx[m][i])
			}
			ref.Val = append(ref.Val, d.Val[i])
		}
		ref.SortDedup()
		got := x.Clone().SortDedup()
		// Merge keeps exact-zero cancellations; drop them for comparison.
		if !sameCanonical(got, ref) {
			t.Fatal("COO merge diverged from concatenate+SortDedup")
		}
		fromCSF := c.ToCOO().SortDedup()
		if !sameCanonical(fromCSF, ref) {
			t.Fatal("CSF merge diverged from concatenate+SortDedup")
		}
	})
}

// sameCanonical compares two canonicalized tensors treating explicit
// zeros (which Merge retains for position stability, SortDedup drops)
// as absent.
func sameCanonical(a, b *COO) bool {
	ai, bi := 0, 0
	next := func(t *COO, i int) int {
		for i < t.NNZ() && t.Val[i] == 0 {
			i++
		}
		return i
	}
	for {
		ai, bi = next(a, ai), next(b, bi)
		if ai >= a.NNZ() || bi >= b.NNZ() {
			return ai >= a.NNZ() && bi >= b.NNZ()
		}
		for m := range a.Dims {
			if a.Idx[m][ai] != b.Idx[m][bi] {
				return false
			}
		}
		if a.Val[ai] != b.Val[bi] {
			return false
		}
		ai++
		bi++
	}
}
