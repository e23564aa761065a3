package tensor

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"
)

// Shapes whose coordinates do not linearize into 64 bits: the paper's
// two 4-mode tensors (Table I: Delicious, Flickr) and an order-8 shape.
var wideShapes = [][]int{
	{532_924, 17_262_471, 2_480_308, 1_443},
	{319_686, 28_153_045, 1_607_191, 731},
	{2000, 3000, 1500, 2500, 1800, 2200, 1700, 2100},
}

// clusteredCOO draws nnz nonzeros from the top corner of the shape —
// spread candidates in each of the first three modes, one of two tails
// in the rest — so that coordinates repeat and the largest indices of
// every mode occur.
func clusteredCOO(rng *rand.Rand, dims []int, nnz, spread int) *COO {
	x := NewCOO(dims, nnz)
	coord := make([]int, len(dims))
	for i := 0; i < nnz; i++ {
		tail := rng.Intn(2)
		for m, d := range dims {
			if coord[m] = d - 1 - tail; m < 3 {
				coord[m] = d - 1 - rng.Intn(spread)
			}
		}
		x.Append(coord, float64(rng.Intn(7)-3))
	}
	return x
}

// dedupReference canonicalizes x the slow way: coordinates compared as
// tuples by insertion sort, duplicates summed in appearance order.
func dedupReference(x *COO) (coords [][]int, vals []float64) {
	less := func(a, b []int) bool {
		for m := range a {
			if a[m] != b[m] {
				return a[m] < b[m]
			}
		}
		return false
	}
	for i := 0; i < x.NNZ(); i++ {
		c := x.Coord(i, make([]int, x.Order()))
		j := 0
		for j < len(coords) && less(coords[j], c) {
			j++
		}
		if j < len(coords) && reflect.DeepEqual(coords[j], c) {
			vals[j] += x.Val[i]
			continue
		}
		coords = append(coords[:j], append([][]int{c}, coords[j:]...)...)
		vals = append(vals[:j], append([]float64{x.Val[i]}, vals[j:]...)...)
	}
	out, outV := coords[:0], vals[:0]
	for j, v := range vals {
		if v != 0 {
			out, outV = append(out, coords[j]), append(outV, v)
		}
	}
	return out, outV
}

func TestSortDedupWideShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dims := range wideShapes {
		if keyWords(dims) != 2 {
			t.Fatalf("dims %v take %d key words; the test wants a shape past 64 bits", dims, keyWords(dims))
		}
		x := clusteredCOO(rng, dims, 300, 2)
		coords, vals := dedupReference(x)
		x.SortDedup()
		if x.NNZ() != len(vals) {
			t.Fatalf("dims %v: %d nonzeros after dedup, want %d", dims, x.NNZ(), len(vals))
		}
		coord := make([]int, len(dims))
		for i := range vals {
			if !reflect.DeepEqual(x.Coord(i, coord), coords[i]) || x.Val[i] != vals[i] {
				t.Fatalf("dims %v: nonzero %d is %v=%v, want %v=%v", dims, i, coord, x.Val[i], coords[i], vals[i])
			}
		}
	}
}

// On a shape where both apply, the tuple comparison and the 64-bit keys
// give the same tensor bit for bit, under any mode ordering.
func TestSortDedupTupleMatchesKeyed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	dims := []int{9, 7, 5, 6}
	for _, order := range [][]int{{0, 1, 2, 3}, {2, 0, 3, 1}} {
		x := NewCOO(dims, 0)
		coord := make([]int, len(dims))
		for i := 0; i < 4000; i++ {
			for m, d := range dims {
				coord[m] = rng.Intn(d)
			}
			x.Append(coord, rng.NormFloat64())
		}
		keyed, tuple := x.Clone(), x.Clone()
		keyed.sortDedup(order, true)
		tuple.sortDedup(order, false)
		if keyed.NNZ() == x.NNZ() {
			t.Fatal("the input has no duplicates to sum")
		}
		if !reflect.DeepEqual(keyed.Idx, tuple.Idx) || !reflect.DeepEqual(keyed.Val, tuple.Val) {
			t.Fatalf("order %v: tuple-compared dedup differs from the keyed one", order)
		}
	}
}

func TestWideKeyMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, dims := range wideShapes {
		x := clusteredCOO(rng, dims, 20, 2)
		for m, d := range dims { // one uniformly drawn nonzero, too
			x.Idx[m][0] = int32(rng.Intn(d))
		}
		for i := 0; i < x.NNZ(); i++ {
			want := new(big.Int)
			for m, d := range dims {
				want.Mul(want, big.NewInt(int64(d)))
				want.Add(want, big.NewInt(int64(x.Idx[m][i])))
			}
			k := x.wideKey(i)
			got := new(big.Int).Lsh(new(big.Int).SetUint64(k[0]), 64)
			got.Add(got, new(big.Int).SetUint64(k[1]))
			if got.Cmp(want) != 0 {
				t.Fatalf("dims %v nonzero %d: wide key %v, want %v", dims, i, got, want)
			}
		}
	}
}

// A stream of deltas merged through a retained index on a wide shape
// leaves the tensor a concatenate-and-canonicalize would.
func TestCOOMergeWideShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, dims := range wideShapes {
		x := clusteredCOO(rng, dims, 30, 3).SortDedup()
		concat := x.Clone()
		ix := x.NewMergeIndex()
		for step := 0; step < 3; step++ {
			d := clusteredCOO(rng, dims, 40, 3)
			before := x.NNZ()
			info, err := x.MergeIndexed(d, ix)
			if err != nil {
				t.Fatalf("dims %v step %d: %v", dims, step, err)
			}
			if info.Appended == 0 || len(info.Updated) == 0 {
				t.Fatalf("dims %v step %d: merge info %+v exercises only one path", dims, step, info)
			}
			if x.NNZ() != before+info.Appended {
				t.Fatalf("dims %v step %d: %d nonzeros after appending %d to %d", dims, step, x.NNZ(), info.Appended, before)
			}
			for i := 0; i < d.NNZ(); i++ {
				for m := range dims {
					concat.Idx[m] = append(concat.Idx[m], d.Idx[m][i])
				}
				concat.Val = append(concat.Val, d.Val[i])
			}
		}
		if !sameCanonical(x.Clone().SortDedup(), concat.SortDedup()) {
			t.Fatalf("dims %v: merged stream differs from concatenate + SortDedup", dims)
		}
	}
}

// Past 128 bits the merge has no key to index by: it says so and leaves
// the receiver alone. The sort has no such limit.
func TestMergeRejectsShapesPast128Bits(t *testing.T) {
	dims := []int{1 << 30, 1 << 30, 1 << 30, 1 << 30, 1 << 30}
	x := NewCOO(dims, 0)
	x.Append([]int{5, 4, 3, 2, 1}, 1)
	x.Append([]int{1<<30 - 1, 0, 0, 0, 1<<30 - 1}, 2)
	x.Append([]int{5, 4, 3, 2, 1}, 3)
	d := x.Clone()
	if _, err := x.Merge(d); err == nil {
		t.Fatal("a 150-bit shape was merged")
	}
	if x.NNZ() != 3 {
		t.Fatalf("the rejected merge left %d nonzeros, want 3", x.NNZ())
	}
	if x.SortDedup(); x.NNZ() != 2 || x.Val[0] != 4 || x.Val[1] != 2 {
		t.Fatalf("dedup on a 150-bit shape gave %v", x)
	}
}
