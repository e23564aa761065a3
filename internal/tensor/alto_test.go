package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestALTOLayout(t *testing.T) {
	// dims {6,4}: mode 0 needs 3 bits, mode 1 needs 2; round-robin from
	// the LSB puts mode 0 at positions 0,2,4 and mode 1 at 1,3.
	bits, pos, total := altoLayout([]int{6, 4})
	if !reflect.DeepEqual(bits, []int{3, 2}) || total != 5 {
		t.Fatalf("bits=%v total=%d", bits, total)
	}
	if !reflect.DeepEqual(pos[0], []uint{0, 2, 4}) || !reflect.DeepEqual(pos[1], []uint{1, 3}) {
		t.Fatalf("positions %v", pos)
	}
	// A length-1 mode gets zero bits and drops out of the rotation.
	bits, pos, total = altoLayout([]int{1, 5, 3})
	if !reflect.DeepEqual(bits, []int{0, 3, 2}) || total != 5 {
		t.Fatalf("bits=%v total=%d", bits, total)
	}
	if len(pos[0]) != 0 {
		t.Fatalf("length-1 mode was allocated bits: %v", pos[0])
	}
	if got := ALTOTotalBits([]int{1 << 20, 1 << 20, 1 << 20}); got != 60 {
		t.Fatalf("ALTOTotalBits = %d, want 60", got)
	}
}

func TestALTOMatchesCanonicalCOO(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][]int{{6, 4}, {9, 7, 5}, {5, 4, 3, 6}, {1, 8, 3}} {
		x := randomCOO(rng, dims, 120)
		a := NewALTO(x, ALTOOptions{})
		if err := a.Validate(); err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		ref := x.Clone().SortDedup()
		if a.NNZ() != ref.NNZ() {
			t.Fatalf("dims %v: nnz %d vs %d", dims, a.NNZ(), ref.NNZ())
		}
		// The storage orders differ (interleaved-key vs lexicographic),
		// but the canonical nonzero sets must be identical.
		back := a.ToCOO().SortDedup()
		if !reflect.DeepEqual(back.Idx, ref.Idx) || !reflect.DeepEqual(back.Val, ref.Val) {
			t.Fatalf("dims %v: ALTO round trip diverged from canonical COO", dims)
		}
		// Coord, ModeIndex, and ModeStream must agree with each other.
		coord := make([]int, len(dims))
		for i := 0; i < a.NNZ(); i++ {
			a.Coord(i, coord)
			for m := range dims {
				if int32(coord[m]) != a.ModeIndex(i, m) || a.ModeStream(m)[i] != a.ModeIndex(i, m) {
					t.Fatalf("dims %v nz %d mode %d: decode mismatch", dims, i, m)
				}
			}
		}
		if got, want := a.Norm(1), ref.Norm(1); math.Abs(got-want) > 1e-12*want {
			t.Fatalf("dims %v: norm %v vs %v", dims, got, want)
		}
		if a.IndexBytes() != 8*int64(a.NNZ()) {
			t.Fatalf("dims %v: index bytes %d", dims, a.IndexBytes())
		}
		if a.Split() {
			t.Fatalf("dims %v: unexpectedly split", dims)
		}
	}
}

func TestALTODedupEquivalence(t *testing.T) {
	// Raw duplicate (and cancelling) entries must produce bitwise the
	// same ALTO as building from an already canonicalized tensor.
	x := NewCOO([]int{4, 3, 5}, 0)
	x.Append([]int{1, 2, 3}, 2)
	x.Append([]int{0, 0, 0}, 1)
	x.Append([]int{1, 2, 3}, 3)
	x.Append([]int{2, 1, 4}, 5)
	x.Append([]int{2, 1, 4}, -5) // cancels to exact zero: dropped
	x.Append([]int{3, 0, 1}, 4)
	raw := NewALTO(x, ALTOOptions{})
	canon := NewALTO(x.Clone().SortDedup(), ALTOOptions{})
	if !reflect.DeepEqual(raw.lo, canon.lo) || !reflect.DeepEqual(raw.val, canon.val) {
		t.Fatalf("raw build %v/%v vs canonical %v/%v", raw.lo, raw.val, canon.lo, canon.val)
	}
	if raw.NNZ() != 3 {
		t.Fatalf("nnz %d after dedup, want 3", raw.NNZ())
	}
}

func TestALTOEmpty(t *testing.T) {
	x := NewCOO([]int{5, 6, 7}, 0)
	a := NewALTO(x, ALTOOptions{})
	if a.NNZ() != 0 || a.Norm(4) != 0 || a.IndexBytes() != 0 {
		t.Fatalf("empty ALTO: nnz=%d norm=%v bytes=%d", a.NNZ(), a.Norm(4), a.IndexBytes())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		if len(a.ModeStream(m)) != 0 {
			t.Fatal("empty ALTO has a nonempty stream")
		}
	}
	if back := a.ToCOO(); back.NNZ() != 0 {
		t.Fatal("empty ALTO round trip not empty")
	}
	if !strings.Contains(a.String(), "nnz=0") {
		t.Fatalf("String: %s", a.String())
	}
}

func TestALTOSplitKeys(t *testing.T) {
	// Four 17-bit modes need 68 interleaved bits: the split two-word
	// fallback, 16 index bytes per nonzero.
	dims := []int{1 << 17, 1 << 17, 1 << 17, 1 << 17}
	if got := ALTOTotalBits(dims); got != 68 {
		t.Fatalf("ALTOTotalBits = %d, want 68", got)
	}
	rng := rand.New(rand.NewSource(13))
	x := randomCOO(rng, dims, 300)
	a := NewALTO(x, ALTOOptions{})
	if !a.Split() || a.TotalBits() != 68 {
		t.Fatalf("split=%v bits=%d", a.Split(), a.TotalBits())
	}
	if a.IndexBytes() != 16*int64(a.NNZ()) {
		t.Fatalf("index bytes %d for %d nonzeros", a.IndexBytes(), a.NNZ())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// COO.SortDedup cannot canonicalize this shape (its lexicographic
	// key would overflow 64 bits — the reason the split path exists), so
	// compare the nonzero sets through a coordinate map.
	ref := map[[4]int32]float64{}
	for i := 0; i < x.NNZ(); i++ {
		var k [4]int32
		for m := range dims {
			k[m] = x.Idx[m][i]
		}
		ref[k] += x.Val[i]
	}
	if a.NNZ() != len(ref) {
		t.Fatalf("nnz %d, want %d", a.NNZ(), len(ref))
	}
	coord := make([]int, 4)
	for i := 0; i < a.NNZ(); i++ {
		a.Coord(i, coord)
		var k [4]int32
		for m := range dims {
			k[m] = int32(coord[m])
		}
		if v, ok := ref[k]; !ok || v != a.Value(i) {
			t.Fatalf("nz %d at %v: value %v, want %v (present=%v)", i, coord, a.Value(i), v, ok)
		}
	}
}

func TestALTOOverwideShapePanics(t *testing.T) {
	dims := []int{1 << 26, 1 << 26, 1 << 26, 1 << 26, 1 << 26} // 130 bits
	if ALTOTotalBits(dims) <= altoMaxBits {
		t.Fatal("test shape not overwide")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewALTO accepted a >128-bit shape")
		}
	}()
	NewALTO(NewCOO(dims, 0), ALTOOptions{})
}

func TestALTOOutOfRangePanics(t *testing.T) {
	x := &COO{Dims: []int{4, 4}, Idx: [][]int32{{1, 9}, {2, 0}}, Val: []float64{1, 2}}
	defer func() {
		if recover() == nil {
			t.Fatal("NewALTO accepted an out-of-range coordinate")
		}
	}()
	NewALTO(x, ALTOOptions{})
}

func TestALTOBuildThreadDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := randomCOO(rng, []int{40, 30, 20}, 500)
	base := NewALTO(x, ALTOOptions{Threads: 1})
	for _, th := range []int{2, 4, 8} {
		a := NewALTO(x, ALTOOptions{Threads: th})
		if !reflect.DeepEqual(a.lo, base.lo) || !reflect.DeepEqual(a.val, base.val) {
			t.Fatalf("threads=%d build differs from single-threaded", th)
		}
	}
	// MaterializeStreams must agree with per-mode ModeStream decodes for
	// any thread count.
	want := [][]int32{base.ModeStream(0), base.ModeStream(1), base.ModeStream(2)}
	for _, th := range []int{1, 3, 8} {
		a := NewALTO(x, ALTOOptions{})
		got := a.MaterializeStreams(th)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("threads=%d: MaterializeStreams diverged", th)
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestALTOCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	x := randomCOO(rng, []int{8, 7, 6}, 60)
	a := NewALTO(x, ALTOOptions{})
	a.ModeStream(1) // seed one cache pre-clone
	c := a.Clone()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	beforeLo := append([]uint64(nil), a.lo...)
	beforeVal := append([]float64(nil), a.val...)
	for i := range c.val {
		c.lo[i]++
		c.val[i] = -c.val[i]
	}
	if !reflect.DeepEqual(a.lo, beforeLo) || !reflect.DeepEqual(a.val, beforeVal) {
		t.Fatal("writing to a clone mutated the original")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestALTOOrder2(t *testing.T) {
	// Order-2 tensors (sparse matrices) exercise the smallest
	// interleaving rotation.
	rng := rand.New(rand.NewSource(37))
	x := randomCOO(rng, []int{50, 3}, 70)
	a := NewALTO(x, ALTOOptions{})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	ref := x.Clone().SortDedup()
	back := a.ToCOO().SortDedup()
	if !reflect.DeepEqual(back.Idx, ref.Idx) || !reflect.DeepEqual(back.Val, ref.Val) {
		t.Fatal("order-2 round trip diverged")
	}
}
