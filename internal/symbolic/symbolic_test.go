package symbolic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
)

func smallTensor() *tensor.COO {
	x := tensor.NewCOO([]int{3, 4, 2}, 5)
	x.Append([]int{0, 0, 0}, 1)
	x.Append([]int{0, 1, 1}, 2)
	x.Append([]int{2, 0, 0}, 3)
	x.Append([]int{2, 3, 1}, 4)
	x.Append([]int{2, 3, 0}, 5)
	return x
}

func TestBuildSmall(t *testing.T) {
	x := smallTensor()
	s := Build(x, 1)
	if err := s.Validate(x); err != nil {
		t.Fatal(err)
	}
	m0 := &s.Modes[0]
	if m0.NumRows() != 2 {
		t.Fatalf("mode 0: %d nonempty rows, want 2 (index 1 is empty)", m0.NumRows())
	}
	if m0.Rows[0] != 0 || m0.Rows[1] != 2 {
		t.Fatalf("mode 0 rows = %v", m0.Rows)
	}
	if len(m0.RowNZ(0)) != 2 || len(m0.RowNZ(1)) != 3 {
		t.Fatalf("mode 0 row sizes: %d, %d", len(m0.RowNZ(0)), len(m0.RowNZ(1)))
	}
	if m0.Pos[1] != -1 {
		t.Fatal("empty slice should have Pos = -1")
	}
	// Mode 2 has both slices nonempty: sizes 3 (k=0) and 2 (k=1).
	m2 := &s.Modes[2]
	if m2.NumRows() != 2 || len(m2.RowNZ(0)) != 3 || len(m2.RowNZ(1)) != 2 {
		t.Fatalf("mode 2 structure wrong: rows=%d", m2.NumRows())
	}
}

func TestBuildThreadInvariance(t *testing.T) {
	x := gen.Random(gen.Config{Dims: []int{40, 30, 20, 10}, NNZ: 3000, Skew: 0.6, Seed: 5})
	s1 := Build(x, 1)
	s4 := Build(x, 4)
	for n := range s1.Modes {
		a, b := &s1.Modes[n], &s4.Modes[n]
		if len(a.Rows) != len(b.Rows) || len(a.NZ) != len(b.NZ) {
			t.Fatalf("mode %d: structure sizes differ across thread counts", n)
		}
		for i := range a.NZ {
			if a.NZ[i] != b.NZ[i] {
				t.Fatalf("mode %d: NZ order differs at %d", n, i)
			}
		}
	}
}

func TestBuildEmptyTensor(t *testing.T) {
	x := tensor.NewCOO([]int{5, 5}, 0)
	s := Build(x, 2)
	if err := s.Validate(x); err != nil {
		t.Fatal(err)
	}
	if s.Modes[0].NumRows() != 0 {
		t.Fatal("empty tensor should have no rows")
	}
}

// Property: for random tensors, the structure validates and the update
// lists preserve within-row nonzero id order (stable counting sort).
func TestBuildProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 2 + rng.Intn(3)
		dims := make([]int, order)
		for m := range dims {
			dims[m] = 1 + rng.Intn(8)
		}
		x := tensor.NewCOO(dims, 0)
		n := rng.Intn(60)
		coord := make([]int, order)
		for i := 0; i < n; i++ {
			for m := range coord {
				coord[m] = rng.Intn(dims[m])
			}
			x.Append(coord, rng.NormFloat64())
		}
		s := Build(x, 1+rng.Intn(3))
		if err := s.Validate(x); err != nil {
			return false
		}
		// Stability: ids within each row strictly increase.
		for n := range s.Modes {
			m := &s.Modes[n]
			for r := 0; r < m.NumRows(); r++ {
				ids := m.RowNZ(r)
				for i := 1; i < len(ids); i++ {
					if ids[i] <= ids[i-1] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	x := smallTensor()
	s := Build(x, 1)
	// Swap two nonzero ids across rows of mode 0 to corrupt it.
	m := &s.Modes[0]
	m.NZ[0], m.NZ[int(m.Ptr[1])] = m.NZ[int(m.Ptr[1])], m.NZ[0]
	if err := s.Validate(x); err == nil {
		t.Fatal("Validate accepted corrupted structure")
	}
}

func BenchmarkBuild(b *testing.B) {
	x := gen.Random(gen.Config{Dims: []int{2000, 1500, 1000}, NNZ: 200000, Skew: 0.7, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(x, 0)
	}
}

func TestFiberGroups(t *testing.T) {
	x := smallTensor()
	c := tensor.NewCSF(x, tensor.CSFOptions{ModeOrder: []int{0, 1, 2}})
	for l := 0; l < c.Order(); l++ {
		g := FiberGroups(c, l)
		fids := c.Fids(l)
		seen := make([]bool, len(fids))
		for i := 0; i < g.NumGroups(); i++ {
			key := g.Keys[0][i]
			prev := int32(-1)
			for _, f := range g.Group(i) {
				if fids[f] != key {
					t.Fatalf("level %d group %d: fiber %d has fid %d, key %d", l, i, f, fids[f], key)
				}
				if f <= prev {
					t.Fatalf("level %d group %d: fibers not ascending", l, i)
				}
				prev = f
				seen[f] = true
			}
			if i > 0 && g.Keys[0][i] <= g.Keys[0][i-1] {
				t.Fatalf("level %d: keys not sorted", l)
			}
		}
		for f, ok := range seen {
			if !ok {
				t.Fatalf("level %d: fiber %d missing", l, f)
			}
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
