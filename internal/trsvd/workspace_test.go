package trsvd

import (
	"math"
	"math/rand"
	"testing"

	"hypertensor/internal/dense"
)

// A reused workspace must not change solver results: run twice with the
// same warm workspace and compare bitwise against a fresh-workspace
// run, alternating between two different operators so stale buffer
// contents would be caught.
func TestWorkspaceReuseBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := dense.RandomNormal(120, 30, rng)
	b := dense.RandomNormal(80, 22, rng)
	ws := NewWorkspace()
	solvers := []struct {
		name string
		run  func(m *dense.Matrix, opts Options) (*Result, error)
	}{
		{"lanczos", func(m *dense.Matrix, opts Options) (*Result, error) {
			return Lanczos(&DenseOperator{A: m, Threads: 1}, 5, opts)
		}},
		{"randomized", func(m *dense.Matrix, opts Options) (*Result, error) {
			return Randomized(&DenseOperator{A: m, Threads: 1}, 5, opts)
		}},
		{"gram", func(m *dense.Matrix, opts Options) (*Result, error) {
			return Gram(&DenseOperator{A: m, Threads: 1}, 5, opts)
		}},
	}
	for _, s := range solvers {
		for _, m := range []*dense.Matrix{a, b, a} { // alternate shapes
			fresh, err := s.run(m, Options{Seed: 3})
			if err != nil {
				t.Fatalf("%s fresh: %v", s.name, err)
			}
			warm, err := s.run(m, Options{Seed: 3, Work: ws})
			if err != nil {
				t.Fatalf("%s warm: %v", s.name, err)
			}
			if !matEqualBits(fresh.U, warm.U) {
				t.Fatalf("%s: warm-workspace U differs from fresh", s.name)
			}
			for i := range fresh.Sigma {
				if fresh.Sigma[i] != warm.Sigma[i] {
					t.Fatalf("%s: sigma[%d] %v != %v", s.name, i, fresh.Sigma[i], warm.Sigma[i])
				}
			}
		}
	}
}

func matEqualBits(a, b *dense.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// With a warm workspace and one thread (parallel regions run inline),
// a Lanczos solve performs only a handful of allocations: the returned
// Result (U and Sigma live in the workspace), and nothing per iteration.
func TestLanczosSteadyStateAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := dense.RandomNormal(300, 40, rng)
	op := &DenseOperator{A: a, Threads: 1}
	ws := NewWorkspace()
	if _, err := Lanczos(op, 8, Options{Seed: 1, Work: ws}); err != nil {
		t.Fatal(err) // warm the workspace
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Lanczos(op, 8, Options{Seed: 1, Work: ws}); err != nil {
			t.Fatal(err)
		}
	})
	// Result + small slack; the seed implementation sat in the hundreds
	// per call.
	if allocs > 24 {
		t.Fatalf("warm Lanczos performs %v allocations per call; want near-zero", allocs)
	}
}
