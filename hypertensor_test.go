package hypertensor

import (
	"math"
	"path/filepath"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	// Build a small tensor through the public API.
	x := NewSparseTensor([]int{20, 15, 10}, 0)
	for i := 0; i < 20; i++ {
		for j := 0; j < 5; j++ {
			x.Append([]int{i, (i + j) % 15, (i * j) % 10}, float64(1+i+j))
		}
	}
	x.SortDedup()

	dec, err := Decompose(x, Options{Ranks: []int{3, 3, 3}, MaxIters: 5, Tol: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Fit <= 0 || dec.Fit > 1 {
		t.Fatalf("fit = %v", dec.Fit)
	}
	if got := dec.ReconstructAt([]int{0, 0, 0}); math.IsNaN(got) {
		t.Fatal("reconstruction NaN")
	}
	if Summary(dec) == "" || Summary(nil) == "" {
		t.Fatal("Summary broken")
	}
}

func TestPublicAPIDistributed(t *testing.T) {
	x, err := GeneratePreset("netflix", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(x, 4, FineGrain, PartitionHypergraph, 3)
	if err != nil {
		t.Fatal(err)
	}
	ranks := PaperRanks(x.Order())
	for n := range ranks {
		if ranks[n] > x.Dims[n] {
			ranks[n] = x.Dims[n]
		}
	}
	dres, err := DecomposeDistributed(x, part, DistConfig{Ranks: ranks, MaxIters: 2, Tol: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if dres.Stats == nil || dres.Stats.P != 4 {
		t.Fatal("missing distributed stats")
	}
	if len(dres.Factors) != 3 {
		t.Fatal("missing factors")
	}
}

func TestPublicAPITensorIO(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.tns")
	x := NewSparseTensor([]int{3, 3}, 1)
	x.Append([]int{1, 2}, 4.5)
	if err := WriteTensorFile(path, x); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTensorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 1 || got.Val[0] != 4.5 {
		t.Fatal("roundtrip failed")
	}
}

func TestGeneratePresetErrors(t *testing.T) {
	if _, err := GeneratePreset("nope", 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestPublicAPIWarmStart(t *testing.T) {
	x, err := GeneratePreset("random", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	ranks := []int{3, 3, 3}
	start, err := Decompose(x, Options{Ranks: ranks, MaxIters: 1, Tol: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if start.Fit <= 0 || len(start.Factors) != 3 {
		t.Fatalf("one-sweep result malformed: fit=%v", start.Fit)
	}
	warm, err := Decompose(x, Options{Ranks: ranks, MaxIters: 2, Tol: -1, Seed: 1, Initial: start.Factors})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Fit < start.Fit-1e-9 {
		t.Fatalf("warm-started HOOI regressed: %v -> %v", start.Fit, warm.Fit)
	}
}
