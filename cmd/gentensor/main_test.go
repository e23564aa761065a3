package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
)

// The benchmark workloads' shapes at 1/50 scale (nonzeros × 1/50, modes
// × √(1/50), at least 64): gentensor's file must read back as the
// tensor gen.Random makes, bit for bit, and -out - must print the same
// bytes as the file.
func TestWritesWhatGenMakes(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "gentensor")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building gentensor: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name, dims string
		nnz        int
		skew       float64
	}{
		{"netflix3", "13576,480,64", 12000, 0.4},
		{"nell3_tall", "90509,64,18045", 8000, 0.3},
		{"delicious4", "197,2828,56568,8485", 8000, 0.5},
	} {
		path := filepath.Join(dir, tc.name+".tns")
		args := []string{"-dims", tc.dims, "-nnz", strconv.Itoa(tc.nnz), "-skew", strconv.FormatFloat(tc.skew, 'g', -1, 64), "-seed", "1"}
		if out, err := exec.Command(bin, append(args, "-out", path)...).CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", tc.name, err, out)
		}
		got, err := tensor.ReadTNSFile(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dims, err := parseDims(tc.dims)
		if err != nil {
			t.Fatal(err)
		}
		want := gen.Random(gen.Config{Dims: dims, NNZ: tc.nnz, Skew: tc.skew, Seed: 1})
		if err := sameBits(got, want); err != nil {
			t.Fatalf("%s: file differs from gen.Random: %v", tc.name, err)
		}

		cmd := exec.Command(bin, append(args, "-out", "-")...)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s -out -: %v", tc.name, err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), file) {
			t.Fatalf("%s: -out - printed %d bytes that differ from the file's %d", tc.name, stdout.Len(), len(file))
		}
	}
}

// sameBits reports the first difference between two tensors, values
// compared bit for bit.
func sameBits(a, b *tensor.COO) error {
	if !slices.Equal(a.Dims, b.Dims) || a.NNZ() != b.NNZ() {
		return fmt.Errorf("shape %v with %d nonzeros, want %v with %d", a.Dims, a.NNZ(), b.Dims, b.NNZ())
	}
	for m := range a.Idx {
		if !slices.Equal(a.Idx[m], b.Idx[m]) {
			return fmt.Errorf("mode %d indices differ", m)
		}
	}
	for i := range a.Val {
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return fmt.Errorf("nonzero %d: value %v, want %v", i, a.Val[i], b.Val[i])
		}
	}
	return nil
}
