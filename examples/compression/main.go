// Compression: the paper's motivation for Tucker over CP — compressing
// structured data (§I, ref [11]). A sparse measurement tensor with
// smooth low-multilinear-rank structure is compressed with one-pass
// ST-HOSVD (one HOOI sweep from the random start), then refined with
// HOOI ALS sweeps warm-started from it, showing the standard two-stage
// pipeline and the storage ratio.
//
//	go run ./examples/compression
package main

import (
	"fmt"
	"log"
	"math"

	"hypertensor"
)

func main() {
	// A 64x48x36 "sensor grid x frequency x time" tensor: smooth
	// separable physics plus a sparse observation pattern (every cell
	// observed where any of 3 wave components is strong).
	dims := []int{64, 48, 36}
	x := hypertensor.NewSparseTensor(dims, 0)
	wave := func(p int, i, j, k int) float64 {
		return math.Sin(float64(i)/(3+float64(p))) *
			math.Cos(float64(j)/(2+float64(p))) *
			math.Exp(-float64(k)/(12+4*float64(p)))
	}
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			for k := 0; k < dims[2]; k++ {
				var v float64
				for p := 0; p < 3; p++ {
					v += wave(p, i, j, k)
				}
				if math.Abs(v) > 0.15 { // sparse observation threshold
					x.Append([]int{i, j, k}, v)
				}
			}
		}
	}
	x.SortDedup()
	fmt.Printf("measurement tensor: %v, %d observations (%.1f%% dense)\n",
		x.Dims, x.NNZ(), 100*x.Density())

	ranks := []int{5, 5, 5}

	// Stage 1: one sweep from the random start, which is a randomized
	// ST-HOSVD with a Kronecker-structured sketch.
	st, err := hypertensor.Decompose(x, hypertensor.Options{Ranks: ranks, MaxIters: 1, Tol: -1, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ST-HOSVD (single pass):  fit %.5f\n", st.Fit)

	// Stage 2: HOOI refinement warm-started from the one-pass factors.
	dec, err := hypertensor.Decompose(x, hypertensor.Options{
		Ranks: ranks, MaxIters: 20, Tol: 1e-7, Seed: 1, Initial: st.Factors,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HOOI refinement:         fit %.5f after %d sweeps\n", dec.Fit, dec.Iters)

	// Storage accounting: Tucker stores the core plus factor matrices.
	tuckerFloats := ranks[0] * ranks[1] * ranks[2]
	for n, u := range dec.Factors {
		tuckerFloats += u.Rows * ranks[n]
	}
	rawFloats := x.NNZ() * (len(dims) + 1) // COO: coords + value per nonzero
	fmt.Printf("storage: %d Tucker floats vs %d COO words -> %.1fx compression at %.4f relative error\n",
		tuckerFloats, rawFloats, float64(rawFloats)/float64(tuckerFloats), 1-dec.Fit)

	// Spot-check reconstruction quality at a few observed coordinates.
	fmt.Println("spot checks (observed value -> model):")
	coord := make([]int, 3)
	for e := 0; e < x.NNZ(); e += x.NNZ() / 4 {
		x.Coord(e, coord)
		fmt.Printf("  X%v = %+.4f -> %+.4f\n", coord, x.Val[e], dec.ReconstructAt(coord))
	}
}
