// Command htpart builds the paper's hypergraph models from a sparse
// tensor, partitions them, and reports the quality metrics (cutsize =
// communication volume, load imbalance) that drive the fine-hp vs
// fine-rd vs coarse comparisons of the paper's evaluation.
//
// Example:
//
//	htpart -input x.tns -parts 16 -grain fine -compare
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hypertensor/internal/dist"
	"hypertensor/internal/hypergraph"
	"hypertensor/internal/tensor"
)

func main() {
	var (
		input    = flag.String("input", "", "input tensor in .tns format (required)")
		parts    = flag.Int("parts", 16, "number of parts K")
		grain    = flag.String("grain", "fine", "hypergraph model: fine | coarse")
		mode     = flag.Int("mode", 0, "tensor mode for the coarse model")
		seed     = flag.Int64("seed", 1, "partitioner seed")
		compare  = flag.Bool("compare", false, "also report random/block baselines")
		realized = flag.Bool("realized", false, "also report the cut model's byte prediction for the distributed sparse exchange (expand+fold per sweep) per placement method")
		ranksIn  = flag.String("ranks", "", "comma-separated Tucker ranks for -realized (default: min(8, dim) per mode)")
	)
	flag.Parse()
	if *input == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *parts < 1 {
		fail(fmt.Errorf("-parts %d: need at least one part", *parts))
	}
	x, err := tensor.ReadTNSFile(*input)
	if err != nil {
		fail(err)
	}
	var ranks []int
	if *realized {
		if ranks, err = realizedRanks(*ranksIn, x.Dims); err != nil {
			fail(err)
		}
	}
	fmt.Printf("tensor: dims=%v nnz=%d\n", x.Dims, x.NNZ())

	g, err := dist.ParseGrain(*grain)
	if err != nil {
		fail(err)
	}
	var h *hypergraph.Hypergraph
	switch {
	case g == dist.Fine:
		h = hypergraph.FineGrainModel(x)
	case *mode < 0 || *mode >= x.Order():
		fail(fmt.Errorf("mode %d out of range", *mode))
	default:
		h = hypergraph.CoarseGrainModel(x, *mode)
	}
	fmt.Printf("hypergraph: %d vertices, %d nets, %d pins\n", h.NumV, h.NumN, h.NumPins())

	report := func(name string, p []int32) {
		cut := h.CutsizeConn(p, *parts)
		imb := hypergraph.Imbalance(h.VWeights, p, *parts)
		fmt.Printf("  %-12s cutsize=%-10d imbalance=%.3f\n", name, cut, imb)
	}
	report("multilevel", hypergraph.Partition(h, hypergraph.Options{Parts: *parts, Seed: *seed}))
	if *compare {
		report("random", hypergraph.PartitionRandom(h.NumV, *parts, *seed))
		report("block", hypergraph.PartitionBlock(h.VWeights, *parts))
	}

	if *realized {
		fmt.Printf("sparse-exchange volume per sweep (%s grain, ranks %v, expand+fold cut model):\n", g, ranks)
		for _, m := range []dist.Method{dist.MethodHypergraph, dist.MethodRandom, dist.MethodBlock} {
			part, err := dist.MakePartition(x, *parts, g, m, *seed)
			if err != nil {
				fail(err)
			}
			expand, fold := dist.ModeledCommVolume(x, part, ranks)
			fmt.Printf("  %-12s expand=%-12d fold=%-12d total=%d B\n", m, expand, fold, expand+fold)
		}
	}
}

// realizedRanks parses -ranks, defaulting each mode to min(8, dim).
func realizedRanks(s string, dims []int) ([]int, error) {
	if s == "" {
		ranks := make([]int, len(dims))
		for n, d := range dims {
			ranks[n] = min(8, d)
		}
		return ranks, nil
	}
	fields := strings.Split(s, ",")
	if len(fields) != len(dims) {
		return nil, fmt.Errorf("-ranks wants %d values, got %d", len(dims), len(fields))
	}
	ranks := make([]int, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad rank %q", f)
		}
		ranks[i] = v
	}
	return ranks, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "htpart:", err)
	os.Exit(1)
}
