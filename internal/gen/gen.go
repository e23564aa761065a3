// Package gen generates synthetic sparse tensors for the experiment
// harness. The paper evaluates on four proprietary real-world datasets
// (Netflix, NELL, Delicious, Flickr; Table I); those raw files are not
// redistributable, so this package substitutes Zipf-skewed synthetic
// tensors configured with the same mode-size ratios. The skew preserves
// the properties the algorithms are sensitive to: heavy-tailed slice
// sizes (the source of the coarse-grain load imbalance seen in
// Table III) and mode-size asymmetry (tiny 4th modes vs multi-million
// 3rd modes).
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"hypertensor/internal/tensor"
)

// Config describes a synthetic tensor.
type Config struct {
	Name string  // dataset label used in reports
	Dims []int   // mode sizes
	NNZ  int     // requested nonzero count; the last round may overshoot it (netflix3's 600,000 gives 600,013)
	Skew float64 // Zipf exponent per mode; 0 = uniform indices
	Seed int64   // RNG seed; same seed => same tensor
}

// Random generates a tensor with the given configuration. Coordinates
// are drawn independently per mode (uniform or Zipf-skewed through a
// random permutation so the "popular" indices are scattered), values are
// drawn from N(0,1) shifted to avoid cancellation, and duplicates are
// merged by summation — exactly how real event tensors (ratings, tag
// assignments) accumulate. Because skewed draws collide often, sampling
// continues in adaptively sized rounds until the *distinct* nonzero
// count approaches cfg.NNZ (or the index space saturates), so the
// requested size is actually delivered.
func Random(cfg Config) *tensor.COO {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := tensor.NewCOO(cfg.Dims, cfg.NNZ)
	samplers := make([]*indexSampler, len(cfg.Dims))
	for m, d := range cfg.Dims {
		samplers[m] = newIndexSampler(d, cfg.Skew, rng)
	}
	coord := make([]int, len(cfg.Dims))
	draw := func(n int) {
		for i := 0; i < n; i++ {
			for m := range coord {
				coord[m] = samplers[m].sample(rng)
			}
			t.Append(coord, 1+math.Abs(rng.NormFloat64()))
		}
	}
	draw(cfg.NNZ)
	t.SortDedup()
	rate := 1.0 // distinct yield of the previous round
	for round := 0; round < 16 && t.NNZ() < cfg.NNZ; round++ {
		need := cfg.NNZ - t.NNZ()
		batch := int(float64(need) / math.Max(rate, 0.05))
		if batch > 4*cfg.NNZ {
			batch = 4 * cfg.NNZ
		}
		if batch < need {
			batch = need
		}
		before := t.NNZ()
		draw(batch)
		t.SortDedup()
		gained := t.NNZ() - before
		if gained == 0 {
			break // index space saturated under this distribution
		}
		rate = float64(gained) / float64(batch)
	}
	return t
}

// Delta synthesizes an update stream for an existing tensor — the
// incremental-ingest workload of a resident decomposition engine.
// Roughly fracChanged of the existing nonzeros receive a value
// perturbation (re-rated items, reinforced links) and fracNew * nnz new
// coordinates are drawn uniformly inside the tensor's dimensions
// (fresh events; draws that collide with existing coordinates simply
// act as additional value updates when merged). Deterministic for a
// fixed (tensor, fractions, seed).
func Delta(x *tensor.COO, fracChanged, fracNew float64, seed int64) *tensor.COO {
	rng := rand.New(rand.NewSource(seed))
	nChanged := int(fracChanged * float64(x.NNZ()))
	nNew := int(fracNew * float64(x.NNZ()))
	d := tensor.NewCOO(x.Dims, nChanged+nNew)
	coord := make([]int, x.Order())
	for i := 0; i < nChanged; i++ {
		id := rng.Intn(x.NNZ())
		d.Append(x.Coord(id, coord), 0.25*rng.NormFloat64())
	}
	for i := 0; i < nNew; i++ {
		for m, dim := range x.Dims {
			coord[m] = rng.Intn(dim)
		}
		d.Append(coord, 1+math.Abs(rng.NormFloat64()))
	}
	return d
}

// indexSampler draws indices from [0, n) either uniformly or with a
// Zipf-like distribution over a fixed random permutation of the range.
type indexSampler struct {
	perm []int32
	zipf *rand.Zipf
	n    int
}

func newIndexSampler(n int, skew float64, rng *rand.Rand) *indexSampler {
	s := &indexSampler{n: n}
	if skew > 0 && n > 1 {
		// rand.Zipf requires s > 1; map skew in (0, inf) to s = 1+skew.
		s.zipf = rand.NewZipf(rng, 1+skew, 1, uint64(n-1))
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		s.perm = perm
	}
	return s
}

func (s *indexSampler) sample(rng *rand.Rand) int {
	if s.zipf == nil {
		return rng.Intn(s.n)
	}
	return int(s.perm[s.zipf.Uint64()])
}

// Paper dataset presets. Scale = 1 reproduces the paper's mode-size
// ratios at roughly 1/500 of the nonzero count (so the whole table fits
// a 2-core CI box); pass a larger scale to grow toward the original
// sizes. The original shapes (Table I):
//
//	Netflix   480K x 17K x 2K          100M nnz
//	NELL      3.2M x 301 x 638K         78M nnz
//	Delicious 1.4K x 532K x 17M x 2.4M 140M nnz
//	Flickr    731 x 319K x 28M x 1.6M  112M nnz

// Preset returns the scaled configuration for one of the paper's
// datasets: "netflix", "nell", "delicious", "flickr", or the MET
// comparison tensor "random". scale >= 1 multiplies the nonzero count
// (and grows the large modes proportionally).
func Preset(name string, scale float64) (Config, error) {
	if scale <= 0 {
		scale = 1
	}
	d := func(base int) int { // scale a large mode, keep at least 8
		v := int(float64(base) * scale)
		if v < 8 {
			v = 8
		}
		return v
	}
	nnz := func(base int) int { return int(float64(base) * scale) }
	switch name {
	case "netflix":
		return Config{
			Name: "Netflix", Seed: 42, Skew: 0.7,
			Dims: []int{d(9600), d(340), d(40)},
			NNZ:  nnz(200_000),
		}, nil
	case "nell":
		return Config{
			Name: "NELL", Seed: 43, Skew: 0.8,
			Dims: []int{d(64000), 301, d(12760)},
			NNZ:  nnz(156_000),
		}, nil
	case "delicious":
		return Config{
			Name: "Delicious", Seed: 44, Skew: 0.8,
			Dims: []int{1400, d(10640), d(340_000), d(48000)},
			NNZ:  nnz(280_000),
		}, nil
	case "flickr":
		return Config{
			Name: "Flickr", Seed: 45, Skew: 0.9,
			Dims: []int{731, d(6380), d(560_000), d(32000)},
			NNZ:  nnz(224_000),
		}, nil
	case "random":
		// The MET comparison tensor: uniform random 10K^3 with 1M
		// nonzeros in the paper; scaled to 1K^3 with 100K by default.
		return Config{
			Name: "Random", Seed: 46, Skew: 0,
			Dims: []int{d(1000), d(1000), d(1000)},
			NNZ:  nnz(100_000),
		}, nil
	}
	return Config{}, fmt.Errorf("gen: unknown preset %q", name)
}

// PresetNames lists the dataset presets in the paper's Table I order.
func PresetNames() []string { return []string{"netflix", "nell", "delicious", "flickr"} }

// PaperRanks returns the decomposition ranks the paper uses for a
// preset: R=10 per mode for the 3-mode tensors, R=5 for the 4-mode ones.
func PaperRanks(order int) []int {
	r := 10
	if order >= 4 {
		r = 5
	}
	ranks := make([]int, order)
	for i := range ranks {
		ranks[i] = r
	}
	return ranks
}
