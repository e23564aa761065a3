// Knowledgebase: a NELL-style (entity, relation, entity) belief tensor
// (paper ref [2]) decomposed with Tucker to surface latent entity
// groups, comparing the three TRSVD solvers — the knob §III.A.2
// discusses.
//
//	go run ./examples/knowledgebase
package main

import (
	"fmt"
	"log"
	"math/rand"

	"hypertensor"
)

const (
	entities  = 150
	relations = 12
	groups    = 4 // latent entity communities
)

func main() {
	rng := rand.New(rand.NewSource(3))

	// Synthetic knowledge base: entities belong to communities;
	// relations connect communities with different affinities. Beliefs
	// (nonzero values) are confidence scores in (0, 1].
	community := make([]int, entities)
	for e := range community {
		community[e] = rng.Intn(groups)
	}
	affinity := make([][][]float64, relations)
	for r := range affinity {
		affinity[r] = make([][]float64, groups)
		for a := 0; a < groups; a++ {
			affinity[r][a] = make([]float64, groups)
			for b := 0; b < groups; b++ {
				if rng.Float64() < 0.35 {
					affinity[r][a][b] = rng.Float64()
				}
			}
		}
	}

	x := hypertensor.NewSparseTensor([]int{entities, relations, entities}, 0)
	for t := 0; t < 100000; t++ {
		s := rng.Intn(entities)
		r := rng.Intn(relations)
		o := rng.Intn(entities)
		if a := affinity[r][community[s]][community[o]]; a > 0 {
			x.Append([]int{s, r, o}, 0.5+0.5*a)
		}
	}
	x.SortDedup()
	fmt.Printf("belief tensor: %v, %d triples\n", x.Dims, x.NNZ())

	ranks := []int{groups, 3, groups}
	var best *hypertensor.Decomposition
	for _, svd := range []hypertensor.SVDMethod{hypertensor.SVDGram, hypertensor.SVDLanczos, hypertensor.SVDRandomized} {
		dec, err := hypertensor.Decompose(x, hypertensor.Options{
			Ranks: ranks, MaxIters: 15, Tol: 1e-6, Seed: 9, SVD: svd,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s fit %.4f in %2d sweeps (first sweep %.4f)\n",
			svd, dec.Fit, dec.Iters, dec.FitHistory[0])
		if best == nil || dec.Fit > best.Fit {
			best = dec
		}
	}

	// Community recovery: entities in the same community should have
	// similar factor rows. Score: fraction of sampled same-community
	// pairs whose factor rows are closer than different-community pairs.
	u := best.Factors[0]
	dist2 := func(a, b int) float64 {
		var s float64
		for j := 0; j < u.Cols; j++ {
			d := u.At(a, j) - u.At(b, j)
			s += d * d
		}
		return s
	}
	wins, trials := 0, 0
	for t := 0; t < 4000; t++ {
		a := rng.Intn(entities)
		b := rng.Intn(entities)
		c := rng.Intn(entities)
		if community[a] == community[b] && community[a] != community[c] {
			if dist2(a, b) < dist2(a, c) {
				wins++
			}
			trials++
		}
	}
	if trials > 0 {
		fmt.Printf("entity community separation: %.1f%% of triples correctly ordered (random = 50%%)\n",
			100*float64(wins)/float64(trials))
	}
}
