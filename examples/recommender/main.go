// Recommender: the paper's motivating Netflix scenario — a
// user x movie x time rating tensor factorized with Tucker, then used
// to predict held-out ratings (the missing-entry prediction application
// of the paper's introduction, refs [4]-[6]).
//
//	go run ./examples/recommender
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"hypertensor"
)

const (
	users, movies, weeks = 150, 75, 10
	latent               = 4 // ground-truth latent dimensions
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// Ground truth: users and movies live in a small latent space;
	// ratings drift mildly over time. We observe a sparse sample.
	uF := randomFactors(rng, users, latent)
	mF := randomFactors(rng, movies, latent)
	tF := make([][]float64, weeks)
	for w := range tF {
		tF[w] = make([]float64, latent)
		for l := range tF[w] {
			tF[w][l] = 1 + 0.1*math.Sin(float64(w)/4+float64(l))
		}
	}
	// Rating deviation from the global 3-star baseline. Centering
	// matters: Tucker treats unobserved cells as zeros, so storing raw
	// 1-5 ratings would make the model spend its rank on the sampling
	// mask instead of the preference signal.
	rate := func(u, m, w int) float64 {
		var s float64
		for l := 0; l < latent; l++ {
			s += uF[u][l] * mF[m][l] * tF[w][l]
		}
		return s
	}

	// Sample ~60 ratings per user for training (≈8% of cells observed),
	// 4 held out for evaluation.
	train := hypertensor.NewSparseTensor([]int{users, movies, weeks}, 0)
	type obs struct {
		u, m, w int
		v       float64
	}
	var held []obs
	for u := 0; u < users; u++ {
		for s := 0; s < 64; s++ {
			m := rng.Intn(movies)
			w := rng.Intn(weeks)
			v := rate(u, m, w) + 0.05*rng.NormFloat64()
			if s < 60 {
				train.Append([]int{u, m, w}, v)
			} else {
				held = append(held, obs{u, m, w, v})
			}
		}
	}
	train.SortDedup()
	fmt.Printf("training tensor: %v, %d observed (centered) ratings\n", train.Dims, train.NNZ())

	dec, err := hypertensor.Decompose(train, hypertensor.Options{
		Ranks:    []int{latent + 2, latent + 2, 3},
		MaxIters: 40,
		Tol:      1e-7,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(hypertensor.Summary(dec))

	// Predict held-out ratings. A Tucker model fit to a sparsely
	// observed tensor treats unobserved cells as zeros, so predictions
	// are damped toward zero; the *ranking* signal (which of two movies
	// a user prefers) is what survives — measure pairwise ranking
	// accuracy over held-out pairs, plus correlation.
	var meanP, meanT float64
	for _, o := range held {
		meanP += dec.ReconstructAt([]int{o.u, o.m, o.w})
		meanT += o.v
	}
	meanP /= float64(len(held))
	meanT /= float64(len(held))
	var cov, varP, varT float64
	for _, o := range held {
		p := dec.ReconstructAt([]int{o.u, o.m, o.w})
		cov += (p - meanP) * (o.v - meanT)
		varP += (p - meanP) * (p - meanP)
		varT += (o.v - meanT) * (o.v - meanT)
	}
	corr := cov / math.Sqrt(varP*varT+1e-30)

	correct, total := 0, 0
	for i := 0; i+1 < len(held); i += 2 {
		a, b := held[i], held[i+1]
		pa := dec.ReconstructAt([]int{a.u, a.m, a.w})
		pb := dec.ReconstructAt([]int{b.u, b.m, b.w})
		if (pa > pb) == (a.v > b.v) {
			correct++
		}
		total++
	}
	fmt.Printf("held-out ratings: %d, prediction/truth correlation: %.3f\n", len(held), corr)
	fmt.Printf("pairwise ranking accuracy: %.1f%% (random = 50%%)\n", 100*float64(correct)/float64(total))

	// The temporal factor shows how rating behaviour drifts by week.
	fmt.Println("temporal factor (first column, by week):")
	for w := 0; w < weeks; w += 5 {
		fmt.Printf("  week %2d: %+.4f\n", w, dec.Factors[2].At(w, 0))
	}
}

func randomFactors(rng *rand.Rand, n, k int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, k)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64() * 0.5
		}
	}
	return out
}
