package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
)

// kind selects the operation a workload repeats.
type kind int

const (
	// kindShared: .tns → Plan → Engine → Run (Algorithm 3).
	kindShared kind = iota
	// kindUpdate: a resident-engine session, cold Run then a stream of
	// Engine.Update deltas.
	kindUpdate
	// kindDist: .tns → hypergraph partition → DecomposeWorld on two
	// simulated ranks (Algorithm 4).
	kindDist
)

// workload is one benchmark input and the operation run on it. The
// shapes and ranks are fixed by ISSUE 12; NNZ is 0.4× its probe sizes
// so that a rep takes 1–3 s and a pass of run_seconds holds ten or
// more: the builder contract's driver makes 4 + 22 runs per workload
// (link + generation + warm-up + run_seconds of timed reps each) inside
// 3420 s. The shrink is uniform, so the regimes keep their order;
// netflix3 is the one that limits it — below ~0.35× its TTMc share of
// the solve falls under one half and it stops being the TTMc workload.
// BENCHMARK.json lists the workloads the driver runs; README.md says
// why those.
type workload struct {
	Name  string
	Kind  kind
	Dims  []int
	NNZ   int
	Skew  float64
	Ranks []int
}

var workloads = []workload{
	{"netflix3", kindShared, []int{96000, 3400, 400}, 600_000, 0.4, []int{10, 10, 10}},
	{"nell3_tall", kindShared, []int{640000, 301, 127600}, 400_000, 0.3, []int{10, 10, 10}},
	{"delicious4", kindShared, []int{1400, 20000, 400000, 60000}, 400_000, 0.5, []int{5, 5, 5, 5}},
	{"delicious4_update", kindUpdate, []int{1400, 20000, 400000, 60000}, 200_000, 0.5, []int{5, 5, 5, 5}},
	{"netflix3_dist2", kindDist, []int{96000, 3400, 400}, 400_000, 0.4, []int{10, 10, 10}},
}

const (
	// coldSweeps is the paper's fixed sweep count (Tol = -1).
	coldSweeps = 5
	// updateTol and updateMaxIters configure the resident engine of the
	// update workload, which converges instead of running fixed sweeps.
	updateTol      = 1e-5
	updateMaxIters = 20
	// sessionDeltas is the number of Engine.Update calls per session;
	// deltaFrac is both the changed and the new share of each delta.
	sessionDeltas = 8
	deltaFrac     = 0.005
	// distRanks is the simulated world size of the dist workload and of
	// every traced pass's dist probe: one single-threaded rank per core
	// of the 2-core reference box.
	distRanks = 2
	// cacheKeep bounds the input cache: the driver passes a fresh seed
	// on most runs and each input set is ~10-20 MB.
	cacheKeep = 24
)

// scaled returns the workload at a fraction of its size, for tests:
// the nonzero count shrinks by s and every mode by √s (never below 64),
// so a 1/50-size run keeps the shape's proportions and takes seconds.
// s = 1 is the workload itself.
func (w workload) scaled(s float64) workload {
	if s == 1 {
		return w
	}
	w.NNZ = max(1, int(float64(w.NNZ)*s))
	dims := make([]int, len(w.Dims))
	for n, d := range w.Dims {
		dims[n] = min(d, max(64, int(float64(d)*math.Sqrt(s))))
	}
	w.Dims = dims
	return w
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// input names the files one run of a workload receives: the tensor and
// its delta stream (eight for an update session, one elsewhere for the
// traced pass's merge, insert and update probes).
type input struct {
	Tensor string
	Deltas []string
}

func (w *workload) numDeltas() int {
	if w.Kind == kindUpdate {
		return sessionDeltas
	}
	return 1
}

// ensureInput generates the workload's files for a seed into the cache
// directory unless they are already there. Files are written under a
// temporary name and renamed, so an interrupted run never leaves a
// truncated input behind for the next one to trust.
func ensureInput(w *workload, seed int64, scale float64, cacheDir string) (input, error) {
	stem := fmt.Sprintf("%s-%d", w.Name, seed)
	if scale != 1 {
		stem = fmt.Sprintf("%s-x%g", stem, scale)
	}
	in := input{Tensor: filepath.Join(cacheDir, stem+".tns")}
	for i := 0; i < w.numDeltas(); i++ {
		in.Deltas = append(in.Deltas, filepath.Join(cacheDir, fmt.Sprintf("%s.delta%d.tns", stem, i)))
	}
	missing := false
	for _, p := range append([]string{in.Tensor}, in.Deltas...) {
		if _, err := os.Stat(p); err != nil {
			missing = true
		}
	}
	if !missing {
		return in, nil
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return in, err
	}
	sw := w.scaled(scale)
	x := gen.Random(gen.Config{Name: w.Name, Dims: sw.Dims, NNZ: sw.NNZ, Skew: w.Skew, Seed: seed})
	if err := writeAtomic(in.Tensor, x); err != nil {
		return in, err
	}
	for i, p := range in.Deltas {
		if err := writeAtomic(p, gen.Delta(x, deltaFrac, deltaFrac, seed+int64(i))); err != nil {
			return in, err
		}
	}
	return in, pruneCache(cacheDir, cacheKeep)
}

func writeAtomic(path string, x *tensor.COO) error {
	tmp := path + ".tmp"
	if err := tensor.WriteTNSFile(tmp, x); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return os.Rename(tmp, path)
}

// pruneCache deletes the oldest input sets until at most keep tensors
// (with their deltas) remain.
func pruneCache(dir string, keep int) error {
	all, err := filepath.Glob(filepath.Join(dir, "*.tns"))
	if err != nil {
		return err
	}
	var bases []string
	for _, p := range all {
		if !strings.Contains(filepath.Base(p), ".delta") {
			bases = append(bases, p)
		}
	}
	if len(bases) <= keep {
		return nil
	}
	mtime := func(p string) int64 {
		if st, err := os.Stat(p); err == nil {
			return st.ModTime().UnixNano()
		}
		return 0
	}
	sort.Slice(bases, func(i, j int) bool { return mtime(bases[i]) < mtime(bases[j]) })
	for _, p := range bases[:len(bases)-keep] {
		old, _ := filepath.Glob(strings.TrimSuffix(p, ".tns") + ".delta*.tns")
		for _, q := range append(old, p) {
			if err := os.Remove(q); err != nil {
				return err
			}
		}
	}
	return nil
}
