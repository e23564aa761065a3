package bench

import (
	"fmt"
	"io"
	"sync"

	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
)

// Options configure the experiment drivers. The zero value selects the
// defaults documented on each field.
type Options struct {
	// Scale multiplies the preset dataset sizes (1.0 ≈ 1/500 of the
	// paper's nonzero counts; see internal/gen). Default 1.0.
	Scale float64
	// Ps is the simulated-rank sweep of Table II. Default {1,2,4,8,16}.
	Ps []int
	// P is the rank count for Tables III and IV. Default 16 (the paper
	// uses 256; raise it on bigger hosts).
	P int
	// Iters is the number of HOOI sweeps per measurement. Default 5,
	// matching the paper.
	Iters int
	// Threads is the Table V thread sweep. Default
	// {1,2,4,...,32}.
	Threads []int
	// Seed drives dataset generation and partitioners.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if len(o.Ps) == 0 {
		o.Ps = []int{1, 2, 4, 8, 16}
	}
	if o.P == 0 {
		o.P = 16
	}
	if o.Iters == 0 {
		o.Iters = 5
	}
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8, 16, 32}
	}
	return o
}

// datasetCache memoizes generated tensors across tables within a run.
var datasetCache sync.Map // key string -> *tensor.COO

// ranksFor returns the paper's decomposition ranks clamped to the
// tensor's mode sizes (tiny -scale settings can shrink a mode below the
// paper's rank).
func ranksFor(x *tensor.COO) []int {
	ranks := gen.PaperRanks(x.Order())
	for n := range ranks {
		if ranks[n] > x.Dims[n] {
			ranks[n] = x.Dims[n]
		}
	}
	return ranks
}

// dataset returns the preset tensor at the given scale, cached.
func dataset(name string, scale float64) (*tensor.COO, error) {
	key := fmt.Sprintf("%s@%g", name, scale)
	if v, ok := datasetCache.Load(key); ok {
		return v.(*tensor.COO), nil
	}
	cfg, err := gen.Preset(name, scale)
	if err != nil {
		return nil, err
	}
	x := gen.Random(cfg)
	datasetCache.Store(key, x)
	return x, nil
}

// DatasetRow is one line of Table I.
type DatasetRow struct {
	Name string
	Dims []int
	NNZ  int
}

// TableI generates the four datasets and prints their shapes — the
// analogue of the paper's Table I, with the synthetic substitutes at the
// requested scale (paper sizes shown for reference).
func TableI(o Options, w io.Writer) ([]DatasetRow, error) {
	o = o.withDefaults()
	paper := map[string]string{
		"netflix":   "480K x 17K x 2K, 100M nnz",
		"nell":      "3.2M x 301 x 638K, 78M nnz",
		"delicious": "1.4K x 532K x 17M x 2.4M, 140M nnz",
		"flickr":    "731 x 319K x 28M x 1.6M, 112M nnz",
	}
	t := &Table{
		Title:   fmt.Sprintf("Table I: datasets (synthetic substitutes, scale=%g)", o.Scale),
		Headers: []string{"Tensor", "I1", "I2", "I3", "I4", "#nonzeros", "paper original"},
	}
	var rows []DatasetRow
	for _, name := range gen.PresetNames() {
		x, err := dataset(name, o.Scale)
		if err != nil {
			return nil, err
		}
		cfg, _ := gen.Preset(name, o.Scale)
		row := DatasetRow{Name: cfg.Name, Dims: x.Dims, NNZ: x.NNZ()}
		rows = append(rows, row)
		cells := []string{cfg.Name}
		for m := 0; m < 4; m++ {
			if m < len(x.Dims) {
				cells = append(cells, humanCount(int64(x.Dims[m])))
			} else {
				cells = append(cells, "-")
			}
		}
		cells = append(cells, humanCount(int64(x.NNZ())), paper[name])
		t.AddRow(cells...)
	}
	t.Render(w)
	return rows, nil
}
