package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"hypertensor/internal/core"
	"hypertensor/internal/tensor"
)

// FormatRow compares one dataset's storage and HOOI sweep cost under
// the coordinate format, the compressed-sparse-fiber format, and the
// adaptive-linearized-tensor-order format: index bytes per nonzero
// (host independent), TTMc multiply-adds per sweep (host independent),
// and measured TTMc seconds per sweep.
type FormatRow struct {
	Dataset   string
	Order     int
	NNZ       int
	COOBytes  int64   // index storage, coordinate streams
	CSFBytes  int64   // index storage, compressed fiber levels
	ALTOBytes int64   // index storage, linearized keys
	BuildSec  float64 // CSF build (sort + fiber levels)
	ALTOBuild float64 // ALTO build (encode + sort/dedup)
	COOFlops  int64   // TTMc madds per sweep, flat coordinate kernel
	CSFFlops  int64   // TTMc madds per sweep, fiber-walking kernel
	ALTOFlops int64   // TTMc madds per sweep, linearized-stream kernel
	COOSec    float64
	CSFSec    float64
	ALTOSec   float64
	Speedup   float64 // COO sweep seconds over the winner's
	FitDelta  float64 // max pairwise |Δfit| across the three formats
	Winner    core.Format
}

// BytesPerNNZ reports the three index footprints normalized by nonzero.
func (r FormatRow) BytesPerNNZ() (coo, csf, alto float64) {
	n := float64(r.NNZ)
	return float64(r.COOBytes) / n, float64(r.CSFBytes) / n, float64(r.ALTOBytes) / n
}

// FormatCompare runs the COO vs CSF vs ALTO storage comparison on the
// 3-mode and the two 4-mode presets with the flat TTMc strategy: both
// compressed paths must store fewer index bytes than COO's N x nnz
// streams, the fiber-walking kernels hoist shared work out of the
// per-nonzero loop, and the fits of all three formats agree to
// rounding (FitDelta). The winner column picks the format with the
// fastest measured sweep on this host, breaking ties toward the
// smaller index footprint — the same per-dataset rule docs/formats.md
// describes.
func FormatCompare(o Options, w io.Writer) ([]FormatRow, error) {
	o = o.withDefaults()
	t := &Table{
		Title: fmt.Sprintf("COO vs CSF vs ALTO storage (per HOOI sweep, %d sweeps measured)", o.Iters),
		Headers: []string{"Tensor", "modes", "coo B/nnz", "csf B/nnz", "alto B/nnz",
			"coo madds", "csf madds", "alto madds",
			"coo s/sweep", "csf s/sweep", "alto s/sweep", "winner", "|Δfit|"},
	}
	var rows []FormatRow
	for _, name := range []string{"netflix", "delicious", "flickr"} {
		x, err := dataset(name, o.Scale)
		if err != nil {
			return nil, err
		}
		ranks := ranksFor(x)
		run := func(format core.Format) (*core.Result, error) {
			return core.Decompose(x, core.Options{
				Ranks:    ranks,
				MaxIters: o.Iters,
				Tol:      -1,
				Seed:     o.Seed + 17,
				Format:   format,
				TTMc:     core.TTMcFlat,
			})
		}
		buildStart := time.Now()
		csfT := tensor.NewCSF(x, tensor.CSFOptions{})
		buildSec := time.Since(buildStart).Seconds()
		buildStart = time.Now()
		tensor.NewALTO(x, tensor.ALTOOptions{})
		altoBuild := time.Since(buildStart).Seconds()

		coo, err := run(core.FormatCOO)
		if err != nil {
			return nil, fmt.Errorf("%s coo: %w", name, err)
		}
		csf, err := run(core.FormatCSF)
		if err != nil {
			return nil, fmt.Errorf("%s csf: %w", name, err)
		}
		alto, err := run(core.FormatALTO)
		if err != nil {
			return nil, fmt.Errorf("%s alto: %w", name, err)
		}
		it := float64(coo.Iters)
		row := FormatRow{
			Dataset:   name,
			Order:     x.Order(),
			NNZ:       csfT.NNZ(),
			COOBytes:  coo.IndexBytes,
			CSFBytes:  csf.IndexBytes,
			ALTOBytes: alto.IndexBytes,
			BuildSec:  buildSec,
			ALTOBuild: altoBuild,
			COOFlops:  coo.TTMcFlops / int64(coo.Iters),
			CSFFlops:  csf.TTMcFlops / int64(csf.Iters),
			ALTOFlops: alto.TTMcFlops / int64(alto.Iters),
			COOSec:    coo.Timings.TTMc.Seconds() / it,
			CSFSec:    csf.Timings.TTMc.Seconds() / it,
			ALTOSec:   alto.Timings.TTMc.Seconds() / it,
			FitDelta: math.Max(math.Abs(coo.Fit-csf.Fit),
				math.Max(math.Abs(coo.Fit-alto.Fit), math.Abs(csf.Fit-alto.Fit))),
		}
		row.Winner = pickWinner(row)
		winSec := row.COOSec
		switch row.Winner {
		case core.FormatCSF:
			winSec = row.CSFSec
		case core.FormatALTO:
			winSec = row.ALTOSec
		}
		if winSec > 0 {
			row.Speedup = row.COOSec / winSec
		}
		rows = append(rows, row)
		cooB, csfB, altoB := row.BytesPerNNZ()
		t.AddRow(name, fmt.Sprintf("%d", row.Order),
			fmt.Sprintf("%.1f", cooB), fmt.Sprintf("%.1f", csfB), fmt.Sprintf("%.1f", altoB),
			humanCount(row.COOFlops), humanCount(row.CSFFlops), humanCount(row.ALTOFlops),
			secs(row.COOSec), secs(row.CSFSec), secs(row.ALTOSec),
			row.Winner.String(),
			fmt.Sprintf("%.1e", row.FitDelta))
	}
	t.Render(w)
	return rows, nil
}

// pickWinner applies the per-dataset choice rule: fastest measured
// sweep wins; within 5% of each other (measurement noise on small
// scaled datasets), the smaller index footprint wins instead.
func pickWinner(r FormatRow) core.Format {
	type cand struct {
		f     core.Format
		sec   float64
		bytes int64
	}
	cands := []cand{
		{core.FormatCOO, r.COOSec, r.COOBytes},
		{core.FormatCSF, r.CSFSec, r.CSFBytes},
		{core.FormatALTO, r.ALTOSec, r.ALTOBytes},
	}
	best := cands[0]
	for _, c := range cands[1:] {
		switch {
		case c.sec < best.sec*0.95:
			best = c
		case c.sec <= best.sec*1.05 && c.bytes < best.bytes:
			best = c
		}
	}
	return best.f
}
