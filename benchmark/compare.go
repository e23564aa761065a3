package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// bound is how much worse an end-to-end metric may get before a change
// counts as a regression.
type bound struct {
	rel      float64 // share of the first report's median
	abs      float64 // absolute, for metrics whose scale is fixed (fit)
	higherOK bool    // higher is better
	info     bool    // describes the host during the run: shown, never judged
}

// extraBounds covers the end-to-end metrics of the full report that
// BENCHMARK.json cannot carry (its metrics must exist, non-zero and
// seed-steady, on every workload): fit and the two counts must repeat,
// update_s gets the bound of the other timings.
var extraBounds = map[string]bound{
	"fit":                 {abs: 1e-6, higherOK: true},
	"fail_share":          {},
	"update_s":            {rel: 0.25},
	"net_bytes_per_sweep": {},
	"e2e_wall_s":          {info: true},
	"host_slowdown":       {info: true},
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// medianSpread estimates how far a report's median would move between
// runs from the reps inside the run: the inter-quartile range of the
// sampling distribution of a median of n, 1.2533·IQR/√n for roughly
// normal samples. It cannot see the box changing speed between two
// runs; only more reports could.
func medianSpread(m metric) float64 {
	if m.N < 2 {
		return 0
	}
	return 1.2533 * (m.Q3 - m.Q1) / math.Sqrt(float64(m.N))
}

// verdict applies the rule of the choosing-metrics guide to one (metric,
// workload) pair: a spread wider than the bound leaves the pair
// unresolved, otherwise b may be worse than a by at most the bound.
func verdict(a, b metric, bd bound) (worse, limit float64, status string) {
	worse = b.Median - a.Median
	if bd.higherOK {
		worse = -worse
	}
	limit = bd.abs + bd.rel*math.Abs(a.Median)
	spread := math.Max(medianSpread(a), medianSpread(b))
	switch {
	case bd.info:
		status = "info"
	case spread > limit:
		status = "unresolved"
	case worse > limit || math.IsNaN(worse):
		status = "regressed"
	default:
		status = "ok"
	}
	return worse, limit, status
}

// compareReports prints one row per (end-to-end metric, workload) of two
// report files and returns errFailed if any pair regressed.
func compareReports(stdout io.Writer, con *contract, pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	if compare(stdout, con, a, b) != 0 {
		return errors.New("at least one (metric, workload) pair regressed")
	}
	return nil
}

func compare(stdout io.Writer, con *contract, a, b *report) int {
	bounds := map[string]bound{}
	for name, bd := range extraBounds {
		bounds[name] = bd
	}
	for _, c := range con.EndToEnd {
		bounds[c.Name] = bound{rel: c.Bound, higherOK: c.Better == "higher"}
	}
	ha, hb := a.Host, b.Host
	ha.Commit, hb.Commit = "", ""
	if ha != hb || a.Seed != b.Seed || a.Scale != b.Scale || a.Seconds != b.Seconds {
		fmt.Fprintf(stdout, "note: the reports differ in host, seed, scale or seconds; their timings are not comparable\n  a: %+v seed=%d scale=%g seconds=%g\n  b: %+v seed=%d scale=%g seconds=%g\n",
			ha, a.Seed, a.Scale, a.Seconds, hb, b.Seed, b.Scale, b.Seconds)
	}
	fmt.Fprintf(stdout, "%-18s %-20s %14s %14s %9s %9s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "status")
	regressed := false
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(stdout, "%-18s missing from the second report\n", wa.Name)
			regressed = true
			continue
		}
		for _, ma := range wa.EndToEnd {
			mb := findMetric(wb.EndToEnd, ma.Name)
			bd, known := bounds[ma.Name]
			if mb == nil || !known {
				fmt.Fprintf(stdout, "%-18s %-20s missing from the second report or without a bound\n", wa.Name, ma.Name)
				regressed = true
				continue
			}
			worse, limit, status := verdict(ma, *mb, bd)
			rel := func(v float64) string {
				if ma.Median == 0 {
					return fmt.Sprintf("%9.3g", v)
				}
				return fmt.Sprintf("%+8.2f%%", 100*v/math.Abs(ma.Median))
			}
			fmt.Fprintf(stdout, "%-18s %-20s %14.6g %14.6g %s %s  %s\n", wa.Name, ma.Name, ma.Median, mb.Median, rel(worse), rel(limit), status)
			regressed = regressed || status == "regressed"
		}
	}
	if regressed {
		return 1
	}
	return 0
}
