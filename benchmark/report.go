package main

import (
	"fmt"
	"io"
	"sort"
)

// metric is one named measurement of one workload: the median of its
// samples with the range, the quartiles and the count that produced it.
// Counts and single measurements have N = 1.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantile interpolates linearly between the order statistics of the
// sorted samples.
func quantile(sorted []float64, p float64) float64 {
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// metricSet collects a pass's metrics in emission order.
type metricSet struct {
	list []metric
}

// add records a metric from its samples; at least one is required.
func (s *metricSet) add(name, unit string, samples ...float64) {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.list = append(s.list, metric{
		Name: name, Unit: unit, N: len(sorted),
		Median: quantile(sorted, 0.5), Min: sorted[0], Max: sorted[len(sorted)-1],
		Q1: quantile(sorted, 0.25), Q3: quantile(sorted, 0.75),
	})
}

// findMetric returns the named metric of a list, or nil.
func findMetric(ms []metric, name string) *metric {
	for i := range ms {
		if ms[i].Name == name {
			return &ms[i]
		}
	}
	return nil
}

// value returns the median of a metric recorded earlier in the pass.
func (s *metricSet) value(name string) float64 {
	m := findMetric(s.list, name)
	if m == nil {
		panic("benchmark: metric " + name + " read before it was recorded")
	}
	return m.Median
}

// passResult is what one pass (untraced or traced) of one workload
// produced; the child process prints it as its last line of output.
type passResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   []metric           `json:"metrics"`
	SelfTime  map[string]float64 `json:"self_time_s,omitempty"`
}

// workloadReport is one workload's row of the full report.
type workloadReport struct {
	Name      string             `json:"name"`
	EndToEnd  []metric           `json:"end_to_end"`
	PerLayer  []metric           `json:"per_layer"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	SelfTime  map[string]float64 `json:"self_time_s"`
}

// report is the JSON document `go run ./benchmark` writes to -out and
// -compare reads back.
type report struct {
	Schema    int              `json:"schema"`
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Scale     float64          `json:"scale"`
	Workloads []workloadReport `json:"workloads"`
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "  %s\n", title)
	for _, m := range ms {
		if m.N > 1 {
			fmt.Fprintf(w, "    %-30s %14.6g %-8s [%.6g – %.6g] n=%d\n", m.Name, m.Median, m.Unit, m.Min, m.Max, m.N)
		} else {
			fmt.Fprintf(w, "    %-30s %14.6g %-8s n=1\n", m.Name, m.Median, m.Unit)
		}
	}
}

func printSelfTimes(w io.Writer, self map[string]float64) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(w, "  self time by span (traced pass, span minus children)")
	for _, n := range names {
		fmt.Fprintf(w, "    %-30s %10.4f s\n", n, self[n])
	}
}
