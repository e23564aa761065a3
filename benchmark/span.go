package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans inside the program are a later issue; these are
// the outside view.
type span struct {
	Name   string
	Start  time.Duration // since the recorder was created
	End    time.Duration
	Parent int // index of the enclosing span, -1 at the top level
	Rep    int
	// Track is the Chrome trace thread id: 0 for spans the benchmark
	// timed itself, 1+rank for the per-rank phase totals rebuilt from
	// dist.Stats.
	Track int
	// Note marks spans that were not timed by the recorder.
	Note string
}

// recorder keeps spans in memory until the pass ends. A nil recorder
// records nothing, which is how the untraced pass runs the same code.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
	rep      int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (r *recorder) begin(name string) (end func()) {
	if r == nil {
		return func() {}
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0), Parent: parent, Rep: r.rep})
	r.open = append(r.open, id)
	return func() {
		r.spans[id].End = time.Since(r.t0)
		r.open = r.open[:len(r.open)-1]
	}
}

// synthetic appends a span that was not timed here (a phase total taken
// from dist.Stats), laid out from start on the given track.
func (r *recorder) synthetic(name string, parent, track int, start, dur time.Duration, note string) {
	r.spans = append(r.spans, span{Name: name, Start: start, End: start + dur, Parent: parent, Rep: r.rep, Track: track, Note: note})
}

// total sums the durations of the spans with the given name and rep, in
// seconds.
func (r *recorder) total(name string, rep int) float64 {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.Rep == rep {
			d += s.End - s.Start
		}
	}
	return d.Seconds()
}

// selfTimes returns, per span name, the summed duration minus the part
// covered by child spans, in seconds.
func (r *recorder) selfTimes() map[string]float64 {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 && s.Track == 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for i, s := range r.spans {
		if s.Track == 0 {
			self[s.Name] += (s.End - s.Start - child[i]).Seconds()
		}
	}
	return self
}

// writeChrome flushes the spans as Chrome trace-event JSON, which
// ui.perfetto.dev and chrome://tracing open directly.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		args := map[string]any{"workload": r.workload, "rep": s.Rep, "id": i, "parent": s.Parent}
		if s.Note != "" {
			args["note"] = s.Note
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Track, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
