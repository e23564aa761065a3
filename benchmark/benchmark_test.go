package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// spawnPass re-executes it as a per-workload child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

const (
	testContract = "../BENCHMARK.json"
	// testScale shrinks every workload ~50x (see workload.scaled); ranks
	// and order stay, so every code path of the full-size run is
	// exercised.
	testScale = 0.02
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func contractNames(cs []contractMetric) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	sort.Strings(out)
	return out
}

func mustContract(t *testing.T) *contract {
	t.Helper()
	con, err := loadContract(testContract)
	if err != nil {
		t.Fatal(err)
	}
	return con
}

// TestContractLimits holds BENCHMARK.json to the builder contract's
// schema limits, so a later edit cannot get the file refused.
func TestContractLimits(t *testing.T) {
	raw, err := os.ReadFile(testContract)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []contractMetric `json:"end_to_end"`
		PerLayer []contractMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(doc.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	// 4 + 22 runs per workload, each run_seconds of timed reps plus link,
	// input generation and a warm-up rep (~8 s on a quiet host, up to 15 s
	// on a busy one), within 3420 s.
	if runs := 4 + 22*len(doc.Workloads); float64(runs)*(float64(doc.RunSeconds)+15) > 3420 {
		t.Errorf("%d runs of %d s + ~15 s overhead exceed the 3420 s cap", runs, doc.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	var got []string
	for _, w := range doc.Workloads {
		use(w.Name)
		got = append(got, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	// The contract lists the workloads the driver's time limit has room
	// for; each must be one the benchmark runs.
	for _, name := range got {
		if findWorkload(name) == nil {
			t.Errorf("contract workload %s is not a benchmark workload", name)
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	setup := false
	for _, m := range doc.EndToEnd {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range doc.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
	for _, m := range doc.PerLayer {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
}

// TestEveryWorkloadBothPasses runs each workload's untraced and traced
// pass in-process at 1/50 size with one rep and holds the emitted names
// to BENCHMARK.json; a second seed has to run the untraced pass clean.
func TestEveryWorkloadBothPasses(t *testing.T) {
	con := mustContract(t)
	cache, out := t.TempDir(), t.TempDir()
	host := detectHost()
	host.StreamArrayBytes = 8 << 20 // the 1 GiB copy is for real runs
	for i := range workloads {
		w := &workloads[i]
		for _, seed := range []int64{1, 2} {
			in, err := ensureInput(w, seed, testScale, cache)
			if err != nil {
				t.Fatal(err)
			}
			e2e := untracedPass(w, in, seed, host.Threads, 0, nil)
			if e2e.Failed != 0 || e2e.Attempted == 0 {
				t.Errorf("%s seed %d untraced: %d of %d ops failed: %v", w.Name, seed, e2e.Failed, e2e.Attempted, e2e.Failures)
			}
			want := append(contractNames(con.EndToEnd), "fit", "fail_share", "e2e_wall_s", "host_slowdown")
			switch w.Kind {
			case kindUpdate:
				want = append(want, "update_s")
			case kindDist:
				want = append(want, "net_bytes_per_sweep")
			}
			sort.Strings(want)
			if got := names(e2e.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s end-to-end metrics\n got %v\nwant %v", w.Name, got, want)
			}
			if w.Kind == kindUpdate {
				if m := findMetric(e2e.Metrics, "update_s"); m == nil || m.N != sessionDeltas {
					t.Errorf("%s: one session must have %d update samples: %+v", w.Name, sessionDeltas, m)
				}
			}
			if seed != 1 {
				continue
			}

			layers := tracedPass(w, in, seed, host, out)
			if layers.Failed != 0 || layers.Attempted == 0 {
				t.Errorf("%s seed %d traced: %d of %d ops failed: %v", w.Name, seed, layers.Failed, layers.Attempted, layers.Failures)
			}
			if got, want := names(layers.Metrics), contractNames(con.PerLayer); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s per-layer metrics\n got %v\nwant %v", w.Name, got, want)
			}
			for _, m := range append(e2e.Metrics, layers.Metrics...) {
				if !nameRE.MatchString(m.Name) {
					t.Errorf("%s: metric name %q", w.Name, m.Name)
				}
			}
			if layers.SelfTime["ttm.ttmc"] <= 0 || layers.SelfTime["driver.sweep"] < 0 {
				t.Errorf("%s: self times %v", w.Name, layers.SelfTime)
			}
			var trace struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			data, err := os.ReadFile(filepath.Join(out, "trace_"+w.Name+".json"))
			if err == nil {
				err = json.Unmarshal(data, &trace)
			}
			if err != nil || len(trace.TraceEvents) < 10 {
				t.Errorf("%s: trace file: %v (%d events)", w.Name, err, len(trace.TraceEvents))
			}
		}
	}
}

// TestDriverLine runs the command the way BENCHMARK.json's driver does —
// through the parent, a spawned child, and the result line — and checks
// the line's shape.
func TestDriverLine(t *testing.T) {
	con := mustContract(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"--workload", "delicious4_update", "--seed", "3", "--seconds", "0", "--trace", "0",
		"-scale", "0.02", "-contract", testContract, "-cache", t.TempDir(), "-out", t.TempDir(),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if len(line) != 4 || string(line["correct"]) != "true" || string(line["failed"]) != "0" {
		t.Errorf("result line %s", lines[len(lines)-1])
	}
	var ms map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(con.EndToEnd) {
		t.Errorf("result line has %d metrics, contract %d", len(ms), len(con.EndToEnd))
	}
	for _, c := range con.EndToEnd {
		if m, ok := ms[c.Name]; !ok || m.Unit != c.Unit || !(m.Value > 0) {
			t.Errorf("metric %s: %+v", c.Name, m)
		}
	}

	if code := run([]string{"--workload", "no_such", "-contract", testContract}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload must not exit 0")
	}
}

func TestCompareVerdicts(t *testing.T) {
	con := &contract{EndToEnd: []contractMetric{{Name: "e2e_s", Better: "lower", Bound: 0.10}}}
	mk := func(e2e, q1, q3, fit, bytes float64) *report {
		return &report{Workloads: []workloadReport{{Name: "netflix3_dist2", EndToEnd: []metric{
			{Name: "e2e_s", Median: e2e, Q1: q1, Q3: q3, N: 9},
			{Name: "fit", Median: fit, Q1: fit, Q3: fit},
			{Name: "net_bytes_per_sweep", Median: bytes, Q1: bytes, Q3: bytes},
		}}}}
	}
	base := mk(2.0, 1.98, 2.02, 0.99, 1000)
	for _, tc := range []struct {
		name string
		b    *report
		code int
		want string
	}{
		{"same", mk(2.0, 1.98, 2.02, 0.99, 1000), 0, "ok"},
		{"within bound", mk(2.15, 2.1, 2.2, 0.99, 1000), 0, "ok"},
		{"faster", mk(1.0, 0.99, 1.01, 0.99, 1000), 0, "ok"},
		{"slower", mk(2.3, 2.28, 2.32, 0.99, 1000), 1, "regressed"},
		{"noisy", mk(2.3, 1.9, 2.7, 0.99, 1000), 0, "unresolved"},
		{"fit dropped", mk(2.0, 1.98, 2.02, 0.98999, 1000), 1, "regressed"},
		{"one more byte", mk(2.0, 1.98, 2.02, 0.99, 1001), 1, "regressed"},
	} {
		var out bytes.Buffer
		if code := compare(&out, con, base, tc.b); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d with %q:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}

// TestCommittedTrajectory holds the committed back-to-back pairs of this
// benchmark (a/b on plain wall time, c/d with the host clock) to its own
// bounds: every pair ok, every count repeated.
func TestCommittedTrajectory(t *testing.T) {
	con := mustContract(t)
	exact := regexp.MustCompile(`(_madds|_matvecs|_sweeps|_bytes|_bytes_per_sweep|index_bytes_[a-z]+|\.cut|\.fit)$`)
	for _, pair := range [][2]string{{"a", "b"}, {"c", "d"}} {
		a, err := loadReport("results/BENCH_12." + pair[0] + ".json")
		if err != nil {
			t.Fatal(err)
		}
		b, err := loadReport("results/BENCH_12." + pair[1] + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if code := compare(&out, con, a, b); code != 0 || strings.Contains(out.String(), "unresolved") {
			t.Errorf("committed runs %v do not agree within the bounds:\n%s", pair, out.String())
		}
		for i, wa := range a.Workloads {
			wb := b.Workloads[i]
			if wa.Failed != 0 || wb.Failed != 0 {
				t.Errorf("%s: committed runs %v carry failed ops", wa.Name, pair)
			}
			for j, ma := range wa.PerLayer {
				if mb := wb.PerLayer[j]; ma.Name != mb.Name || (exact.MatchString(ma.Name) && ma.Median != mb.Median) {
					t.Errorf("%s: %s = %v in run %s, %s = %v in run %s; counts must repeat", wa.Name, ma.Name, ma.Median, pair[0], mb.Name, mb.Median, pair[1])
				}
			}
		}
	}
}
