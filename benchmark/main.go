// Command benchmark is the repository's measuring stick: `.tns` file in,
// factors and core out, on five workloads that separate the layers, with
// every number taken from outside the program by this package's own
// stopwatch around public functions. See README.md in this directory.
//
//	go run ./benchmark                          all workloads, both passes, report + traces in -out
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                            one pass of one workload; the last output line is
//	                                            the result object BENCHMARK.json's driver reads
//	go run ./benchmark -compare a.json b.json   regression table between two reports
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// childEnv marks the process as the per-workload child: each pass runs
// in a fresh process so that peak_rss_mb belongs to one workload and the
// input generator's heap is never part of it.
const childEnv = "HYPERTENSOR_BENCHMARK_CHILD"

//go:embed reference.json
var referenceJSON []byte

// referenceFile is the committed fit of every workload at full size, per
// seed: the answer a later change has to keep reproducing to 1e-6.
type referenceFile struct {
	Fits map[string]map[string]float64 `json:"fits"`
}

const referencePath = "benchmark/reference.json"

// contract is the part of BENCHMARK.json this program reads back: the
// names it has promised to emit, and the regression bounds.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	cache    string
	contract string
	scale    float64
	compare  bool
	writeRef bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// errFailed is returned after the failures have already been printed.
var errFailed = errors.New("FAILED: an op failed or a metric named in the contract was not emitted")

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run one pass of this workload and print the driver's result line (default: all workloads, both passes)")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 32, "timed-rep budget of an untraced pass, after its warm-up rep")
	fs.IntVar(&cfg.trace, "trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced pass")
	fs.StringVar(&cfg.out, "out", ".bench_out", "directory for report.json and trace_<workload>.json")
	fs.StringVar(&cfg.cache, "cache", ".bench_cache", "directory the generated .tns inputs are kept in")
	fs.StringVar(&cfg.contract, "contract", "BENCHMARK.json", "the benchmark contract whose metric names must all be emitted")
	fs.Float64Var(&cfg.scale, "scale", 1, "shrink every workload (nonzeros by this factor, modes by its root; tests use 0.02); the reference fits apply at 1 only")
	fs.BoolVar(&cfg.compare, "compare", false, "compare two reports: -compare a.json b.json")
	fs.BoolVar(&cfg.writeRef, "write-reference", false, "after a full run, record this seed's fits in "+referencePath)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	err := func() error {
		con, err := loadContract(cfg.contract)
		if err != nil {
			return err
		}
		if cfg.compare {
			if fs.NArg() != 2 {
				return errors.New("-compare needs two report files")
			}
			return compareReports(stdout, con, fs.Arg(0), fs.Arg(1))
		}
		if cfg.workload == "" {
			if cfg.writeRef && cfg.scale != 1 {
				return errors.New("reference fits are recorded at -scale 1 only")
			}
			return fullRun(cfg, con, stdout, stderr)
		}
		w := findWorkload(cfg.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", cfg.workload)
		}
		if os.Getenv(childEnv) != "" {
			return child(cfg, w, stdout)
		}
		return driverRun(cfg, con, w, stdout, stderr)
	}()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// execPass runs one pass of one workload in this process.
func execPass(cfg config, w *workload, traced bool) (passResult, error) {
	in, err := ensureInput(w, cfg.seed, cfg.scale, cfg.cache)
	if err != nil {
		return passResult{}, err
	}
	host := detectHost()
	if traced {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return passResult{}, err
		}
		return tracedPass(w, in, cfg.seed, host, cfg.out), nil
	}
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return passResult{}, fmt.Errorf("%s: %w", referencePath, err)
	}
	var want *float64
	if fit, ok := ref.Fits[w.Name][strconv.FormatInt(cfg.seed, 10)]; ok && cfg.scale == 1 {
		want = &fit
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	return untracedPass(w, in, cfg.seed, host.Threads, budget, want), nil
}

// child is the per-workload process: it prints its passResult as the
// last line of standard output for the parent to decode.
func child(cfg config, w *workload, stdout io.Writer) error {
	res, err := execPass(cfg, w, cfg.trace == 1)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// spawnPass generates the inputs here, in the parent, and runs the pass
// in a fresh child process of this binary, waiting for it to end.
func spawnPass(cfg config, w *workload, traced bool, stderr io.Writer) (passResult, error) {
	var res passResult
	if _, err := ensureInput(w, cfg.seed, cfg.scale, cfg.cache); err != nil {
		return res, err
	}
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", w.Name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace,
		"-out", cfg.out, "-cache", cfg.cache, "-contract", cfg.contract,
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	var outBuf bytes.Buffer
	cmd.Stdout = &outBuf
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s child: %w", w.Name, err)
	}
	lines := strings.Split(strings.TrimSpace(outBuf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s child result: %w", w.Name, err)
	}
	return res, nil
}

// pick returns the metrics the contract names, in its order, or an error
// naming the first one the pass did not emit.
func pick(res passResult, want []contractMetric) ([]metric, error) {
	out := make([]metric, 0, len(want))
	for _, c := range want {
		m := findMetric(res.Metrics, c.Name)
		if m == nil {
			return nil, fmt.Errorf("workload %s did not emit %s", res.Workload, c.Name)
		}
		out = append(out, *m)
	}
	return out, nil
}

// driverRun is one pass of one workload under the builder contract: the
// last line of standard output is the result object.
func driverRun(cfg config, con *contract, w *workload, stdout, stderr io.Writer) error {
	traced := cfg.trace == 1
	res, err := spawnPass(cfg, w, traced, stderr)
	if err != nil {
		return err
	}
	for _, f := range res.Failures {
		fmt.Fprintln(stderr, "benchmark: FAILED:", f)
	}
	want := con.EndToEnd
	if traced {
		want = con.PerLayer
	}
	ms, err := pick(res, want)
	if err != nil {
		return err
	}
	printMetrics(stdout, fmt.Sprintf("%s seed %d", w.Name, cfg.seed), ms)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range ms {
		line.Metrics[m.Name] = value{m.Median, m.Unit}
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		return err
	}
	if res.Failed > 0 {
		return errFailed
	}
	return nil
}

// fullRun runs every workload's untraced and traced pass, prints every
// metric, writes report.json and the traces to -out, and exits non-zero
// unless fail_share is 0 everywhere and every promised metric appeared.
func fullRun(cfg config, con *contract, stdout, stderr io.Writer) error {
	rep := report{Schema: 1, Host: detectHost(), Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale}
	h := rep.Host
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d T=%d %s commit=%s cpu=%q\n", h.NProc, h.GOMAXPROCS, h.Threads, h.GoVersion, h.Commit, h.CPU)
	fmt.Fprintf(stdout, "ceilings: LLC %d B; stream copy 2 arrays of %d B; GEMV operand %d B; GEMM %d x %d\n", h.LLCBytes, h.StreamArrayBytes, h.GemvOperandBytes, h.GemmN, h.GemmN)
	ok := true
	for i := range workloads {
		w := &workloads[i]
		wr := workloadReport{Name: w.Name}
		for _, traced := range []bool{false, true} {
			res, err := spawnPass(cfg, w, traced, stderr)
			if err != nil {
				return err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Failures = append(wr.Failures, res.Failures...)
			want := con.EndToEnd
			if traced {
				wr.PerLayer, wr.SelfTime, want = res.Metrics, res.SelfTime, con.PerLayer
			} else {
				wr.EndToEnd = res.Metrics
			}
			if _, err := pick(res, want); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				ok = false
			}
		}
		fmt.Fprintf(stdout, "\n%s: %d ops attempted, %d failed\n", w.Name, wr.Attempted, wr.Failed)
		for _, f := range wr.Failures {
			fmt.Fprintln(stdout, "  FAILED:", f)
		}
		printMetrics(stdout, "end to end (tracing off)", wr.EndToEnd)
		printMetrics(stdout, "per layer (traced pass)", wr.PerLayer)
		printSelfTimes(stdout, wr.SelfTime)
		ok = ok && wr.Failed == 0
		rep.Workloads = append(rep.Workloads, wr)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "report.json")
	if err := writeJSON(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nreport: %s   traces: %s\n", path, filepath.Join(cfg.out, "trace_<workload>.json"))
	if !ok {
		return errFailed
	}
	if cfg.writeRef {
		return writeReference(rep)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeReference records the report's fits under its seed, keeping the
// other seeds already in the file.
func writeReference(rep report) error {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return err
	}
	if ref.Fits == nil {
		ref.Fits = map[string]map[string]float64{}
	}
	for _, w := range rep.Workloads {
		if m := findMetric(w.EndToEnd, "fit"); m != nil {
			if ref.Fits[w.Name] == nil {
				ref.Fits[w.Name] = map[string]float64{}
			}
			ref.Fits[w.Name][strconv.FormatInt(rep.Seed, 10)] = m.Median
		}
	}
	return writeJSON(referencePath, ref)
}
