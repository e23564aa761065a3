package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
)

// hooiBin is the binary under test and tnsPath its input, a 2k-nnz
// order-3 tensor; TestMain builds both once.
var hooiBin, tnsPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hooi-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hooiBin = filepath.Join(dir, "hooi")
	if out, err := exec.Command("go", "build", "-o", hooiBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building hooi: %v\n%s", err, out)
		os.Exit(1)
	}
	tnsPath = filepath.Join(dir, "x.tns")
	x := gen.Random(gen.Config{Dims: []int{60, 50, 40}, NNZ: 2000, Skew: 0.5, Seed: 1})
	if err := tensor.WriteTNSFile(tnsPath, x); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// hooi runs the binary on the test tensor at ranks 3,3,3 for two sweeps
// with the given extra arguments.
func hooi(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(hooiBin, append([]string{"-input", tnsPath, "-ranks", "3,3,3", "-iters", "2", "-tol", "-1"}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("running hooi %v: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return out.String(), errOut.String(), exit
}

// Flags that are gone are usage errors, and a flag the distributed path
// does not carry to its ranks is refused when set, with the error -update
// and -eps get there. So is a distributed flag on a shared-memory run.
func TestFlagErrors(t *testing.T) {
	const notDist = " is a shared-memory engine option; it cannot be combined with -dist"
	const needsDist = " is a distributed option; it needs -dist"
	for _, tc := range []struct {
		args   []string
		exit   int
		stderr string
	}{
		{[]string{"-format", "csf"}, 2, "flag provided but not defined: -format"},
		{[]string{"-schedule", "static"}, 2, "flag provided but not defined: -schedule"},
		{[]string{"-svd", "gram"}, 2, "flag provided but not defined: -svd"},
		{[]string{"-dist", "2", "-svd", "lanczos"}, 2, "flag provided but not defined: -svd"},
		{[]string{"-dist", "2", "-threads", "2"}, 1, "hooi: -threads" + notDist},
		{[]string{"-ttmc", "flat"}, 2, "flag provided but not defined: -ttmc"},
		{[]string{"-update", tnsPath, "-updates", "2"}, 2, "flag provided but not defined: -updates"},
		{[]string{"-init", "hosvd"}, 2, "flag provided but not defined: -init"},
		{[]string{"-algo", "sthosvd"}, 2, "flag provided but not defined: -algo"},
		{[]string{"-dist", "2", "-init", "hosvd"}, 2, "flag provided but not defined: -init"},
		{[]string{"-dist", "2", "-algo", "sthosvd"}, 2, "flag provided but not defined: -algo"},
		{[]string{"-eps", "0.5", "-sketch", "count"}, 2, "flag provided but not defined: -sketch"},
		{[]string{"-eps", "0.5", "-oversample", "4"}, 2, "flag provided but not defined: -oversample"},
		{[]string{"-eps", "0.5", "-power", "1"}, 2, "flag provided but not defined: -power"},
		{[]string{"-dist", "spawn", "-np", "2", "-threads", "1"}, 1, "hooi: -threads" + notDist},
		{[]string{"-dist", "2", "-update", "delta.tns"}, 1, "hooi: -update is a shared-memory engine feature; it cannot be combined with -dist"},
		{[]string{"-dist", "2", "-eps", "0.5"}, 1, "hooi: -eps adaptive rank is a shared-memory engine feature; it cannot be combined with -dist"},
		{[]string{"-dist", "0", "-threads", "2", "-q"}, 0, ""},
		{[]string{"-grain", "coarse"}, 1, "hooi: -grain" + needsDist},
		{[]string{"-grain", "fine"}, 1, "hooi: -grain" + needsDist},
		{[]string{"-method", "bl"}, 1, "hooi: -method" + needsDist},
		{[]string{"-np", "2"}, 1, "hooi: -np" + needsDist},
		{[]string{"-rank", "0"}, 1, "hooi: -rank" + needsDist},
		{[]string{"-peers", "127.0.0.1:1"}, 1, "hooi: -peers" + needsDist},
		{[]string{"-listen-fd", "3"}, 1, "hooi: -listen-fd" + needsDist},
		{[]string{"-dist-timeout", "1s"}, 1, "hooi: -dist-timeout" + needsDist},
		{[]string{"-max-restarts", "1"}, 1, "hooi: -max-restarts" + needsDist},
		{[]string{"-chaos-kill-rank", "1"}, 1, "hooi: -chaos-kill-rank" + needsDist},
		{[]string{"-chaos-kill-sweep", "2"}, 1, "hooi: -chaos-kill-sweep" + needsDist},
		{[]string{"-dist", "0", "-method", "hp"}, 1, "hooi: -method" + needsDist},
	} {
		stdout, stderr, exit := hooi(t, tc.args...)
		if exit != tc.exit || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("hooi %v: exit %d, stderr %q; want exit %d and %q", tc.args, exit, stderr, tc.exit, tc.stderr)
		}
		if tc.exit != 0 && strings.Contains(stdout, "fit") {
			t.Errorf("hooi %v: refused, yet it solved: %q", tc.args, stdout)
		}
	}
}

// -q prints the fit, to ten places, and nothing else — in every mode.
func TestQuietPrintsOneFitLine(t *testing.T) {
	fit := regexp.MustCompile(`^0\.\d{10}\n$`)
	for _, args := range [][]string{
		{"-q"},
		{"-q", "-dist", "2"},
		{"-q", "-dist", "2", "-grain", "coarse", "-method", "bl"},
	} {
		stdout, stderr, exit := hooi(t, args...)
		if exit != 0 || !fit.MatchString(stdout) {
			t.Errorf("hooi %v: exit %d, stdout %q, stderr %q; want one %%.10f line", args, exit, stdout, stderr)
		}
	}
}

// -update ingests a delta after the first solve, prints one line per
// update, and ends with the distance to a from-scratch solve of the
// merged tensor, which at a converged tolerance is small.
func TestUpdateLines(t *testing.T) {
	x, err := tensor.ReadTNSFile(tnsPath)
	if err != nil {
		t.Fatal(err)
	}
	deltaPath := filepath.Join(t.TempDir(), "delta.tns")
	if err := tensor.WriteTNSFile(deltaPath, gen.Delta(x, 0.01, 0.01, 7)); err != nil {
		t.Fatal(err)
	}
	updateLine := regexp.MustCompile(`(?m)^update 1 \(` + regexp.QuoteMeta(deltaPath) + `\): \+\d+ nnz -> fit 0\.\d{8} in \d+ sweeps; ttmc \S+ madds/sweep vs \S+ full-sweep \([0-9.]+x less\)$`)
	dfitLine := regexp.MustCompile(`(?m)^from-scratch solve of the merged tensor: fit 0\.\d{8} in \d+ sweeps; \|dfit\| = (\S+)$`)
	stdout, stderr, exit := hooi(t, "-iters", "40", "-tol", "1e-9", "-update", deltaPath)
	if exit != 0 {
		t.Fatalf("exit %d: %s", exit, stderr)
	}
	if !updateLine.MatchString(stdout) {
		t.Errorf("no update line in:\n%s", stdout)
	}
	m := dfitLine.FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("no |dfit| line in:\n%s", stdout)
	}
	if dfit, err := strconv.ParseFloat(m[1], 64); err != nil || !(dfit < 1e-6) {
		t.Errorf("|dfit| = %s, want below 1e-6", m[1])
	}
}

// The full report's phase, storage and kernel lines.
func TestReportLines(t *testing.T) {
	stdout, stderr, exit := hooi(t)
	if exit != 0 {
		t.Fatalf("exit %d: %s", exit, stderr)
	}
	const dur = `[0-9.]+(ns|µs|ms|s)`
	for _, line := range []string{
		`^tensor: dims=\[60 50 40\] nnz=\d+$`,
		`^Tucker core \[3 3 3\], fit 0\.\d{4} after 2 sweeps$`,
		`^timings: read=` + dur + ` init=` + dur + ` symbolic=` + dur + ` ttmc=` + dur + ` trsvd=` + dur + ` core=` + dur + ` \(steady-state allocs/sweep \d+, \d+ B/sweep\)$`,
		`^storage: index=\d+ B \(12\.00 B/nnz\) streams=[1-9]\d* B( VmHWM=[1-9]\d* kB)?$`,
		`^ttmc: strategy=flat flops=\d+ \(\d+ madds/sweep; predicted flat=\d+ dtree=\d+\) runs=\[0\.\d\d 0\.\d\d 0\.\d\d\] ns/nnz=\[\d+\.\d \d+\.\d \d+\.\d\]$`,
		`^trsvd: solver=\[gram gram gram\] solves=6 passes=12 \(2\.0/solve\) madds=\d+ unconverged=0$`,
		`^kernels: (avx2|go)$`,
		`^  sweep  2: fit 0\.\d{8}$`,
	} {
		if !regexp.MustCompile(`(?m)` + line).MatchString(stdout) {
			t.Errorf("no line matches %s in:\n%s", line, stdout)
		}
	}
	// The plan takes the dimension tree from order 4 up.
	path4 := filepath.Join(t.TempDir(), "x4.tns")
	if err := tensor.WriteTNSFile(path4, gen.Random(gen.Config{Dims: []int{20, 18, 16, 14}, NNZ: 2000, Skew: 0.5, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, exit = hooi(t, "-input", path4, "-ranks", "2,2,2,2")
	if exit != 0 {
		t.Fatalf("exit %d: %s", exit, stderr)
	}
	if !regexp.MustCompile(`(?m)^ttmc: strategy=dtree flops=\d+ \(\d+ madds/sweep; predicted flat=\d+ dtree=\d+\) \(node recompute time ` + dur + `\) ns/nnz=\[\d+\.\d \d+\.\d \d+\.\d \d+\.\d\]$`).MatchString(stdout) {
		t.Errorf("no dtree ttmc line in:\n%s", stdout)
	}
	// The trsvd line names the solver each mode resolved to and what it
	// cost: Gram at 9 columns for 3 vectors (above), Lanczos at 289
	// columns for 17, past the Gram side's cap, and the randomized solver
	// wherever -eps picks the ranks.
	for _, tc := range []struct {
		args []string
		line string
	}{
		{[]string{"-ranks", "17,17,17"}, `^trsvd: solver=\[lanczos lanczos lanczos\] solves=6 passes=\d{2,} \(\d+\.\d/solve\) madds=\d+ unconverged=\d$`},
		{[]string{"-eps", "0.5"}, `^trsvd: solver=\[rand rand rand\] solves=\d+ passes=\d{2,} `},
	} {
		stdout, stderr, exit = hooi(t, tc.args...)
		if exit != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, exit, stderr)
		}
		if !regexp.MustCompile(`(?m)` + tc.line).MatchString(stdout) {
			t.Errorf("%v: no line matches %s in:\n%s", tc.args, tc.line, stdout)
		}
	}
}

// The distributed report carries the paper's Tables II-IV: wall time
// per sweep, the per-phase maxima over the ranks, and per mode the comm
// bytes and the W_TTMc and W_TRSVD work, max and avg per rank.
func TestDistReportLines(t *testing.T) {
	stdout, stderr, exit := hooi(t, "-dist", "2")
	if exit != 0 {
		t.Fatalf("exit %d: %s", exit, stderr)
	}
	const dur = `[0-9.]+(ns|µs|ms|s)`
	for _, line := range []string{
		`^distributed fine-hp on 2 ranks \(simulated\): fit 0\.\d{6} after 2 sweeps \([0-9.]+s/iter wall\)$`,
		`^max phase times: ttmc=` + dur + ` trsvd=` + dur + ` core=` + dur + ` symbolic=` + dur + `$`,
	} {
		if !regexp.MustCompile(`(?m)` + line).MatchString(stdout) {
			t.Errorf("no line matches %s in:\n%s", line, stdout)
		}
	}
	mode := regexp.MustCompile(`(?m)^  mode (\d) comm: max \d+ B, avg \d+ B per rank \(expand \d+, fold \d+, trsvd \d+ in 2 collectives\); W_TTMc max (\d+) avg ([0-9]+), W_TRSVD max (\d+) avg ([0-9]+)$`)
	lines := mode.FindAllStringSubmatch(stdout, -1)
	if len(lines) != 3 {
		t.Fatalf("%d mode lines with W_TTMc and W_TRSVD, want 3, in:\n%s", len(lines), stdout)
	}
	for _, m := range lines {
		for _, pair := range [][2]string{{m[2], m[3]}, {m[4], m[5]}} {
			mx, _ := strconv.Atoi(pair[0])
			av, _ := strconv.Atoi(pair[1])
			if av <= 0 || mx < av {
				t.Errorf("mode %s: max %d below avg %d, or no work: %s", m[1], mx, av, m[0])
			}
		}
	}
}
