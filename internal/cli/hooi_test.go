package cli

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hypertensor/internal/gen"
	"hypertensor/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// dir holds the inputs TestMain writes: x.tns, the 2k-nnz order-3
// tensor cmd/hooi's tests use, x4.tns, an order-4 one, tall.tns, an
// order-3 one whose modes 0 and 2 are mostly one-nonzero slices,
// tall4.tns, an order-4 one whose mode 1 is, and delta.tns, three
// nonzeros for x.tns (two changed, one new).
var dir string

func TestMain(m *testing.M) {
	// Under -dist spawn the supervisor runs this binary as its ranks,
	// with the -peers list appended to the command line it was given.
	if slices.Contains(os.Args, "-peers") {
		os.Exit(Hooi(os.Args, os.Stdout, os.Stderr))
	}
	var err error
	if dir, err = os.MkdirTemp("", "cli-test"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for name, x := range map[string]*tensor.COO{
		"x.tns":     gen.Random(gen.Config{Dims: []int{60, 50, 40}, NNZ: 2000, Skew: 0.5, Seed: 1}),
		"x4.tns":    gen.Random(gen.Config{Dims: []int{20, 18, 16, 14}, NNZ: 2000, Skew: 0.5, Seed: 1}),
		"tall.tns":  gen.Random(gen.Config{Dims: []int{3000, 8, 900}, NNZ: 2000, Skew: 0.3, Seed: 1}),
		"tall4.tns": gen.Random(gen.Config{Dims: []int{8, 2000, 60, 40}, NNZ: 2000, Skew: 0.3, Seed: 1}),
	} {
		if err == nil {
			err = tensor.WriteTNSFile(filepath.Join(dir, name), x)
		}
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "delta.tns"), []byte("1 1 1 0.5\n60 50 40 2.0\n3 4 5 1.5\n"), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// base is the run every case starts from: x.tns at ranks 3,3,3 for two
// sweeps; a case's own flags follow, and the last occurrence wins.
func base() []string {
	return []string{"-input", filepath.Join(dir, "x.tns"), "-ranks", "3,3,3", "-iters", "2", "-tol", "-1"}
}

// runHooi runs the command in-process and returns its exit code and its
// output, with the input directory written as $DIR.
func runHooi(args ...string) (exit int, stdout, stderr string) {
	var out, errOut strings.Builder
	exit = Hooi(append([]string{"hooi"}, args...), &out, &errOut)
	return exit, strings.ReplaceAll(out.String(), dir, "$DIR"), strings.ReplaceAll(errOut.String(), dir, "$DIR")
}

// The host-dependent parts of a report: durations (the s/iter wall and
// every rank's wall among them), the peak RSS, the kernel path, the
// TTMc time per nonzero and the allocation counts. Fits, flops, madds,
// predictions and bytes are thread- and path-invariant, so the goldens
// hold them exactly.
var masks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`(\d+h)?(\d+m)?\d+(\.\d+)?(ns|µs|ms|s)\b`), "<t>"},
	{regexp.MustCompile(`(?m)^(storage: .*?)( VmHWM=\d+ kB)?$`), "$1 VmHWM=<kB>"}, // Linux only
	{regexp.MustCompile(`kernels: \S+`), "kernels: <path>"},
	{regexp.MustCompile(`ns/nnz=\[[^\]]*\]`), "ns/nnz=<ns>"},
	{regexp.MustCompile(`allocs/sweep \d+, \d+ B/sweep`), "allocs/sweep <n>, <n> B/sweep"},
}

func mask(s string) string {
	for _, m := range masks {
		s = m.re.ReplaceAllString(s, m.with)
	}
	return s
}

// golden compares got with testdata/name.golden, or rewrites the file
// under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (go test -run %s -update rewrites it)\ngot:\n%s\nwant:\n%s", path, t.Name(), got, want)
	}
}

// Every report line, masked. -threads 1 prints the default report, and
// -dist 2's fit at fine grain and coarse is shared memory's to every
// printed digit. On tall.tns modes 0 and 2 take the split Gram, on
// tall4.tns the tree's mode 1.
func TestReports(t *testing.T) {
	x4, tall, tall4 := filepath.Join(dir, "x4.tns"), filepath.Join(dir, "tall.tns"), filepath.Join(dir, "tall4.tns")
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"report", nil},
		{"report", []string{"-threads", "1"}},
		{"eps", []string{"-eps", "0.5"}},
		{"lanczos", []string{"-ranks", "17,17,17"}},
		{"order4", []string{"-input", x4, "-ranks", "2,2,2,2"}},
		{"split", []string{"-input", tall}},
		{"split", []string{"-input", tall, "-threads", "1"}},
		{"split4", []string{"-input", tall4, "-ranks", "3,3,3,3"}},
		{"split4", []string{"-input", tall4, "-ranks", "3,3,3,3", "-threads", "1"}},
		{"update", []string{"-iters", "3", "-update", filepath.Join(dir, "delta.tns")}},
		{"dist2_fine", []string{"-dist", "2"}},
		{"dist2_coarse", []string{"-dist", "2", "-grain", "coarse"}},
	} {
		exit, stdout, stderr := runHooi(append(base(), tc.args...)...)
		if exit != 0 || stderr != "" {
			t.Fatalf("%v: exit %d, stderr %q", tc.args, exit, stderr)
		}
		golden(t, tc.golden, mask(stdout))
	}
}

// On an order-4 input with a mode in split order, the tree's measured
// madds per sweep are the dtree figure the ttmc: line predicts beside
// them: the prediction takes the census the engine takes, and counts a
// split mode's singleton rows c wide as the tree writes them.
func TestSplitOrder4MaddsArePredicted(t *testing.T) {
	exit, stdout, stderr := runHooi(append(base(), "-input", filepath.Join(dir, "tall4.tns"), "-ranks", "3,3,3,3")...)
	if exit != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", exit, stderr)
	}
	ttmc := regexp.MustCompile(`ttmc: strategy=dtree flops=\d+ \((\d+) madds/sweep; predicted flat=\d+ dtree=(\d+)\)`).FindStringSubmatch(stdout)
	split := regexp.MustCompile(`gram=\[[^\]]*\d+/\d+`).MatchString(stdout)
	if ttmc == nil || !split {
		t.Fatalf("want a dtree ttmc: line and a split mode on the trsvd: line, got:\n%s", stdout)
	}
	if ttmc[1] != ttmc[2] {
		t.Fatalf("the tree ran %s madds a sweep, predicted %s:\n%s", ttmc[1], ttmc[2], stdout)
	}
}

// Flags that are gone are usage errors, and a flag the distributed path
// does not carry to its ranks is refused when set, before the input is
// read; so is a distributed flag on a shared-memory run, and in every
// mode a malformed -chaos-kill or a -ckpt-every below 1. The golden
// holds each case's exit code and stderr, with the usage text (-h's
// golden) as <usage>.
func TestFlagErrors(t *testing.T) {
	exit, stdout, usage := runHooi("-h")
	if exit != 0 || stdout != "" {
		t.Fatalf("-h: exit %d, stdout %q", exit, stdout)
	}
	golden(t, "help", usage)

	ckpt := filepath.Join(dir, "ck-refused")
	tns := filepath.Join(dir, "x.tns")
	var got strings.Builder
	for _, args := range [][]string{
		{"-format", "csf"},
		{"-schedule", "static"},
		{"-svd", "gram"},
		{"-dist", "2", "-svd", "lanczos"},
		{"-dist", "2", "-threads", "2"},
		{"-ttmc", "flat"},
		{"-update", tns, "-updates", "2"},
		{"-init", "hosvd"},
		{"-algo", "sthosvd"},
		{"-dist", "2", "-init", "hosvd"},
		{"-dist", "2", "-algo", "sthosvd"},
		{"-eps", "0.5", "-sketch", "count"},
		{"-eps", "0.5", "-oversample", "4"},
		{"-eps", "0.5", "-power", "1"},
		{"-dist", "spawn", "-np", "2", "-threads", "1"},
		{"-dist", "2", "-update", "delta.tns"},
		{"-dist", "2", "-eps", "0.5"},
		{"-dist", "0", "-threads", "2", "-q"},
		{"-grain", "coarse"},
		{"-grain", "fine"},
		{"-method", "bl"},
		{"-np", "2"},
		{"-rank", "0"},
		{"-peers", "127.0.0.1:1"},
		{"-listen-fd", "3"},
		{"-dist-timeout", "1s"},
		{"-max-restarts", "1"},
		{"-chaos-kill", "1@2"},
		{"-dist", "2", "-chaos-kill-rank", "1"},
		{"-dist", "2", "-chaos-kill-sweep", "2"},
		{"-dist", "2", "-chaos-kill", "2"},
		{"-dist", "2", "-chaos-kill", "1@0"},
		{"-dist", "spawn", "-np", "2", "-chaos-kill", "-1@2"},
		{"-dist", "0", "-method", "hp"},
		{"-checkpoint", ckpt, "-ckpt-every", "0"},
		{"-dist", "2", "-checkpoint", ckpt, "-ckpt-every", "0"},
		{"-dist", "spawn", "-np", "2", "stray"},
		{"-dist", "2", "-grain", "medium"},
		{"-dist", "2", "-method", "xx"},
		{"-dist", "foo"},
		{"-ranks", "3,x,3"},
		{"-ranks", ""},
		{"-input", filepath.Join(dir, "missing.tns")},
	} {
		exit, stdout, stderr := runHooi(append(base(), args...)...)
		fmt.Fprintf(&got, "$ hooi %s\nexit %d\n", strings.ReplaceAll(strings.Join(args, " "), dir, "$DIR"), exit)
		if stdout != "" {
			fmt.Fprintf(&got, "stdout:\n%s", stdout)
		}
		fmt.Fprintf(&got, "stderr:\n%s\n", strings.ReplaceAll(stderr, usage, "<usage>\n"))
	}
	golden(t, "flag_errors", got.String())
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("refused runs made the checkpoint directory: %v", err)
	}
}

// A run resumes from the newest checkpoint and ends on the fit of a run
// that was never interrupted, in shared memory and on -dist 2, where
// every rank loads the file itself; a checkpoint of another seed is
// refused.
func TestResume(t *testing.T) {
	for _, mode := range [][]string{nil, {"-dist", "2"}} {
		ck := t.TempDir()
		run := func(extra ...string) (int, string, string) { return runHooi(slices.Concat(base(), mode, extra)...) }
		_, want, _ := run("-iters", "4", "-q")
		if exit, _, stderr := run("-checkpoint", ck, "-q"); exit != 0 {
			t.Fatalf("%v: first run: exit %d: %s", mode, exit, stderr)
		}
		if exit, got, stderr := run("-checkpoint", ck, "-iters", "4", "-q"); exit != 0 || got != want {
			t.Errorf("%v: resumed run: exit %d, stdout %q, stderr %q; want the fresh run's %q", mode, exit, got, stderr, want)
		}
		exit, _, stderr := run("-checkpoint", ck, "-iters", "4", "-q", "-seed", "2")
		if mismatch := "checkpoint: state does not match plan: checkpoint seed 1, plan seed 2"; exit != 1 || !strings.Contains(stderr, mismatch) {
			t.Errorf("%v: another seed: exit %d, stderr %q; want exit 1 and %q", mode, exit, stderr, mismatch)
		}
	}
	// Without -q the shared-memory run names the file it resumed from.
	ck := t.TempDir()
	runHooi(append(base(), "-checkpoint", ck, "-q")...)
	_, stdout, _ := runHooi(append(base(), "-checkpoint", ck, "-iters", "4")...)
	if line := "resumed from " + filepath.Join(ck, "ckpt-000000002.htck") + " (sweep 2)\n"; !strings.Contains(stdout, line) {
		t.Errorf("no %q in:\n%s", line, stdout)
	}
}

// A spawned group and a TCP group run the collectives of the simulated
// ranks and print their fit; a spawned rank killed at a sweep boundary
// is restarted from the checkpoint and the group ends on the clean
// run's fit, and without -checkpoint the kill is terminal, with the
// killed rank's exit code.
func TestProcessGroups(t *testing.T) {
	group := func(extra ...string) (int, string, string) {
		return runHooi(slices.Concat(base(), []string{"-iters", "3", "-q"}, extra)...)
	}
	_, sim, _ := group("-dist", "2")
	if exit, stdout, stderr := group("-dist", "spawn", "-np", "2"); exit != 0 || stdout != sim {
		t.Errorf("-dist spawn: exit %d, stdout %q, stderr %q; want the -dist 2 line %q", exit, stdout, stderr, sim)
	}
	kill := []string{"-dist", "spawn", "-np", "2", "-chaos-kill", "1@2"}
	exit, stdout, stderr := group(append(kill, "-checkpoint", t.TempDir())...)
	if exit != 0 || stdout != sim || !strings.Contains(stderr, "hooi: rank 1 failed (exit 137): hooi: rank 1: injected chaos kill at sweep 2") {
		t.Errorf("recovery: exit %d, stdout %q, stderr %q; want exit 0 and the clean fit %q", exit, stdout, stderr, sim)
	}
	exit, stdout, stderr = group(kill...)
	if exit != 137 || stdout != "" || !strings.Contains(stderr, "hooi: no -checkpoint directory; cannot restart") {
		t.Errorf("no checkpoint: exit %d, stdout %q, stderr %q; want exit 137 and no restart", exit, stdout, stderr)
	}

	// A -dist tcp group started by hand: rank 0 prints the report.
	peers := make([]string, 2)
	for r := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[r] = ln.Addr().String()
		ln.Close()
	}
	var outs [2]string
	var wg sync.WaitGroup
	for r := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exit, stdout, stderr := runHooi(append(base(), "-dist", "tcp", "-rank", strconv.Itoa(r), "-peers", strings.Join(peers, ","))...)
			if exit != 0 || stderr != "" {
				t.Errorf("tcp rank %d: exit %d, stderr %q", r, exit, stderr)
			}
			outs[r] = stdout
		}()
	}
	wg.Wait()
	if outs[1] != "" {
		t.Errorf("tcp rank 1 printed %q", outs[1])
	}
	golden(t, "dist2_tcp", mask(outs[0]))
}
