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

// htpartBin is the binary under test and tnsPath its input, a 2k-nnz
// order-3 tensor; TestMain builds both once.
var htpartBin, tnsPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "htpart-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	htpartBin = filepath.Join(dir, "htpart")
	if out, err := exec.Command("go", "build", "-o", htpartBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building htpart: %v\n%s", err, out)
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

// htpart runs the binary with the given arguments.
func htpart(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(htpartBin, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("running htpart %v: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return out.String(), errOut.String(), exit
}

// A missing input is a usage error; a part count below one, a mode the
// tensor does not have and bad ranks are refused with one line on
// stderr, before any partition row is printed.
func TestErrors(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		exit   int
		stderr string
	}{
		{[]string{"-parts", "4"}, 2, "Usage"},
		{[]string{"-input", tnsPath, "-parts", "0"}, 1, "htpart: -parts 0: need at least one part\n"},
		{[]string{"-input", tnsPath, "-parts", "-3"}, 1, "htpart: -parts -3: need at least one part\n"},
		{[]string{"-input", tnsPath, "-grain", "coarse", "-mode", "3"}, 1, "htpart: mode 3 out of range\n"},
		{[]string{"-input", tnsPath, "-grain", "medium"}, 1, `htpart: unknown grain "medium"`},
		{[]string{"-input", tnsPath, "-parts", "4", "-realized", "-ranks", "0,3,3"}, 1, `htpart: bad rank "0"`},
		{[]string{"-input", tnsPath, "-parts", "4", "-realized", "-ranks", "3,3"}, 1, "htpart: -ranks wants 3 values, got 2"},
	} {
		stdout, stderr, exit := htpart(t, tc.args...)
		if exit != tc.exit || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("htpart %v: exit %d, stderr %q; want exit %d and %q", tc.args, exit, stderr, tc.exit, tc.stderr)
		}
		if strings.Contains(stdout, "cutsize=") || strings.Contains(stdout, "total=") {
			t.Errorf("htpart %v: refused, yet it partitioned: %q", tc.args, stdout)
		}
	}
}

// -compare prints the multilevel partition's row and the random and
// block baselines' after it.
func TestCompareRows(t *testing.T) {
	stdout, stderr, exit := htpart(t, "-input", tnsPath, "-parts", "4", "-grain", "fine", "-compare")
	if exit != 0 {
		t.Fatalf("exit %d, stderr %q", exit, stderr)
	}
	row := regexp.MustCompile(`(?m)^  (\S+)\s+cutsize=\d+\s+imbalance=\d+\.\d{3}$`)
	var names []string
	for _, m := range row.FindAllStringSubmatch(stdout, -1) {
		names = append(names, m[1])
	}
	if got := strings.Join(names, " "); got != "multilevel random block" {
		t.Errorf("partition rows %q, want multilevel random block:\n%s", got, stdout)
	}
}

// -realized prints one row per placement method, and each row's total
// is its expand plus its fold volume.
func TestRealizedRows(t *testing.T) {
	stdout, stderr, exit := htpart(t, "-input", tnsPath, "-parts", "4", "-grain", "fine", "-realized", "-ranks", "3,3,3")
	if exit != 0 {
		t.Fatalf("exit %d, stderr %q", exit, stderr)
	}
	row := regexp.MustCompile(`(?m)^  (\S+)\s+expand=(\d+)\s+fold=(\d+)\s+total=(\d+) B$`)
	var names []string
	for _, m := range row.FindAllStringSubmatch(stdout, -1) {
		names = append(names, m[1])
		expand, _ := strconv.ParseInt(m[2], 10, 64)
		fold, _ := strconv.ParseInt(m[3], 10, 64)
		total, _ := strconv.ParseInt(m[4], 10, 64)
		if expand+fold != total || total == 0 {
			t.Errorf("%s: expand %d + fold %d, total %d", m[1], expand, fold, total)
		}
	}
	if got := strings.Join(names, " "); got != "hp rd bl" {
		t.Errorf("realized rows %q, want hp rd bl:\n%s", got, stdout)
	}
}
