package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"hypertensor/internal/dense"
	"hypertensor/internal/par"
)

// hostInfo is the header of every report: enough to tell whether two
// reports can be compared at all.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Threads    int    `json:"threads"` // T: shared-memory threads of every workload
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPU        string `json:"cpu"`
	// Sizes of the host-ceiling micro-benchmarks, stated next to the
	// last-level cache they are meant to exceed (or, for the GEMM, fit).
	LLCBytes         int64 `json:"llc_bytes"`
	StreamArrayBytes int64 `json:"stream_array_bytes"` // each of the copy's two arrays
	GemvOperandBytes int64 `json:"gemv_operand_bytes"`
	GemmN            int   `json:"gemm_n"`
}

// benchThreads is T = min(2, nproc): the load is sized to the 2-core
// reference box and never asks for more compute goroutines than cores.
func benchThreads() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

func detectHost() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Threads: benchThreads(),
		GoVersion: runtime.Version(), Commit: "unknown", CPU: "unknown", LLCBytes: llcBytes(),
		GemvOperandBytes: gemvRows * gemvCols * 8, GemmN: gemmN,
	}
	h.StreamArrayBytes = 4 * h.LLCBytes
	if h.StreamArrayBytes > streamCap {
		h.StreamArrayBytes = streamCap
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}

// fallbackLLC is assumed when sysfs does not describe the caches.
const fallbackLLC = 32 << 20

// llcBytes reads the size of cpu0's highest-level cache from sysfs.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, bestLevel := int64(0), -1
	for _, d := range dirs {
		level, err := readInt(filepath.Join(d, "level"))
		if err != nil {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			continue
		}
		if int(level) > bestLevel {
			best, bestLevel = n*mult, int(level)
		}
	}
	if best == 0 {
		return fallbackLLC
	}
	return best
}

func readInt(path string) (int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
}

// timeBest runs f reps times and returns the fastest wall in seconds: a
// ceiling is what the host can do, so interference only ever hides it.
func timeBest(reps int, f func()) float64 {
	best := 0.0
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0).Seconds(); i == 0 || d < best {
			best = d
		}
	}
	return best
}

const (
	// gemmN is the square GEMM size: three 256² float64 operands are
	// 1.5 MiB, resident in a 2 MiB L2.
	gemmN = 256
	// streamCap bounds one array of the stream copy, which is otherwise
	// four times the last-level cache; the copy holds two of them. ISSUE
	// 12 proposed 1 GiB, but first-touching 2 GiB costs 6 s of page
	// faults on the reference VM, a fifth of the traced pass; two 256 MiB
	// arrays are still twice its (host-shared) 260 MiB L3.
	streamCap = 256 << 20
	// gemvRows × gemvCols is the tall operand of the GEMV ceilings, the
	// shape of a tall mode's Y_(n) (80 MB).
	gemvRows = 100_000
	gemvCols = 100
)

// probeDense measures the host ceilings the kernel rates are held
// against, in the same run as the kernels: a cache-resident GEMM peak
// and a memory-stream copy, plus the two GEMV shapes TRSVD is made of.
// Sizes are recorded as metrics next to the rates.
func probeDense(m *metricSet, rec *recorder, host hostInfo) {
	defer rec.begin("probe.dense")()
	T := host.Threads
	a, b, c := dense.NewMatrix(gemmN, gemmN), dense.NewMatrix(gemmN, gemmN), dense.NewMatrix(gemmN, gemmN)
	for i := range a.Data {
		a.Data[i], b.Data[i] = float64(i%7)+0.5, float64(i%5)-1.5
	}
	gemm := timeBest(12, func() {
		for k := 0; k < 4; k++ {
			dense.MatMulInto(c, a, b, T)
		}
	})
	m.add("dense.gemm_gflops", "Gflop/s", 4*2*float64(gemmN)*gemmN*gemmN/gemm/1e9)

	arr := host.StreamArrayBytes
	src, dst := make([]float64, arr/8), make([]float64, arr/8)
	for i := range src {
		src[i] = float64(i)
	}
	copyAll := func() {
		par.ForRange(len(src), T, func(lo, hi int) { copy(dst[lo:hi], src[lo:hi]) })
	}
	copyAll() // fault the destination in before timing
	stream := timeBest(3, copyAll)
	m.add("dense.stream_gb_per_s", "GB/s", 2*float64(arr)/stream/1e9)
	src, dst = nil, nil
	debug.FreeOSMemory()

	y := dense.NewMatrix(gemvRows, gemvCols)
	for i := range y.Data {
		y.Data[i] = float64(i%11) - 5
	}
	long, short := make([]float64, gemvRows), make([]float64, gemvCols)
	for i := range short {
		short[i] = 1
	}
	bytes := float64(gemvRows) * gemvCols * 8
	gemv := timeBest(8, func() { dense.GemvInto(long, y, short, T) })
	m.add("dense.gemv_gb_per_s", "GB/s", bytes/gemv/1e9)
	gemvt := timeBest(8, func() { dense.GemvTInto(short, y, long, T) })
	m.add("dense.gemvt_gb_per_s", "GB/s", bytes/gemvt/1e9)
}
