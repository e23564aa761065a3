// Command htbench regenerates the paper's evaluation at a configurable
// scale: Tables I–V, the in-text MET comparison, the comm-volume table
// (modeled hypergraph cut vs realized bytes) and the fault-injection
// experiment. It prints tables for reading; times that gate a change are
// measured by `go run ./benchmark`, and the machine-independent counts
// (madds, bytes, allocations per sweep) are recorded-value tests under
// `go test ./internal/core ./internal/dist`.
//
// Examples:
//
//	htbench -all -scale 1 -iters 5
//	htbench -table 2 -ps 1,2,4,8,16,32
//	htbench -met
//	htbench -comm -scale 0.1 -iters 2
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hypertensor/internal/bench"
)

func main() {
	var (
		table = flag.Int("table", 0, "regenerate one table (1-5)")
		met   = flag.Bool("met", false, "run the MET single-core comparison")
		comm  = flag.Bool("comm", false, "run the comm-volume table: modeled hypergraph cut vs realized sparse-exchange bytes per partition method at p=2,4")
		chaos = flag.Bool("chaos", false, "run the fault-injection experiment: seed-swept transport faults plus a kill-and-recover checkpoint demonstration")
		all   = flag.Bool("all", false, "run every experiment")
		scale = flag.Float64("scale", 1.0, "dataset scale (1.0 ~ 1/500 of the paper's nonzeros)")
		iters = flag.Int("iters", 5, "HOOI sweeps per measurement (paper: 5)")
		p     = flag.Int("p", 16, "simulated ranks for Tables III-IV (paper: 256)")
		psIn  = flag.String("ps", "1,2,4,8,16", "rank sweep for Table II")
		thrIn = flag.String("threads", "1,2,4,8,16,32", "thread sweep for Table V")
		seed  = flag.Int64("seed", 1, "seed for datasets and partitioners")
	)
	flag.Parse()
	if !*all && *table == 0 && !*met && !*chaos && !*comm {
		flag.Usage()
		os.Exit(2)
	}
	ps, err := parseInts(*psIn)
	if err != nil {
		fail(err)
	}
	threads, err := parseInts(*thrIn)
	if err != nil {
		fail(err)
	}
	o := bench.Options{Scale: *scale, Ps: ps, P: *p, Iters: *iters, Threads: threads, Seed: *seed}
	out := os.Stdout

	run := func(n int) {
		var err error
		switch n {
		case 1:
			_, err = bench.TableI(o, out)
		case 2:
			_, err = bench.TableII(o, out)
		case 3:
			_, err = bench.TableIII(o, out)
		case 4:
			_, err = bench.TableIV(o, out)
		case 5:
			_, err = bench.TableV(o, out)
		}
		if err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
	}

	if *all {
		for n := 1; n <= 5; n++ {
			run(n)
		}
		if _, err := bench.MET(o, out); err != nil {
			fail(err)
		}
		fmt.Fprintln(out)
		if _, err := bench.CommVolume(o, out); err != nil {
			fail(err)
		}
		return
	}
	if *table != 0 {
		if *table < 1 || *table > 5 {
			fail(fmt.Errorf("table must be 1-5"))
		}
		run(*table)
	}
	if *met {
		if _, err := bench.MET(o, out); err != nil {
			fail(err)
		}
	}
	if *chaos {
		if _, err := bench.Chaos(o, out); err != nil {
			fail(err)
		}
	}
	if *comm {
		if _, err := bench.CommVolume(o, out); err != nil {
			fail(err)
		}
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "htbench:", err)
	os.Exit(1)
}
