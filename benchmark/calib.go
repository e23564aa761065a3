package main

import (
	"sync"
	"time"
)

// The reference box is a 2-vCPU VM on a host it shares with other
// tenants, and it changes speed under the benchmark: with no steal time
// showing and nothing else running in the VM, every kind of code (ALU,
// cache-resident gathers, streaming) slows down together by up to 2×
// for seconds to minutes at a time. The same commit's e2e_s then reads
// 1.3 s in one run and 2.4 s in the next, and no number of reps inside
// a run removes that. hostClock measures the drift where it happens: a
// small fixed kernel, which belongs to the benchmark and never changes
// with the repository, runs at every phase boundary of every rep, and
// each phase's wall time is divided by the slowdown its two flanking
// kernel runs saw. Timings are then in seconds of the quiet reference
// box, whatever the host was doing.

// calibNominal is the kernel's time on the quiet reference box, where
// slowdown reads 1. On another machine it only rescales every
// normalised timing by one constant.
const calibNominal = 0.040

const (
	calibTable = 1 << 17 // float64s per thread: 1 MiB, L2-resident
	calibIdx   = 1 << 18
	calibReps  = 160
)

type hostClock struct {
	idx     [][]int32
	table   [][]float64
	elapsed []float64
	sink    []float64
	// samples holds every slowdown measured so far.
	samples []float64
}

// newHostClock prepares the kernel for the given number of threads: the
// number of compute goroutines the workload itself runs.
func newHostClock(threads int) *hostClock {
	c := &hostClock{elapsed: make([]float64, threads), sink: make([]float64, threads)}
	for t := 0; t < threads; t++ {
		s := uint64(0x9e3779b97f4a7c15) * uint64(t+1)
		idx := make([]int32, calibIdx)
		for i := range idx {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			idx[i] = int32(s % calibTable)
		}
		table := make([]float64, calibTable)
		for i := range table {
			table[i] = 1 + float64(i%7)*1e-3
		}
		c.idx, c.table = append(c.idx, idx), append(c.table, table)
	}
	return c
}

// slowdown runs the kernel once — on every thread, random gathers from
// the thread's table multiplied into an accumulator — and returns the
// mean of the threads' times over calibNominal: 1 on the quiet reference
// box, 1.5 when the host gives the VM two thirds of its speed. A nil
// clock reads 1: the timings it scales stay plain wall time.
func (c *hostClock) slowdown() float64 {
	if c == nil {
		return 1
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for t := range c.idx {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			idx, table := c.idx[t], c.table[t]
			var acc float64
			for rep := 0; rep < calibReps; rep++ {
				for _, j := range idx {
					acc += table[j] * 1.0000001
				}
			}
			c.sink[t] = acc
			c.elapsed[t] = time.Since(t0).Seconds()
		}(t)
	}
	wg.Wait()
	var sum float64
	for _, e := range c.elapsed {
		sum += e
	}
	s := sum / float64(len(c.elapsed)) / calibNominal
	c.samples = append(c.samples, s)
	return s
}

// normalised is a phase's wall time in seconds of the quiet reference
// box, given the slowdowns measured right before and right after it.
func normalised(wall, before, after float64) float64 {
	return wall / ((before + after) / 2)
}
