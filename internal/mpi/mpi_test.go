package mpi

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var rankCounts = []int{1, 2, 3, 4, 7, 8, 16}

func TestSendRecvPair(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 9, []float64{1, 2, 3})
			got := c.Recv(1, 10)
			if len(got) != 1 || got[0] != 42 {
				panic("rank 0 got wrong reply")
			}
		} else {
			got := c.Recv(0, 9)
			if len(got) != 3 || got[2] != 3 {
				panic("rank 1 got wrong data")
			}
			c.Send(0, 10, []float64{42})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.BytesSent(0) != 24 || w.BytesSent(1) != 8 {
		t.Fatalf("byte counts: %d, %d", w.BytesSent(0), w.BytesSent(1))
	}
}

func TestSendCopiesData(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{1}
			c.Send(1, 0, buf) // Send copies synchronously...
			buf[0] = 99       // ...so this mutation cannot reach rank 1
		} else {
			if got := c.Recv(0, 0); got[0] != 1 {
				panic("send did not copy payload")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMismatchPanics(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
		} else {
			c.Recv(0, 2)
		}
	})
	if err == nil {
		t.Fatal("expected error from tag mismatch")
	}
}

func TestBarrierAllRankCounts(t *testing.T) {
	for _, p := range rankCounts {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) {
			for i := 0; i < 3; i++ {
				c.Barrier()
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestBcast(t *testing.T) {
	for _, p := range rankCounts {
		for root := 0; root < p; root += 3 {
			w := NewWorld(p)
			err := w.Run(func(c *Comm) {
				var data []float64
				if c.Rank() == root {
					data = []float64{3.5, -1, float64(root)}
				}
				got := c.Bcast(root, data)
				if len(got) != 3 || got[0] != 3.5 || got[2] != float64(root) {
					panic("bcast payload wrong")
				}
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestReduceAndAllReduce(t *testing.T) {
	for _, p := range rankCounts {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) {
			data := []float64{float64(c.Rank()), 1}
			sum := c.AllReduceSum(data)
			wantFirst := float64(p*(p-1)) / 2
			if sum[0] != wantFirst || sum[1] != float64(p) {
				panic("allreduce sum wrong")
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllReduceDeterministicBits(t *testing.T) {
	// All ranks must see the *identical* floating-point result even for
	// values whose sum depends on association order.
	const p = 8
	w := NewWorld(p)
	results := make([]float64, p)
	err := w.Run(func(c *Comm) {
		v := math.Pow(10, float64(c.Rank()-4)) // wildly varying magnitudes
		results[c.Rank()] = c.AllReduceSum([]float64{v})[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		if results[r] != results[0] {
			t.Fatalf("rank %d result %v differs from rank 0's %v", r, results[r], results[0])
		}
	}
}

func TestAllGatherV(t *testing.T) {
	for _, p := range rankCounts {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) {
			local := make([]float64, c.Rank()+1) // ragged sizes
			for i := range local {
				local[i] = float64(c.Rank())
			}
			all := c.AllGatherV(local)
			for r := 0; r < p; r++ {
				if len(all[r]) != r+1 {
					panic("allgather size wrong")
				}
				for _, v := range all[r] {
					if v != float64(r) {
						panic("allgather content wrong")
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllToAllV(t *testing.T) {
	for _, p := range rankCounts {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) {
			bufs := make([][]float64, p)
			for d := range bufs {
				bufs[d] = []float64{float64(c.Rank()*100 + d)}
			}
			got := c.AllToAllV(bufs)
			for s := 0; s < p; s++ {
				if len(got[s]) != 1 || got[s][0] != float64(s*100+c.Rank()) {
					panic("alltoall content wrong")
				}
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestCountersAndReset(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 10))
			c.Send(1, 1, make([]float64, 5))
		} else {
			c.Recv(0, 0)
			c.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got0, got1 := w.BytesSent(0), w.BytesSent(1); got0 != 120 || got1 != 0 {
		t.Fatalf("ranks sent %d and %d bytes, want 120 and 0", got0, got1)
	}
}

func TestSelfSendFreeAndDelivered(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(c *Comm) {
		c.Send(0, 3, []float64{7})
		if got := c.Recv(0, 3); got[0] != 7 {
			panic("self-send lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.BytesSent(0) != 0 {
		t.Fatal("self-send should not count bytes")
	}
}

func TestRunPropagatesPanicWithRank(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 2 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

// TestRunPanicAbortsBlockedRanks is the goroutine-leak regression: a
// panicking rank must release peers blocked mid-collective (they fail
// with ErrAborted) instead of abandoning their goroutines forever.
func TestRunPanicAbortsBlockedRanks(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		w := NewWorld(4)
		err := w.Run(func(c *Comm) {
			if c.Rank() == 1 {
				panic("rank 1 dies mid-collective")
			}
			c.Barrier() // blocks on rank 1 forever without the abort path
			c.AllReduceSum([]float64{1})
		})
		if err == nil {
			t.Fatal("expected error")
		}
		if !strings.Contains(err.Error(), "rank 1") {
			t.Fatalf("error does not name the dead rank: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("rank goroutines leaked: before=%d after=%d\n%s",
		before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestRunContextTimeoutOnDeadlock: a deadlocked world must fail with a
// context error once the deadline passes, on every rank, not hang.
func TestRunContextTimeoutOnDeadlock(t *testing.T) {
	w := NewWorld(2)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := w.RunContext(ctx, func(c *Comm) {
		c.Recv((c.Rank()+1)%2, 0) // mutual deadlock: nobody sends
	})
	if err == nil {
		t.Fatal("deadlocked world returned nil")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded as root cause, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not fire promptly")
	}
}

func TestAbortErrorsAreTyped(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(1, 0)
		} else {
			panic(&Error{Rank: 1, Peer: -1, Op: "test", Err: ErrTimeout})
		}
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("root cause not preserved: %v", err)
	}
	var te *Error
	if !errors.As(err, &te) || te.Rank != 1 {
		t.Fatalf("typed error lost: %v", err)
	}
}

// Property: AllReduceSum equals the serial sum for random vectors at
// random rank counts.
func TestAllReduceProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		p := int(seed%6) + 2
		n := int(seed%7) + 1
		w := NewWorld(p)
		inputs := make([][]float64, p)
		for r := range inputs {
			inputs[r] = make([]float64, n)
			for i := range inputs[r] {
				inputs[r][i] = float64((seed+int64(r*31+i))%100) / 7
			}
		}
		want := make([]float64, n)
		for r := 0; r < p; r++ { // rank-0-rooted fixed-order sum
			for i := range want {
				if r == 0 {
					want[i] = inputs[0][i]
				} else {
					want[i] += inputs[r][i]
				}
			}
		}
		ok := true
		err := w.Run(func(c *Comm) {
			got := c.AllReduceSum(inputs[c.Rank()])
			for i := range got {
				if got[i] != want[i] {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
