package mpi

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// listenLoopback binds p ephemeral-port listeners so the test can hand
// every rank a pre-bound listener — the same race-free scheme the
// `-dist spawn` launcher uses.
func listenLoopback(t *testing.T, p int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for r := 0; r < p; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	return lns, addrs
}

// connectLoopback stands up a full p-rank TCP mesh over loopback, one
// TCPWorld per simulated process, connected concurrently as ConnectTCP
// requires.
func connectLoopback(t *testing.T, p int, opt TCPOptions) []*TCPWorld {
	t.Helper()
	lns, addrs := listenLoopback(t, p)
	worlds := make([]*TCPWorld, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer wg.Done()
			o := opt
			o.Listener = lns[r]
			worlds[r], errs[r] = ConnectTCP(context.Background(), r, addrs, o)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	return worlds
}

// runAll executes body on every world concurrently (each TCPWorld is one
// rank) and returns the per-rank Run errors.
func runAll(worlds []*TCPWorld, body func(c *Comm)) []error {
	errs := make([]error, len(worlds))
	var wg sync.WaitGroup
	wg.Add(len(worlds))
	for r, w := range worlds {
		go func(r int, w *TCPWorld) {
			defer wg.Done()
			errs[r] = w.Run(body)
		}(r, w)
	}
	wg.Wait()
	return errs
}

func TestTCPCollectives(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		worlds := connectLoopback(t, p, TCPOptions{Timeout: 10 * time.Second})
		errs := runAll(worlds, func(c *Comm) {
			// Point-to-point ring.
			next, prev := (c.Rank()+1)%p, (c.Rank()-1+p)%p
			c.Send(next, 1, []float64{float64(c.Rank()), 0.5})
			if got := c.Recv(prev, 1); got[0] != float64(prev) || got[1] != 0.5 {
				panic("ring float payload wrong")
			}

			c.Barrier()
			b := c.Bcast(0, map[bool][]float64{true: {7, 8, 9}, false: nil}[c.Rank() == 0])
			if len(b) != 3 || b[2] != 9 {
				panic("bcast wrong")
			}
			sum := c.AllReduceSum([]float64{float64(c.Rank() + 1)})
			if sum[0] != float64(p*(p+1))/2 {
				panic("allreduce wrong")
			}
			all := c.AllGatherV(make([]float64, c.Rank()+1))
			for r := 0; r < p; r++ {
				if len(all[r]) != r+1 {
					panic("allgather wrong")
				}
			}
			bufs := make([][]float64, p)
			for d := range bufs {
				bufs[d] = []float64{float64(c.Rank()*10 + d)}
			}
			got := c.AllToAllV(bufs)
			for s := 0; s < p; s++ {
				if got[s][0] != float64(s*10+c.Rank()) {
					panic("alltoall wrong")
				}
			}
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("p=%d rank %d: %v", p, r, err)
			}
		}
	}
}

// TestTCPBytesMatchSimulated checks the transport-invariant accounting
// contract: the same rank program reports identical BytesSent on the
// channel fabric and on TCP, while TCP's wire counter exceeds payload
// (headers + handshakes).
func TestTCPBytesMatchSimulated(t *testing.T) {
	const p = 4
	body := func(c *Comm) {
		c.Barrier()
		c.Bcast(1, []float64{1, 2, 3})
		c.AllReduceSum([]float64{float64(c.Rank())})
		c.AllGatherV([]float64{float64(c.Rank()), 7})
		c.AllToAllV([][]float64{{1}, {2, 2}, {}, {4}})
		c.Send((c.Rank()+1)%p, 0, make([]float64, 100))
		c.Recv((c.Rank()-1+p)%p, 0)
	}

	sim := NewWorld(p)
	if err := sim.Run(body); err != nil {
		t.Fatal(err)
	}

	worlds := connectLoopback(t, p, TCPOptions{Timeout: 10 * time.Second})
	for r, err := range runAll(worlds, body) {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, w := range worlds {
		if w.BytesSent() != sim.BytesSent(r) {
			t.Errorf("rank %d: TCP counted %d payload bytes, simulated %d", r, w.BytesSent(), sim.BytesSent(r))
		}
		if w.WireBytes() <= w.BytesSent() {
			t.Errorf("rank %d: wire bytes %d not above payload bytes %d", r, w.WireBytes(), w.BytesSent())
		}
	}
}

// TestTCPDeadPeerFailsEveryRank is the no-hang contract: when one rank
// dies mid-collective, every other rank's Run returns a typed error
// instead of blocking forever.
func TestTCPDeadPeerFailsEveryRank(t *testing.T) {
	const p = 4
	worlds := connectLoopback(t, p, TCPOptions{Timeout: 30 * time.Second})
	start := time.Now()
	errs := runAll(worlds, func(c *Comm) {
		if c.Rank() == 2 {
			panic("rank 2 dies") // Run recovers, closes the mesh abruptly
		}
		c.Barrier()
		c.AllReduceSum([]float64{1})
	})
	if errs[2] == nil || !strings.Contains(errs[2].Error(), "rank 2 dies") {
		t.Fatalf("dying rank error: %v", errs[2])
	}
	for r := 0; r < p; r++ {
		if r == 2 {
			continue
		}
		if errs[r] == nil {
			t.Fatalf("rank %d did not observe the death", r)
		}
		var te *Error
		if !errors.As(errs[r], &te) {
			t.Fatalf("rank %d error is untyped: %v", r, errs[r])
		}
		if !errors.Is(errs[r], ErrPeerDied) && !errors.Is(errs[r], ErrPeerClosed) && !errors.Is(errs[r], ErrAborted) {
			t.Fatalf("rank %d error lacks a death sentinel: %v", r, errs[r])
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("death took %v to propagate — ranks were hanging", elapsed)
	}
}

func TestTCPRecvTimeout(t *testing.T) {
	const p = 2
	worlds := connectLoopback(t, p, TCPOptions{Timeout: 200 * time.Millisecond})
	errs := runAll(worlds, func(c *Comm) {
		c.Recv((c.Rank()+1)%p, 5) // nobody ever sends
	})
	if !errors.Is(errs[0], ErrTimeout) && !errors.Is(errs[0], ErrPeerDied) {
		t.Fatalf("rank 0: want ErrTimeout (or cascade), got %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("rank 1 returned nil from a timed-out world")
	}
}

func TestTCPContextCancelAborts(t *testing.T) {
	const p = 2
	worlds := connectLoopback(t, p, TCPOptions{Timeout: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for r, w := range worlds {
		go func(r int, w *TCPWorld) {
			defer wg.Done()
			errs[r] = w.RunContext(ctx, func(c *Comm) {
				c.Recv((c.Rank()+1)%p, 9) // mutual deadlock: nobody sends
			})
		}(r, w)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if errs[r] == nil {
			t.Fatalf("rank %d returned nil from a deadlocked world", r)
		}
		if !errors.Is(errs[r], context.DeadlineExceeded) && !errors.Is(errs[r], ErrAborted) &&
			!errors.Is(errs[r], ErrPeerDied) && !errors.Is(errs[r], ErrPeerClosed) {
			t.Fatalf("rank %d: unexpected error %v", r, errs[r])
		}
	}
}

func TestTCPHandshakeWorldSizeMismatch(t *testing.T) {
	lns, addrs := listenLoopback(t, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Rank 0 thinks the world has 2 ranks...
		w, err := ConnectTCP(context.Background(), 0, addrs, TCPOptions{Listener: lns[0], DialTimeout: 5 * time.Second})
		if w != nil {
			w.Close()
		}
		errs[0] = err
	}()
	go func() {
		defer wg.Done()
		// ...rank 1 was launched believing there are 3.
		w, err := ConnectTCP(context.Background(), 1, append(addrs, "127.0.0.1:1"), TCPOptions{Listener: lns[1], DialTimeout: 5 * time.Second})
		if w != nil {
			w.Close()
		}
		errs[1] = err
	}()
	wg.Wait()
	if !errors.Is(errs[0], ErrHandshake) && !errors.Is(errs[1], ErrHandshake) {
		t.Fatalf("no rank saw ErrHandshake: %v / %v", errs[0], errs[1])
	}
}

func TestTCPSingleRankWorld(t *testing.T) {
	w, err := ConnectTCP(context.Background(), 0, []string{"127.0.0.1:0"}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) {
		c.Barrier()
		if got := c.AllReduceSum([]float64{3}); got[0] != 3 {
			panic("p=1 allreduce wrong")
		}
		c.Send(0, 1, []float64{11})
		if got := c.Recv(0, 1); got[0] != 11 {
			panic("p=1 self-send lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.BytesSent() != 0 {
		t.Fatalf("self-sends counted %d bytes", w.BytesSent())
	}
}

// TestTCPNoGoroutineLeak runs a clean mesh plus a failing mesh and
// checks the fabric goroutines (readers, writers, watchers) are all gone
// afterwards.
func TestTCPNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		worlds := connectLoopback(t, 3, TCPOptions{Timeout: 5 * time.Second})
		runAll(worlds, func(c *Comm) {
			c.Barrier()
			if i == 1 && c.Rank() == 0 {
				panic("induced failure")
			}
			c.AllReduceSum([]float64{1})
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked: before=%d after=%d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}
