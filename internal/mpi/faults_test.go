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

// nopTransport is an inert endpoint for exercising FaultyTransport's
// schedule in isolation.
type nopTransport struct{ r, p int }

func (t nopTransport) rank() int         { return t.r }
func (t nopTransport) size() int         { return t.p }
func (t nopTransport) send(int, message) {}
func (t nopTransport) recv(int) message  { return message{} }
func (t nopTransport) bytesSent() int64  { return 0 }

// faultOp drives ops through a FaultyTransport until the first injected
// fault and reports (op index, error); 0 means no fault within limit.
func faultOp(cfg FaultConfig, rank, limit int) (op int, err *Error) {
	f := newFaultyTransport(nopTransport{r: rank, p: 4}, cfg)
	for i := 1; i <= limit; i++ {
		broke := func() bool {
			defer func() {
				if e := recover(); e != nil {
					err = e.(*Error)
					op = i
				}
			}()
			f.send(0, message{})
			return false
		}()
		_ = broke
		if err != nil {
			return op, err
		}
	}
	return 0, nil
}

// TestFaultScheduleDeterministic: the same (seed, rank) produces the
// same fault at the same op every time; different ranks get different
// schedules.
func TestFaultScheduleDeterministic(t *testing.T) {
	cfg := FaultConfig{Seed: 11, DropProb: 0.05, CorruptProb: 0.05}
	op1, err1 := faultOp(cfg, 1, 10000)
	op2, err2 := faultOp(cfg, 1, 10000)
	if op1 == 0 {
		t.Fatal("no fault fired within 10000 ops at 10% rate")
	}
	if op1 != op2 || err1.Error() != err2.Error() {
		t.Fatalf("schedule not deterministic: op %d (%v) vs op %d (%v)", op1, err1, op2, err2)
	}
	ops := map[int]bool{}
	for r := 0; r < 4; r++ {
		op, _ := faultOp(FaultConfig{Seed: 11, DropProb: 0.05, CorruptProb: 0.05}, r, 10000)
		ops[op] = true
	}
	if len(ops) < 2 {
		t.Fatalf("all ranks faulted at the same op %v — schedules are not per-rank", ops)
	}
}

func TestFaultKillAtOpExact(t *testing.T) {
	cfg := FaultConfig{Seed: 3, KillRank: 2, KillAtOp: 7}
	op, err := faultOp(cfg, 2, 100)
	if op != 7 || !errors.Is(err, ErrPeerDied) {
		t.Fatalf("kill at op %d (%v), want op 7 with ErrPeerDied", op, err)
	}
	if op, _ := faultOp(cfg, 1, 100); op != 0 {
		t.Fatalf("non-killed rank faulted at op %d", op)
	}
}

func TestSweepHook(t *testing.T) {
	hook := FaultConfig{KillRank: 1, KillAtSweep: 3}.SweepHook()
	hook(0, 3) // other rank: no-op
	hook(1, 2) // other sweep: no-op
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("hook did not fire at (1, 3)")
		}
		te, ok := e.(*Error)
		if !ok || !errors.Is(te, ErrPeerDied) {
			t.Fatalf("hook panicked with %v, want *Error wrapping ErrPeerDied", e)
		}
	}()
	hook(1, 3)
}

// TestWorldInjectedDropAbortsCleanly: a simulated world with injected
// connection drops fails with a typed root cause (not a bare abort) and
// never hangs.
func TestWorldInjectedDropAbortsCleanly(t *testing.T) {
	w := NewWorld(4)
	w.InjectFaults(FaultConfig{Seed: 5, DropProb: 0.02})
	err := w.Run(func(c *Comm) {
		for i := 0; i < 200; i++ {
			c.AllReduceSum([]float64{float64(i)})
		}
	})
	if err == nil {
		t.Fatal("no error from a 2% drop rate over 200 allreduces")
	}
	if !errors.Is(err, ErrPeerDied) {
		t.Fatalf("root cause is %v, want the injected ErrPeerDied", err)
	}
	if !strings.Contains(err.Error(), "injected") {
		t.Fatalf("error does not identify itself as injected: %v", err)
	}
}

// TestWorldInjectedDelayPreservesResults: pure delay injection slows a
// world down but never changes collective results.
func TestWorldInjectedDelayPreservesResults(t *testing.T) {
	w := NewWorld(4)
	w.InjectFaults(FaultConfig{Seed: 5, DelayProb: 0.3, Delay: time.Millisecond})
	err := w.Run(func(c *Comm) {
		for i := 0; i < 20; i++ {
			if got := c.AllReduceSum([]float64{1}); got[0] != 4 {
				panic("delayed allreduce returned wrong sum")
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatalf("delay-only faults broke the run: %v", err)
	}
}

// checkGoroutineBaseline polls until the goroutine count returns to the
// pre-test baseline (the shared leak-test idiom).
func checkGoroutineBaseline(t *testing.T, before int) {
	t.Helper()
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

// TestTCPLeakKillMidCollective: a rank killed by fault injection in the
// middle of a collective fails every rank with typed errors and leaves
// no fabric goroutines behind.
func TestTCPLeakKillMidCollective(t *testing.T) {
	before := runtime.NumGoroutine()
	worlds := connectLoopback(t, 3, TCPOptions{
		Timeout: 10 * time.Second,
		Faults:  &FaultConfig{Seed: 1, KillRank: 1, KillAtOp: 5},
	})
	errs := runAll(worlds, func(c *Comm) {
		for i := 0; i < 50; i++ {
			c.AllReduceSum([]float64{float64(i)})
		}
	})
	if !errors.Is(errs[1], ErrPeerDied) || !strings.Contains(errs[1].Error(), "injected") {
		t.Fatalf("killed rank error: %v", errs[1])
	}
	for _, r := range []int{0, 2} {
		if errs[r] == nil {
			t.Fatalf("rank %d did not observe the injected kill", r)
		}
	}
	checkGoroutineBaseline(t, before)
}

// rawPeer dials a TCPWorld under construction and completes rank 1's
// side of the handshake by hand, so tests can then misbehave on the
// wire in ways a real TCPWorld never would.
func rawPeer(t *testing.T, addr string) net.Conn {
	t.Helper()
	var conn net.Conn
	var err error
	for i := 0; i < 100; i++ {
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("raw peer dial: %v", err)
	}
	hs := message{i: []int32{ProtocolVersion, 2, 1, 0}}
	if _, err := conn.Write(appendFrame(nil, frameHandshake, &hs)); err != nil {
		t.Fatalf("raw peer handshake write: %v", err)
	}
	// Consume the handshake reply so the world finishes setup.
	reply := make([]byte, frameLenSize+frameHeaderLen+16)
	if _, err := conn.Read(reply); err != nil {
		t.Fatalf("raw peer handshake read: %v", err)
	}
	return conn
}

// connectWithRawPeer builds a p=2 world for rank 0 whose rank-1 peer is
// a hand-driven raw connection.
func connectWithRawPeer(t *testing.T, opt TCPOptions) (*TCPWorld, net.Conn) {
	t.Helper()
	lns, addrs := listenLoopback(t, 2)
	lns[1].Close() // rank 1 is played by the raw conn; it never listens
	opt.Listener = lns[0]
	var w *TCPWorld
	var connErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		w, connErr = ConnectTCP(context.Background(), 0, addrs, opt)
	}()
	conn := rawPeer(t, addrs[0])
	<-done
	if connErr != nil {
		t.Fatalf("connect: %v", connErr)
	}
	return w, conn
}

// TestTCPLeakCorruptFrame: a peer that sends a malformed frame fails
// the world with ErrBadFrame and leaves no fabric goroutines behind.
func TestTCPLeakCorruptFrame(t *testing.T) {
	before := runtime.NumGoroutine()
	w, conn := connectWithRawPeer(t, TCPOptions{Timeout: 10 * time.Second})
	defer conn.Close()
	// Unknown frame kind 0x7f with a plausible length prefix.
	garbage := []byte{9, 0, 0, 0, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, err := conn.Write(garbage); err != nil {
		t.Fatalf("garbage write: %v", err)
	}
	err := w.Run(func(c *Comm) {
		c.Recv(1, 0)
	})
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame, got %v", err)
	}
	checkGoroutineBaseline(t, before)
}

// TestTCPLeakHeartbeatTimeout: a silent peer (no data, no heartbeats)
// is detected by the heartbeat window well before the receive timeout,
// with ErrPeerDied naming the silence, and without goroutine leaks.
func TestTCPLeakHeartbeatTimeout(t *testing.T) {
	before := runtime.NumGoroutine()
	w, conn := connectWithRawPeer(t, TCPOptions{
		Timeout:   time.Minute, // recv timeout must NOT be what fires
		Heartbeat: 50 * time.Millisecond,
	})
	defer conn.Close()
	start := time.Now()
	err := w.Run(func(c *Comm) {
		c.Recv(1, 0) // the raw peer never sends anything
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrPeerDied) || !strings.Contains(err.Error(), "silent") {
		t.Fatalf("want silent-peer ErrPeerDied, got %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("silent peer took %v to detect — heartbeat window did not fire", elapsed)
	}
	checkGoroutineBaseline(t, before)
}

// TestTCPDialBackoffRecoversFromLateListener: a dial target that
// appears only after several hundred milliseconds (supervisor restart
// scenario) is reached through the backoff loop.
func TestTCPDialBackoffRecoversFromLateListener(t *testing.T) {
	lns, addrs := listenLoopback(t, 2)
	// Rank 0's listener starts late: close it and re-bind after a delay.
	addr0 := addrs[0]
	lns[0].Close()
	var wg sync.WaitGroup
	var worlds [2]*TCPWorld
	var errs [2]error
	wg.Add(2)
	go func() {
		defer wg.Done()
		time.Sleep(300 * time.Millisecond)
		ln, err := net.Listen("tcp", addr0)
		if err != nil {
			errs[0] = err
			return
		}
		worlds[0], errs[0] = ConnectTCP(context.Background(), 0, addrs, TCPOptions{Listener: ln, DialTimeout: 10 * time.Second})
	}()
	go func() {
		defer wg.Done()
		worlds[1], errs[1] = ConnectTCP(context.Background(), 1, addrs, TCPOptions{Listener: lns[1], DialTimeout: 10 * time.Second})
	}()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, w := range worlds {
		if w != nil {
			defer w.Close()
		}
		_ = r
	}
	runErrs := runAll(worlds[:], func(c *Comm) {
		if got := c.AllReduceSum([]float64{1}); got[0] != 2 {
			panic("allreduce over the recovered mesh is wrong")
		}
	})
	for r, err := range runErrs {
		if err != nil {
			t.Fatalf("rank %d run: %v", r, err)
		}
	}
}
