// Package mpi is an SPMD message-passing runtime standing in for MPI in
// the paper's distributed-memory algorithms. The collective algorithms
// (Barrier, Bcast, Reduce, AllReduce, AllGather, AllToAll) are built
// from point-to-point sends with conventional algorithms on top of a
// pluggable transport:
//
//   - World simulates all ranks as goroutines inside one process, each
//     pair connected by a buffered FIFO channel carrying copied
//     messages — rank code shares nothing and all data movement is
//     explicit, exactly the discipline of the MPI implementation the
//     paper benchmarks.
//
//   - TCPWorld (tcp.go) is one OS process per rank with per-peer
//     persistent TCP connections carrying length-prefixed binary frames
//     (frame.go), so the same rank code runs across real processes and
//     machines.
//
// Every rank counts the payload bytes it sends, which is how the
// experiment harness measures the communication volumes of Tables
// II–IV; the counting rule (8 bytes per float64, 4 per int32,
// self-sends free) is identical on both transports, so the accounting
// is transport-invariant. Reductions accumulate in fixed rank order at
// a root and broadcast the result, so every rank observes bitwise
// identical values — the property that keeps the redundant SPMD Lanczos
// iterations in lockstep and makes fit trajectories bitwise identical
// between the simulated and TCP worlds.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Sentinel error conditions a transport operation can fail with; match
// them with errors.Is against the error returned by Run/RunContext.
var (
	// ErrAborted marks a rank that was torn down because another rank
	// failed first (or the run context expired) — the consequence, not
	// the cause, of the failure.
	ErrAborted = errors.New("aborted after another rank failed")
	// ErrTimeout marks a receive that waited longer than the transport's
	// configured timeout.
	ErrTimeout = errors.New("timeout")
	// ErrPeerClosed marks a receive from a peer that shut its connection
	// down cleanly while this rank still expected data.
	ErrPeerClosed = errors.New("peer closed connection")
	// ErrPeerDied marks a connection that failed mid-protocol (reset,
	// unexpected EOF): the peer process is gone.
	ErrPeerDied = errors.New("peer connection failed")
	// ErrBadFrame marks a malformed, truncated, or oversized wire frame.
	ErrBadFrame = errors.New("malformed frame")
	// ErrHandshake marks a connection-setup handshake that failed
	// (protocol version, world size, or rank mismatch).
	ErrHandshake = errors.New("handshake failed")
)

// Error is the typed failure of a transport operation: which rank
// observed it, which peer was involved (-1 when none), and the
// operation that failed. It unwraps to one of the sentinel conditions
// above (or to an underlying I/O error).
type Error struct {
	Rank int    // local rank observing the failure, -1 for the world itself
	Peer int    // peer rank involved, -1 when not peer-specific
	Op   string // "send", "recv", "handshake", "decode", "run", ...
	Err  error
}

func (e *Error) Error() string {
	switch {
	case e.Rank < 0:
		return fmt.Sprintf("mpi: %s: %v", e.Op, e.Err)
	case e.Peer >= 0:
		return fmt.Sprintf("mpi: rank %d: %s (peer %d): %v", e.Rank, e.Op, e.Peer, e.Err)
	}
	return fmt.Sprintf("mpi: rank %d: %s: %v", e.Rank, e.Op, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// message is one point-to-point transfer. Payloads are copied on send so
// ranks never alias each other's memory.
type message struct {
	tag  int
	f    []float64
	i    []int32
	meta int
}

// payloadBytes is the transport-invariant accounting size of a message:
// 8 bytes per float64, 4 per int32, headers free.
func (m *message) payloadBytes() int64 { return int64(8*len(m.f) + 4*len(m.i)) }

// transport is one rank's point-to-point endpoint. send and recv panic
// with a *Error on failure or abort; Run/RunContext recover the panic
// into the returned error, so rank code keeps its straight-line shape.
type transport interface {
	rank() int
	size() int
	send(dst int, m message)
	recv(src int) message
	bytesSent() int64
}

// Runner is the surface shared by the in-process World and the
// multi-process TCPWorld: drivers written against it (internal/dist)
// run unchanged on either transport. For a World, RunContext executes
// body once per rank on its own goroutine; for a TCPWorld it executes
// body once, for the local rank, on the calling goroutine.
type Runner interface {
	Size() int
	RunContext(ctx context.Context, body func(c *Comm)) error
}

// World owns the in-process communication fabric for a fixed number of
// simulated ranks.
type World struct {
	p     int
	chans [][]chan message // chans[src][dst]
	sent  []atomic.Int64   // payload bytes sent per rank

	// done is closed on the first rank failure (or context expiry);
	// every blocked send/recv then panics with ErrAborted instead of
	// deadlocking, so Run never leaks rank goroutines.
	done     chan struct{}
	failOnce sync.Once
	cause    error // set before done is closed

	// faults, when armed via InjectFaults, wraps every rank endpoint
	// with deterministic fault injection.
	faults *FaultConfig
}

// NewWorld creates a fabric for p ranks.
func NewWorld(p int) *World {
	if p < 1 {
		panic("mpi: need at least one rank")
	}
	w := &World{
		p:     p,
		chans: make([][]chan message, p),
		sent:  make([]atomic.Int64, p),
		done:  make(chan struct{}),
	}
	for s := 0; s < p; s++ {
		w.chans[s] = make([]chan message, p)
		for d := 0; d < p; d++ {
			w.chans[s][d] = make(chan message, chanDepth)
		}
	}
	return w
}

// chanDepth is the per-link buffering of both transports: the simulated
// fabric's channel capacity and the TCP fabric's per-peer inbox/outbox
// depth, so backpressure behaves alike.
const chanDepth = 1024

// Size returns the number of ranks.
func (w *World) Size() int { return w.p }

// InjectFaults arms deterministic fault injection on every rank of the
// world: each rank's endpoint is wrapped in a FaultyTransport when the
// next Run/RunContext starts. Call before Run; a World with injected
// faults follows the usual rule that it must not be reused after an
// error.
func (w *World) InjectFaults(cfg FaultConfig) { w.faults = &cfg }

// fail records the first failure cause and releases every blocked rank.
func (w *World) fail(err error) {
	w.failOnce.Do(func() {
		w.cause = err
		close(w.done)
	})
}

// Run executes body on every rank concurrently (SPMD) and waits for all
// of them. It is RunContext with a background context.
func (w *World) Run(body func(c *Comm)) error {
	return w.RunContext(context.Background(), body)
}

// RunContext executes body on every rank concurrently (SPMD) and waits
// for all of them. A panic on any rank is captured and returned as an
// error naming the rank; the remaining ranks are aborted — every
// blocked send or receive fails with ErrAborted instead of deadlocking,
// so no rank goroutine outlives the call. Cancelling (or timing out)
// ctx aborts a deadlocked world the same way. A World must not be
// reused after an error.
func (w *World) RunContext(ctx context.Context, body func(c *Comm)) error {
	var wg sync.WaitGroup
	rankErr := make([]error, w.p)
	wg.Add(w.p)
	for r := 0; r < w.p; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					err := recoveredError(rank, e)
					rankErr[rank] = err
					w.fail(err)
				}
			}()
			var t transport = &chanEndpoint{w: w, r: rank}
			if w.faults != nil {
				t = newFaultyTransport(t, *w.faults)
			}
			body(&Comm{t: t})
		}(r)
	}
	bodyDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			w.fail(&Error{Rank: -1, Peer: -1, Op: "run", Err: ctx.Err()})
		case <-bodyDone:
		}
	}()
	wg.Wait()
	close(bodyDone)
	return firstCause(rankErr, w)
}

// recoveredError shapes a recovered panic value into the run error. A
// rank body has no error return, so it reports a failure that is not a
// bug — a transport *Error, or any other error value — by panicking
// with it, and that error stays matchable with errors.Is. Anything
// else, runtime errors included, is a bug and says so.
func recoveredError(rank int, e any) error {
	if te, ok := e.(*Error); ok {
		return te
	}
	if _, bug := e.(runtime.Error); !bug {
		if err, ok := e.(error); ok {
			return fmt.Errorf("mpi: rank %d: %w", rank, err)
		}
	}
	return fmt.Errorf("mpi: rank %d panicked: %v", rank, e)
}

// firstCause picks the root-cause error of a run: the first rank error
// that is not a mere abort consequence, else the world's recorded cause
// (e.g. context expiry), else the first abort.
func firstCause(rankErr []error, w *World) error {
	var aborted error
	for _, err := range rankErr {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrAborted) {
			if aborted == nil {
				aborted = err
			}
			continue
		}
		return err
	}
	if aborted != nil {
		select {
		case <-w.done:
			if w.cause != nil && !errors.Is(w.cause, ErrAborted) {
				return w.cause
			}
		default:
		}
		return aborted
	}
	return nil
}

// BytesSent returns the payload bytes sent so far by the given rank.
func (w *World) BytesSent(rank int) int64 { return w.sent[rank].Load() }

// chanEndpoint is one simulated rank's transport: buffered channels to
// every peer, with the world's done channel aborting blocked operations.
type chanEndpoint struct {
	w *World
	r int
}

func (t *chanEndpoint) rank() int { return t.r }
func (t *chanEndpoint) size() int { return t.w.p }

// bytesSent is this rank's payload-byte counter.
func (t *chanEndpoint) bytesSent() int64 { return t.w.sent[t.r].Load() }

func (t *chanEndpoint) send(dst int, m message) {
	if dst != t.r {
		// Self-sends are allowed (they simplify exchange loops) and are
		// free; everything else counts payload bytes.
		t.w.sent[t.r].Add(m.payloadBytes())
	}
	select {
	case t.w.chans[t.r][dst] <- m:
	case <-t.w.done:
		panic(&Error{Rank: t.r, Peer: dst, Op: "send", Err: ErrAborted})
	}
}

func (t *chanEndpoint) recv(src int) message {
	select {
	case m := <-t.w.chans[src][t.r]:
		return m
	case <-t.w.done:
		panic(&Error{Rank: t.r, Peer: src, Op: "recv", Err: ErrAborted})
	}
}

// Comm is one rank's endpoint over either transport. Methods must only
// be called from the goroutine executing the rank's body.
type Comm struct {
	t transport
}

// Rank returns the caller's rank id.
func (c *Comm) Rank() int { return c.t.rank() }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.t.size() }

// BytesSent returns the payload bytes this rank has sent (8 per
// float64, 4 per int32; self-sends and frame headers free). The count
// is identical between the simulated and TCP transports.
func (c *Comm) BytesSent() int64 { return c.t.bytesSent() }

const (
	tagUserBase = 1 << 20
	tagBarrier  = 1
	tagBcast    = 2
	tagReduce   = 3
	tagGather   = 4
	tagExchange = 5
	tagSparse   = 6
)

// Send transfers a copy of data to dst with the given tag (use tags >= 0;
// the collective implementations use a reserved space internally).
func (c *Comm) Send(dst, tag int, data []float64) {
	c.sendMsg(dst, message{tag: tagUserBase + tag, f: append([]float64(nil), data...)})
}

// Recv receives the next float64 message from src, which must carry the
// given tag — a mismatch is a protocol bug and panics.
func (c *Comm) Recv(src, tag int) []float64 {
	m := c.recvMsg(src, tagUserBase+tag)
	return m.f
}

func (c *Comm) sendMsg(dst int, m message) { c.t.send(dst, m) }

func (c *Comm) recvMsg(src, tag int) message {
	m := c.t.recv(src)
	if m.tag != tag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", c.Rank(), tag, src, m.tag))
	}
	return m
}

// Barrier blocks until every rank has entered it (dissemination
// algorithm, ceil(log2 P) zero-byte rounds).
func (c *Comm) Barrier() {
	p := c.Size()
	me := c.Rank()
	for dist := 1; dist < p; dist *= 2 {
		dst := (me + dist) % p
		src := (me - dist + p) % p
		c.sendMsg(dst, message{tag: tagBarrier, meta: dist})
		m := c.recvMsg(src, tagBarrier)
		if m.meta != dist {
			panic("mpi: barrier round mismatch")
		}
	}
}

// Bcast distributes root's data to every rank through a binomial tree
// and returns the received slice (root returns data unchanged).
func (c *Comm) Bcast(root int, data []float64) []float64 {
	p := c.Size()
	if p == 1 {
		return data
	}
	// Work in a rotated rank space where root is 0.
	vr := (c.Rank() - root + p) % p
	if vr != 0 {
		src := findBcastParent(vr, p)
		data = c.recvMsg((src+root)%p, tagBcast).f
	}
	for dist := nextPow2(p); dist >= 1; dist /= 2 {
		if vr%(2*dist) == 0 && vr+dist < p {
			dst := (vr + dist + root) % p
			c.sendMsg(dst, message{tag: tagBcast, f: append([]float64(nil), data...)})
		}
	}
	return data
}

// findBcastParent returns the virtual rank that sends to vr in the
// binomial broadcast.
func findBcastParent(vr, p int) int {
	for dist := 1; dist < p; dist *= 2 {
		if vr%(2*dist) == dist {
			return vr - dist
		}
	}
	panic("mpi: unreachable bcast parent")
}

func nextPow2(p int) int {
	d := 1
	for d*2 < p {
		d *= 2
	}
	return d
}

// ReduceSum sums data across ranks element-wise at root. Non-roots send
// their contribution directly to root; root accumulates in ascending
// rank order so the result is deterministic. Returns the sum at root and
// nil elsewhere.
func (c *Comm) ReduceSum(root int, data []float64) []float64 {
	if c.Rank() != root {
		c.sendMsg(root, message{tag: tagReduce, f: append([]float64(nil), data...)})
		return nil
	}
	acc := append([]float64(nil), data...)
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		m := c.recvMsg(r, tagReduce)
		if len(m.f) != len(acc) {
			panic("mpi: ReduceSum length mismatch")
		}
		for i, v := range m.f {
			acc[i] += v
		}
	}
	return acc
}

// AllReduceSum sums data element-wise across all ranks; every rank
// receives the bitwise-identical result (reduce to rank 0, then
// broadcast).
func (c *Comm) AllReduceSum(data []float64) []float64 {
	acc := c.ReduceSum(0, data)
	if c.Rank() != 0 {
		acc = nil
	}
	if acc == nil {
		acc = make([]float64, len(data))
	}
	return c.Bcast(0, acc)
}

// AllGatherV exchanges each rank's (variable-length) slice with every
// other rank directly; the result is indexed by rank. Total traffic is
// P·(P−1)·m, the information-theoretic volume of an allgather.
func (c *Comm) AllGatherV(local []float64) [][]float64 {
	p := c.Size()
	me := c.Rank()
	out := make([][]float64, p)
	out[me] = append([]float64(nil), local...)
	for off := 1; off < p; off++ {
		dst := (me + off) % p
		c.sendMsg(dst, message{tag: tagGather, f: append([]float64(nil), local...), meta: me})
	}
	for off := 1; off < p; off++ {
		src := (me - off + p) % p
		m := c.recvMsg(src, tagGather)
		out[m.meta] = m.f
	}
	return out
}

// AllToAllV sends bufs[d] to rank d and returns the per-source received
// slices. bufs[c.Rank()] is delivered locally without counting traffic.
// Nil buffers are sent as empty slices.
func (c *Comm) AllToAllV(bufs [][]float64) [][]float64 {
	p := c.Size()
	me := c.Rank()
	if len(bufs) != p {
		panic("mpi: AllToAllV needs one buffer per rank")
	}
	out := make([][]float64, p)
	out[me] = append([]float64(nil), bufs[me]...)
	for off := 1; off < p; off++ {
		dst := (me + off) % p
		c.sendMsg(dst, message{tag: tagExchange, f: append([]float64(nil), bufs[dst]...), meta: me})
	}
	for off := 1; off < p; off++ {
		src := (me - off + p) % p
		m := c.recvMsg(src, tagExchange)
		out[m.meta] = m.f
	}
	return out
}

// SparseAllToAllV is the neighborhood exchange of a precomputed sparse
// communication plan: it sends bufs[d] to exactly the ranks d with a
// non-empty buffer and receives exactly one message from each rank in
// recvFrom, returning the per-source slices (indexed by rank, nil for
// ranks not in recvFrom). Unlike AllToAllV no empty messages travel, so
// a rank talks only to its actual sharers — the volume and the message
// count realize the plan, nothing more.
//
// The send and receive plans must agree globally (rank s lists d as a
// destination iff rank d lists s in recvFrom); both sides derive them
// from the same replicated partition, so no index traffic is needed to
// reconcile. Sends go out in ascending (me+off)%p offset order and
// receives complete in ascending (me-off+p)%p order — the same
// deterministic schedule as the dense collectives, so the primitive is
// bitwise reproducible on both transports. bufs[me], when non-empty, is
// delivered locally without counting traffic. On the TCP transport the
// per-peer writer goroutines coalesce queued frames into single socket
// writes, so the posted sends overlap with the caller's pack/unpack
// loops.
func (c *Comm) SparseAllToAllV(bufs [][]float64, recvFrom []int) [][]float64 {
	p := c.Size()
	me := c.Rank()
	if len(bufs) != p {
		panic("mpi: SparseAllToAllV needs one buffer slot per rank")
	}
	out := make([][]float64, p)
	if len(bufs[me]) > 0 {
		out[me] = append([]float64(nil), bufs[me]...)
	}
	want := make([]bool, p)
	for _, src := range recvFrom {
		if src < 0 || src >= p || src == me {
			panic(fmt.Sprintf("mpi: rank %d: SparseAllToAllV source %d out of range", me, src))
		}
		if want[src] {
			panic(fmt.Sprintf("mpi: rank %d: SparseAllToAllV source %d listed twice", me, src))
		}
		want[src] = true
	}
	for off := 1; off < p; off++ {
		dst := (me + off) % p
		if len(bufs[dst]) == 0 {
			continue
		}
		c.sendMsg(dst, message{tag: tagSparse, f: append([]float64(nil), bufs[dst]...), meta: me})
	}
	for off := 1; off < p; off++ {
		src := (me - off + p) % p
		if !want[src] {
			continue
		}
		m := c.recvMsg(src, tagSparse)
		if m.meta != src {
			panic(fmt.Sprintf("mpi: rank %d: SparseAllToAllV expected a message from %d, got one stamped %d", me, src, m.meta))
		}
		out[src] = m.f
	}
	return out
}
