package mpi

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPOptions tune a multi-process TCP world. The zero value selects the
// documented defaults.
type TCPOptions struct {
	// DialTimeout bounds the whole mesh setup: every dial (with
	// connection-refused retries while peers are still binding), every
	// handshake, and every accept must complete within it. Default 30s.
	DialTimeout time.Duration
	// Timeout bounds a single blocking receive and a single coalesced
	// write: a peer that produces no frame for this long is treated as
	// dead and the world fails with ErrTimeout instead of hanging.
	// Default 2m; negative disables the deadline entirely.
	Timeout time.Duration
	// Listener, when non-nil, is the pre-bound listener for this rank's
	// address (peers[rank] is then ignored for binding). It lets a
	// parent process bind all addresses race-free before spawning the
	// rank processes, and lets tests use ephemeral ports. The world
	// takes ownership and closes it after mesh setup.
	Listener net.Listener
	// MaxFrame caps the accepted wire-frame length in bytes; larger (or
	// corrupt) length prefixes fail with ErrBadFrame. Default 1 GiB.
	MaxFrame int
	// Heartbeat is the idle-heartbeat interval: each peer writer emits
	// a zero-payload heartbeat frame at this cadence, and a reader that
	// sees no frame (data or heartbeat) for 4 intervals declares the
	// peer dead with ErrPeerDied — far sooner than the OS TCP timeout
	// for a silently vanished host. Default 15s; negative disables
	// both sides. All ranks of a world must use the same setting.
	Heartbeat time.Duration
	// Faults, when non-nil, wraps this rank's transport in a
	// FaultyTransport during RunContext (deterministic chaos testing).
	Faults *FaultConfig
}

// defaultHeartbeat is the idle-heartbeat interval when unset; the
// liveness window is heartbeatWindowFactor intervals.
const (
	defaultHeartbeat      = 15 * time.Second
	heartbeatWindowFactor = 4
)

// heartbeatInterval resolves the configured heartbeat cadence (0 when
// disabled).
func (o TCPOptions) heartbeatInterval() time.Duration {
	switch {
	case o.Heartbeat < 0:
		return 0
	case o.Heartbeat == 0:
		return defaultHeartbeat
	}
	return o.Heartbeat
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = 30 * time.Second
	}
	if o.Timeout == 0 {
		o.Timeout = 2 * time.Minute
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = defaultMaxFrame
	}
	return o
}

// tcpPeer is one persistent peer connection: a reader goroutine decodes
// frames into inbox, a writer goroutine drains sendq with coalescing.
type tcpPeer struct {
	rank    int
	conn    net.Conn
	br      *bufio.Reader
	sendq   chan message
	inbox   chan message
	wdone   chan struct{} // closed when the writer loop exits
	readErr error         // set before inbox is closed on failure
}

// TCPWorld is one OS process's rank endpoint in a multi-process world:
// a full mesh of persistent TCP connections carrying length-prefixed
// binary frames. It implements Runner, so internal/dist drivers run
// unchanged on it; the collective algorithms and their fixed-rank-order
// reductions live in Comm and are shared with the simulated World, so
// fit trajectories are bitwise identical between the two transports.
type TCPWorld struct {
	rankID int
	p      int
	opt    TCPOptions

	peers []*tcpPeer   // indexed by rank; nil at rankID
	self  chan message // loopback for self-sends

	done     chan struct{}
	failOnce sync.Once
	cause    error // set before done is closed

	closed    atomic.Bool
	closeOnce sync.Once

	payload atomic.Int64 // accounting bytes (8/float64, 4/int32)
	wire    atomic.Int64 // bytes actually written, headers included

	readers sync.WaitGroup
}

var _ Runner = (*TCPWorld)(nil)
var _ transport = (*TCPWorld)(nil)

// ConnectTCP establishes the full connection mesh for one rank of a
// worldSize = len(peers) process group. peers[i] is the host:port at
// which rank i listens; this process listens on peers[rank] (or
// opt.Listener) and connects to every other rank, with a handshake on
// each connection carrying (protocol version, world size, both ranks)
// so mismatched launches fail with ErrHandshake instead of corrupting
// the stream. ConnectTCP must be called concurrently on all ranks; it
// returns once every connection is up.
func ConnectTCP(ctx context.Context, rank int, peers []string, opt TCPOptions) (*TCPWorld, error) {
	p := len(peers)
	if p < 1 {
		return nil, fmt.Errorf("mpi: ConnectTCP needs at least one peer address")
	}
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("mpi: rank %d out of range for %d peers", rank, p)
	}
	opt = opt.withDefaults()
	w := &TCPWorld{
		rankID: rank,
		p:      p,
		opt:    opt,
		peers:  make([]*tcpPeer, p),
		self:   make(chan message, chanDepth),
		done:   make(chan struct{}),
	}
	if p == 1 {
		if opt.Listener != nil {
			opt.Listener.Close()
		}
		return w, nil
	}

	setupCtx, cancel := context.WithTimeout(ctx, opt.DialTimeout)
	defer cancel()
	deadline, _ := setupCtx.Deadline()

	ln := opt.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", peers[rank])
		if err != nil {
			return nil, fmt.Errorf("mpi: rank %d cannot listen on %s: %w", rank, peers[rank], err)
		}
	}
	// The listener is only needed during setup: the mesh is persistent.
	defer ln.Close()
	unblock := make(chan struct{})
	defer close(unblock)
	go func() {
		// Closing the listener aborts a blocked Accept when setup times
		// out.
		select {
		case <-setupCtx.Done():
			ln.Close()
		case <-unblock:
		}
	}()

	type pend struct {
		peer *tcpPeer
		err  error
	}
	results := make(chan pend, p)

	// Ranks below us are dialed; ranks above us dial in.
	for t := 0; t < rank; t++ {
		go func(t int) {
			peer, err := w.dialPeer(setupCtx, deadline, peers[t], t)
			results <- pend{peer, err}
		}(t)
	}
	expected := p - 1 - rank
	if expected > 0 {
		go func() {
			// Exactly one pend per expected inbound peer: acceptPeer
			// retries transient mid-handshake failures internally, and
			// after a permanent error (e.g. the main loop closed the
			// listener) the remaining slots fill with fast errors — so
			// the result loop below always receives p-1 sends.
			seen := make(map[int]bool)
			for i := 0; i < expected; i++ {
				peer, err := w.acceptPeer(ln, deadline, seen)
				results <- pend{peer, err}
			}
		}()
	}

	var firstErr error
	for i := 0; i < p-1; i++ {
		r := <-results
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
				cancel()
				ln.Close()
			}
			continue
		}
		w.peers[r.peer.rank] = r.peer
	}
	if firstErr != nil {
		for _, peer := range w.peers {
			if peer != nil {
				peer.conn.Close()
			}
		}
		return nil, firstErr
	}
	for _, peer := range w.peers {
		if peer == nil {
			continue
		}
		peer.conn.SetDeadline(time.Time{})
		w.readers.Add(1)
		go w.readLoop(peer)
		go w.writeLoop(peer)
	}
	return w, nil
}

func newTCPPeer(rank int, conn net.Conn) *tcpPeer {
	return &tcpPeer{
		rank:  rank,
		conn:  conn,
		br:    bufio.NewReaderSize(conn, 64<<10),
		sendq: make(chan message, chanDepth),
		inbox: make(chan message, chanDepth),
		wdone: make(chan struct{}),
	}
}

// sleepBackoff waits for the current backoff step (doubling it toward
// a 1s cap for the next attempt) or returns the context error when the
// setup window expires first.
func sleepBackoff(ctx context.Context, backoff *time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(*backoff):
	}
	if *backoff < time.Second {
		*backoff *= 2
	}
	return nil
}

// dialPeer connects to a lower rank with exponential backoff: dial
// failures (the peer is still binding — or being restarted by a
// supervisor) and transient mid-handshake connection losses retry
// until the setup deadline; permanent validation mismatches (protocol
// version, world size, rank identity) fail immediately.
func (w *TCPWorld) dialPeer(ctx context.Context, deadline time.Time, addr string, target int) (*tcpPeer, error) {
	var d net.Dialer
	backoff := 50 * time.Millisecond
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			if sleepBackoff(ctx, &backoff) != nil {
				return nil, &Error{Rank: w.rankID, Peer: target, Op: "dial",
					Err: fmt.Errorf("%w: %s unreachable before the dial deadline (last error: %v)", ErrHandshake, addr, err)}
			}
			continue
		}
		peer := newTCPPeer(target, conn)
		conn.SetDeadline(deadline)
		herr := w.writeHandshake(conn, target)
		transient := true
		var hs []int32
		if herr == nil {
			hs, transient, herr = w.readHandshake(peer.br, target)
		}
		if herr == nil && (int(hs[2]) != target || int(hs[3]) != w.rankID) {
			transient = false
			herr = &Error{Rank: w.rankID, Peer: target, Op: "handshake",
				Err: fmt.Errorf("%w: reply names ranks (%d -> %d), want (%d -> %d)", ErrHandshake, hs[2], hs[3], target, w.rankID)}
		}
		if herr == nil {
			return peer, nil
		}
		conn.Close()
		if !transient {
			return nil, herr
		}
		if sleepBackoff(ctx, &backoff) != nil {
			return nil, herr
		}
	}
}

// acceptPeer accepts one inbound connection from a higher rank and runs
// the server side of the handshake. Transient failures — a dialer that
// died mid-handshake and will be redialed — keep accepting; listener
// errors and validation mismatches are permanent.
func (w *TCPWorld) acceptPeer(ln net.Listener, deadline time.Time, seen map[int]bool) (*tcpPeer, error) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return nil, &Error{Rank: w.rankID, Peer: -1, Op: "accept",
				Err: fmt.Errorf("%w: %v", ErrHandshake, err)}
		}
		conn.SetDeadline(deadline)
		br := bufio.NewReaderSize(conn, 64<<10)
		hs, transient, err := w.readHandshake(br, -1)
		if err != nil {
			conn.Close()
			if transient {
				continue
			}
			return nil, err
		}
		from := int(hs[2])
		switch {
		case int(hs[3]) != w.rankID:
			err = fmt.Errorf("%w: dialer targeted rank %d, this is rank %d", ErrHandshake, hs[3], w.rankID)
		case from <= w.rankID || from >= w.p:
			err = fmt.Errorf("%w: unexpected dialer rank %d (acceptor %d of %d)", ErrHandshake, from, w.rankID, w.p)
		case seen[from]:
			err = fmt.Errorf("%w: duplicate connection from rank %d", ErrHandshake, from)
		}
		if err != nil {
			conn.Close()
			return nil, &Error{Rank: w.rankID, Peer: from, Op: "handshake", Err: err}
		}
		peer := newTCPPeer(from, conn)
		peer.br = br
		if err := w.writeHandshake(conn, from); err != nil {
			// The dialer vanished between its handshake and our reply;
			// it (or its restarted replacement) will dial again.
			conn.Close()
			continue
		}
		seen[from] = true
		return peer, nil
	}
}

// writeHandshake sends (version, worldSize, ownRank, peerRank).
func (w *TCPWorld) writeHandshake(conn net.Conn, peer int) error {
	m := message{i: []int32{ProtocolVersion, int32(w.p), int32(w.rankID), int32(peer)}}
	buf := appendFrame(nil, frameHandshake, &m)
	n, err := conn.Write(buf)
	w.wire.Add(int64(n))
	if err != nil {
		return &Error{Rank: w.rankID, Peer: peer, Op: "handshake",
			Err: fmt.Errorf("%w: %v", ErrHandshake, err)}
	}
	return nil
}

// readHandshake reads and validates the version and world-size fields;
// rank fields are validated by the caller (which knows its role). The
// second return distinguishes transient failures — the connection
// broke before a complete handshake arrived, so the peer may simply
// have died mid-setup and be about to retry — from permanent protocol
// mismatches that no retry can fix.
func (w *TCPWorld) readHandshake(br *bufio.Reader, peer int) ([]int32, bool, error) {
	fr, _, err := readFrame(br, w.opt.MaxFrame)
	if err != nil {
		return nil, true, &Error{Rank: w.rankID, Peer: peer, Op: "handshake",
			Err: fmt.Errorf("%w: %v", ErrHandshake, err)}
	}
	if fr.kind != frameHandshake || len(fr.msg.i) != 4 {
		return nil, false, &Error{Rank: w.rankID, Peer: peer, Op: "handshake",
			Err: fmt.Errorf("%w: first frame is not a handshake", ErrHandshake)}
	}
	hs := fr.msg.i
	if hs[0] != ProtocolVersion {
		return nil, false, &Error{Rank: w.rankID, Peer: peer, Op: "handshake",
			Err: fmt.Errorf("%w: protocol version %d, want %d", ErrHandshake, hs[0], ProtocolVersion)}
	}
	if int(hs[1]) != w.p {
		return nil, false, &Error{Rank: w.rankID, Peer: peer, Op: "handshake",
			Err: fmt.Errorf("%w: peer launched with world size %d, this rank with %d", ErrHandshake, hs[1], w.p)}
	}
	return hs, false, nil
}

// Rank returns this process's rank id.
func (w *TCPWorld) Rank() int { return w.rankID }

// Size returns the number of ranks in the world.
func (w *TCPWorld) Size() int { return w.p }

// BytesSent returns the payload bytes this rank has sent — the same
// accounting the simulated World keeps (8 per float64, 4 per int32,
// self-sends and headers free).
func (w *TCPWorld) BytesSent() int64 { return w.payload.Load() }

// WireBytes returns the bytes actually written to the sockets,
// including frame headers and the connection handshakes.
func (w *TCPWorld) WireBytes() int64 { return w.wire.Load() }

// transport implementation.
func (w *TCPWorld) rank() int        { return w.rankID }
func (w *TCPWorld) size() int        { return w.p }
func (w *TCPWorld) bytesSent() int64 { return w.payload.Load() }

func (w *TCPWorld) fail(err error) {
	w.failOnce.Do(func() {
		w.cause = err
		close(w.done)
	})
}

func (w *TCPWorld) send(dst int, m message) {
	if dst == w.rankID {
		select {
		case w.self <- m:
			return
		case <-w.done:
			panic(&Error{Rank: w.rankID, Peer: dst, Op: "send", Err: ErrAborted})
		}
	}
	w.payload.Add(m.payloadBytes())
	select {
	case w.peers[dst].sendq <- m:
	case <-w.done:
		panic(&Error{Rank: w.rankID, Peer: dst, Op: "send", Err: ErrAborted})
	}
}

func (w *TCPWorld) recv(src int) message {
	inbox := w.self
	var peer *tcpPeer
	if src != w.rankID {
		peer = w.peers[src]
		inbox = peer.inbox
	}
	var timeout <-chan time.Time
	if w.opt.Timeout > 0 {
		t := time.NewTimer(w.opt.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case m, ok := <-inbox:
		if !ok {
			var err error = ErrPeerClosed
			if peer != nil && peer.readErr != nil {
				err = peer.readErr
			}
			w.fail(err)
			panic(&Error{Rank: w.rankID, Peer: src, Op: "recv", Err: err})
		}
		return m
	case <-w.done:
		panic(&Error{Rank: w.rankID, Peer: src, Op: "recv", Err: ErrAborted})
	case <-timeout:
		err := &Error{Rank: w.rankID, Peer: src, Op: "recv",
			Err: fmt.Errorf("%w: no frame from rank %d within %v", ErrTimeout, src, w.opt.Timeout)}
		w.fail(err)
		panic(err)
	}
}

// readLoop decodes frames from one peer into its inbox until a clean
// bye frame, a failure, or local shutdown. A connection error before
// the bye means the peer died: the whole local world is failed so every
// blocked operation surfaces the error instead of hanging. With
// heartbeats enabled, a peer that produces no frame at all for several
// intervals is declared dead the same way — well before the OS TCP
// keepalive would notice a silently vanished host.
func (w *TCPWorld) readLoop(p *tcpPeer) {
	defer w.readers.Done()
	var window time.Duration
	if iv := w.opt.heartbeatInterval(); iv > 0 {
		window = heartbeatWindowFactor * iv
	}
	for {
		if window > 0 {
			p.conn.SetReadDeadline(time.Now().Add(window))
		}
		fr, _, err := readFrame(p.br, w.opt.MaxFrame)
		if err != nil {
			if !w.closed.Load() {
				cause := fmt.Errorf("%w: %v", ErrPeerDied, err)
				var ne net.Error
				switch {
				case errors.As(err, &ne) && ne.Timeout():
					cause = fmt.Errorf("%w: rank %d silent for %v (no data or heartbeat frames)",
						ErrPeerDied, p.rank, window)
				case errors.Is(err, ErrBadFrame):
					// Corruption is its own root cause: a peer that sent a
					// malformed frame is not the same failure as one that
					// vanished, and diagnosis depends on the distinction.
					cause = err
				}
				werr := &Error{Rank: w.rankID, Peer: p.rank, Op: "recv", Err: cause}
				p.readErr = werr
				w.fail(werr)
			}
			close(p.inbox)
			return
		}
		switch fr.kind {
		case frameBye:
			close(p.inbox)
			return
		case frameHeartbeat:
			// Liveness only; resets the read deadline and is dropped.
		case frameFloat64, frameInt32:
			select {
			case p.inbox <- fr.msg:
			case <-w.done:
				close(p.inbox)
				return
			}
		default:
			werr := &Error{Rank: w.rankID, Peer: p.rank, Op: "recv",
				Err: fmt.Errorf("%w: unexpected frame kind %d after setup", ErrBadFrame, fr.kind)}
			p.readErr = werr
			w.fail(werr)
			close(p.inbox)
			return
		}
	}
}

// maxCoalesce bounds how many bytes the writer batches into one socket
// write before flushing.
const maxCoalesce = 256 << 10

// writeLoop drains the peer's send queue, coalescing every message
// already queued into a single socket write, and finishes with a bye
// frame when the queue is closed (graceful shutdown). While the queue
// is idle it emits heartbeat frames at the configured cadence so the
// peer's reader can distinguish "alive but quiet" from "gone".
func (w *TCPWorld) writeLoop(p *tcpPeer) {
	defer close(p.wdone)
	buf := make([]byte, 0, 64<<10)
	var hb <-chan time.Time
	if iv := w.opt.heartbeatInterval(); iv > 0 {
		t := time.NewTicker(iv)
		defer t.Stop()
		hb = t.C
	}
	for {
		var m message
		var ok bool
		select {
		case m, ok = <-p.sendq:
		case <-hb:
			if !w.writeAll(p, appendFrame(buf[:0], frameHeartbeat, &message{})) {
				return
			}
			continue
		}
		if !ok {
			break
		}
		buf = appendFrame(buf[:0], payloadKind(&m), &m)
		drained := false
		for len(buf) < maxCoalesce && !drained {
			select {
			case m2, ok2 := <-p.sendq:
				if !ok2 {
					drained = true
					break
				}
				buf = appendFrame(buf, payloadKind(&m2), &m2)
			default:
				drained = true
			}
		}
		if !w.writeAll(p, buf) {
			return
		}
		select {
		case <-w.done:
			// Failed worlds tear down abruptly; no bye.
			return
		default:
		}
	}
	w.writeAll(p, appendFrame(buf[:0], frameBye, &message{}))
}

func payloadKind(m *message) byte {
	if m.i != nil {
		return frameInt32
	}
	return frameFloat64
}

// writeAll writes one coalesced batch with a deadline, counting wire
// bytes; a failure fails the world unless it is already shutting down.
func (w *TCPWorld) writeAll(p *tcpPeer, buf []byte) bool {
	if w.opt.Timeout > 0 {
		p.conn.SetWriteDeadline(time.Now().Add(w.opt.Timeout))
	}
	n, err := p.conn.Write(buf)
	w.wire.Add(int64(n))
	if err != nil {
		if !w.closed.Load() {
			w.fail(&Error{Rank: w.rankID, Peer: p.rank, Op: "send",
				Err: fmt.Errorf("%w: %v", ErrPeerDied, err)})
		}
		return false
	}
	return true
}

// Close tears the mesh down. On a clean world it flushes every send
// queue, sends bye frames, and waits briefly for the writers; after a
// failure it closes the connections immediately so peers see the death
// promptly. Close is idempotent; Run/RunContext call it automatically.
func (w *TCPWorld) Close() error {
	w.closeOnce.Do(func() {
		w.closed.Store(true)
		graceful := true
		select {
		case <-w.done:
			graceful = false
		default:
		}
		for _, p := range w.peers {
			if p != nil {
				close(p.sendq)
			}
		}
		if graceful {
			wait := w.opt.Timeout
			if wait <= 0 || wait > 5*time.Second {
				wait = 5 * time.Second
			}
			deadline := time.After(wait)
			for _, p := range w.peers {
				if p == nil {
					continue
				}
				select {
				case <-p.wdone:
				case <-deadline:
				}
			}
		}
		for _, p := range w.peers {
			if p != nil {
				p.conn.Close()
			}
		}
		w.readers.Wait()
	})
	return nil
}

// Run executes body for this process's rank. It is RunContext with a
// background context.
func (w *TCPWorld) Run(body func(c *Comm)) error {
	return w.RunContext(context.Background(), body)
}

// RunContext executes body for this process's rank (the other ranks run
// the same body in their own processes), then performs a closing
// barrier and shuts the mesh down. A panic in body — including the
// typed transport failures for dead peers and timeouts — is recovered
// into the returned error naming this rank; cancelling ctx aborts a
// blocked rank the same way. The world cannot be reused after
// RunContext returns.
func (w *TCPWorld) RunContext(ctx context.Context, body func(c *Comm)) error {
	bodyDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			w.fail(&Error{Rank: w.rankID, Peer: -1, Op: "run", Err: ctx.Err()})
		case <-bodyDone:
		}
	}()
	var err error
	func() {
		defer func() {
			if e := recover(); e != nil {
				err = recoveredError(w.rankID, e)
			}
		}()
		var t transport = w
		if w.opt.Faults != nil {
			t = newFaultyTransport(t, *w.opt.Faults)
		}
		c := &Comm{t: t}
		body(c)
		// The closing barrier keeps any rank from tearing the mesh down
		// while a peer is still mid-collective.
		c.Barrier()
	}()
	close(bodyDone)
	if err != nil && errors.Is(err, ErrAborted) && w.cause != nil && !errors.Is(w.cause, ErrAborted) {
		err = w.cause
	}
	w.Close()
	return err
}
