package mpi

import (
	"fmt"
	"math/rand"
	"time"
)

// FaultConfig drives deterministic, seed-derived fault injection on
// either transport: wrap a simulated World with InjectFaults or a TCP
// world with TCPOptions.Faults, and every rank's transport ops draw
// from a per-rank RNG seeded by (Seed, rank). Because each rank's ops
// are sequential, the fault schedule is a pure function of the config
// — rerunning the same solve reproduces the same faults at the same
// operations, which is what lets chaos failures be bisected and
// regression-tested.
type FaultConfig struct {
	// Seed fixes the fault schedule. Rank r draws from an RNG seeded
	// with Seed*1000003 + r.
	Seed int64
	// DelayProb is the per-op probability of stalling the operation
	// for Delay before it executes (slow-network simulation).
	DelayProb float64
	// Delay is how long a delayed op stalls.
	Delay time.Duration
	// DropProb is the per-op probability of aborting the operation as
	// a dropped connection (typed ErrPeerDied, exactly what a real
	// connection reset surfaces).
	DropProb float64
	// CorruptProb is the per-op probability of aborting the operation
	// as a detected corrupt frame (typed ErrBadFrame — corruption is
	// always detected, never silently delivered; the wire format's CRC
	// and validation tests cover detection itself).
	CorruptProb float64
	// KillRank + KillAtOp kill one specific rank at one specific
	// transport op (1-based count of that rank's sends+recvs): the
	// precise kill switch the goroutine-leak tests aim mid-collective.
	KillRank int
	KillAtOp int
	// KillRank + KillAtSweep drive SweepHook: the kill-rank-at-sweep-N
	// scenario of the distributed recovery tests and the -chaos bench.
	KillAtSweep int
}

// SweepHook adapts the kill-rank-at-sweep-N knob to the sweep-boundary
// fault callback internal/dist exposes: when the configured rank
// reaches the configured sweep (1-based), the hook panics with an
// injected ErrPeerDied, simulating the rank's process dying at the top
// of that sweep. Other ranks observe the death through the transport,
// exactly as with a real crash.
func (cfg FaultConfig) SweepHook() func(rank, sweep int) {
	return func(rank, sweep int) {
		if cfg.KillRank == rank && cfg.KillAtSweep == sweep && sweep > 0 {
			panic(&Error{Rank: rank, Peer: -1, Op: "chaos",
				Err: fmt.Errorf("%w: injected kill of rank %d at sweep %d", ErrPeerDied, rank, sweep)})
		}
	}
}

// FaultyTransport wraps one rank's endpoint with the deterministic
// fault injection described by FaultConfig. Faults surface through the
// same typed-panic discipline as genuine transport failures, so the
// collectives, Run recovery, teardown, and error classification behave
// exactly as they would under the real fault — which is the point: the
// chaos tests exercise the production failure paths, not simulations
// of them.
type FaultyTransport struct {
	inner transport
	cfg   FaultConfig
	rng   *rand.Rand
	ops   int
}

func newFaultyTransport(inner transport, cfg FaultConfig) *FaultyTransport {
	return &FaultyTransport{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed*1000003 + int64(inner.rank()))),
	}
}

func (f *FaultyTransport) rank() int        { return f.inner.rank() }
func (f *FaultyTransport) size() int        { return f.inner.size() }
func (f *FaultyTransport) bytesSent() int64 { return f.inner.bytesSent() }

func (f *FaultyTransport) send(dst int, m message) {
	f.inject("send", dst)
	f.inner.send(dst, m)
}

func (f *FaultyTransport) recv(src int) message {
	f.inject("recv", src)
	return f.inner.recv(src)
}

// inject draws once per transport op. A single draw (rather than one
// per fault class) keeps schedules comparable across configs: raising
// DropProb does not shift where delays land.
func (f *FaultyTransport) inject(op string, peer int) {
	f.ops++
	me := f.inner.rank()
	if f.cfg.KillAtOp > 0 && f.cfg.KillRank == me && f.ops == f.cfg.KillAtOp {
		panic(&Error{Rank: me, Peer: peer, Op: op,
			Err: fmt.Errorf("%w: injected kill at op %d", ErrPeerDied, f.ops)})
	}
	draw := f.rng.Float64()
	switch {
	case draw < f.cfg.DropProb:
		panic(&Error{Rank: me, Peer: peer, Op: op,
			Err: fmt.Errorf("%w: injected connection drop at op %d", ErrPeerDied, f.ops)})
	case draw < f.cfg.DropProb+f.cfg.CorruptProb:
		panic(&Error{Rank: me, Peer: peer, Op: op,
			Err: fmt.Errorf("%w: injected frame corruption detected at op %d", ErrBadFrame, f.ops)})
	case draw < f.cfg.DropProb+f.cfg.CorruptProb+f.cfg.DelayProb:
		if f.cfg.Delay > 0 {
			time.Sleep(f.cfg.Delay)
		}
	}
}
