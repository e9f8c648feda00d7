package flnet

import (
	"fmt"
	"sync"
	"time"

	"flbooster/internal/mpint"
)

// ChaosConfig parameterizes ChaosTransport. All probabilistic decisions come
// from one xoshiro stream seeded by Seed and drawn in send order, so a fixed
// seed and a fixed send sequence reproduce the exact same fault pattern. The
// index and match rules draw nothing, so adding one leaves the seeded pattern
// of every other send as it was.
type ChaosConfig struct {
	// Seed drives every probabilistic decision.
	Seed uint64
	// DropProb is the probability a send is silently discarded.
	DropProb float64
	// DupProb is the probability a send is delivered twice.
	DupProb float64
	// ReorderProb is the probability a send is held back and delivered only
	// after the next message — swapping the arrival order of neighbours — or,
	// when no message follows, once its recipient's receive would otherwise
	// block or time out.
	ReorderProb float64
	// StragglerParty, when non-empty, makes every message that party sends
	// late — the slow-client scenario of quorum aggregation. Its frames are
	// held per recipient and released once that recipient's next deadline
	// receive has timed out, so they land behind the deadline; a receive
	// with no deadline releases them first.
	StragglerParty string
	// FailSendAt and FailRecvAt are 1-based operation indices at which the
	// corresponding call fails; zero disables the fault.
	FailSendAt int64
	FailRecvAt int64
	// DropKind silently drops (rather than fails) sends of this Kind.
	DropKind string
	// DropFrom silently drops sends from this party. When both DropKind and
	// DropFrom are set, only messages matching both are dropped.
	DropFrom string
}

// ChaosStats counts the faults a ChaosTransport has injected.
type ChaosStats struct {
	Sent       int64 // messages offered to Send
	Recvs      int64 // Recv and RecvTimeout calls
	Failed     int64 // sends and receives failed by FailSendAt or FailRecvAt
	Dropped    int64 // silently discarded
	Duplicated int64 // delivered twice
	Reordered  int64 // held back behind a later message
	Delayed    int64 // the straggler's frames held for a deadline
}

// ChaosTransport wraps a Transport with seeded probabilistic faults — drops,
// duplication, neighbour reordering, and a straggler whose frames arrive
// after their recipient's deadline — and with deterministic ones: a send or
// receive that fails at a given index, and a drop of every send matching a
// kind and sender. It is how federated protocols are tested to surface
// transport errors instead of hanging or silently corrupting state. Nothing
// waits on a clock: a straggler's frame is late by rule, released into the
// inner transport by the receive whose deadline it missed (over TCP that is
// a real send after the wall deadline). Release errors are discarded,
// mirroring packets in flight when a link goes down.
type ChaosTransport struct {
	inner Transport
	cfg   ChaosConfig

	mu    sync.Mutex
	rng   *mpint.RNG
	held  *Message
	late  map[string][]Message // the straggler's frames, by recipient
	stats ChaosStats
}

// NewChaosTransport wraps inner with the given fault configuration.
func NewChaosTransport(inner Transport, cfg ChaosConfig) *ChaosTransport {
	return &ChaosTransport{inner: inner, cfg: cfg, rng: mpint.NewRNG(cfg.Seed), late: make(map[string][]Message)}
}

// Send implements Transport with injected chaos.
func (c *ChaosTransport) Send(msg Message) error {
	c.mu.Lock()
	c.stats.Sent++
	// Draw all three decisions every send, in a fixed order and before the
	// index and match rules, so the fault pattern is a pure function of
	// (seed, send index) regardless of which faults are enabled.
	drop := c.rng.Float64() < c.cfg.DropProb
	dup := c.rng.Float64() < c.cfg.DupProb
	reorder := c.rng.Float64() < c.cfg.ReorderProb
	if c.stats.Sent == c.cfg.FailSendAt {
		c.stats.Failed++
		c.mu.Unlock()
		return fmt.Errorf("flnet: injected send failure at operation %d", c.cfg.FailSendAt)
	}
	match := (c.cfg.DropKind != "" || c.cfg.DropFrom != "") &&
		(c.cfg.DropKind == "" || msg.Kind == c.cfg.DropKind) &&
		(c.cfg.DropFrom == "" || msg.From == c.cfg.DropFrom)

	var deliver []Message
	switch {
	case drop || match:
		c.stats.Dropped++
	case reorder && c.held == nil:
		held := msg
		c.held = &held
		c.stats.Reordered++
	default:
		deliver = append(deliver, msg)
		if dup {
			deliver = append(deliver, msg)
			c.stats.Duplicated++
		}
	}
	// A held message is released behind the next delivered one.
	if c.held != nil && len(deliver) > 0 {
		deliver = append(deliver, *c.held)
		c.held = nil
	}
	// The straggler rule goes by each frame's own sender: a held frame
	// released behind another party's keeps its own timing.
	if c.cfg.StragglerParty != "" {
		onTime := deliver[:0]
		for _, m := range deliver {
			if m.From != c.cfg.StragglerParty {
				onTime = append(onTime, m)
				continue
			}
			c.late[m.To] = append(c.late[m.To], m)
			c.stats.Delayed++
		}
		deliver = onTime
	}
	c.mu.Unlock()

	for _, m := range deliver {
		if err := c.inner.Send(m); err != nil {
			return err
		}
	}
	return nil
}

// Recv implements Transport, releasing the frames held for party first.
func (c *ChaosTransport) Recv(party string) (Message, error) { return c.RecvTimeout(party, 0) }

// RecvTimeout implements Transport: the straggler's frames held for party are
// released once a deadline receive times out, or first when there is no
// deadline (d == 0). A frame held back for reordering is delivered before its
// recipient's receive would block or time out: it may be the last of a wave,
// with no later send to release it, and a reorder is no drop. The receive
// FailRecvAt names fails before either.
func (c *ChaosTransport) RecvTimeout(party string, d time.Duration) (Message, error) {
	c.mu.Lock()
	c.stats.Recvs++
	fail := c.stats.Recvs == c.cfg.FailRecvAt
	if fail {
		c.stats.Failed++
	}
	c.mu.Unlock()
	if fail {
		return Message{}, fmt.Errorf("flnet: injected recv failure at operation %d", c.cfg.FailRecvAt)
	}
	if d == 0 {
		c.releaseHeld(party)
		c.release(party)
	}
	msg, err := c.inner.RecvTimeout(party, d)
	if IsTimeout(err) && c.releaseHeld(party) {
		msg, err = c.inner.RecvTimeout(party, d)
	}
	if IsTimeout(err) {
		c.release(party)
	}
	return msg, err
}

// releaseHeld sends the frame held back for reordering into the inner
// transport when party is its recipient, reporting whether it did; a frame of
// the straggler's joins its late frames instead.
func (c *ChaosTransport) releaseHeld(party string) bool {
	c.mu.Lock()
	held := c.held
	if held == nil || held.To != party {
		c.mu.Unlock()
		return false
	}
	c.held = nil
	late := c.cfg.StragglerParty != "" && held.From == c.cfg.StragglerParty
	if late {
		c.late[party] = append(c.late[party], *held)
		c.stats.Delayed++
	}
	c.mu.Unlock()
	return !late && c.inner.Send(*held) == nil
}

// release sends the straggler's frames held for party into the inner
// transport, best effort: the round may have moved on.
func (c *ChaosTransport) release(party string) {
	c.mu.Lock()
	late := c.late[party]
	delete(c.late, party)
	c.mu.Unlock()
	for _, m := range late {
		_ = c.inner.Send(m)
	}
}

// Close implements Transport. Frames still held are abandoned.
func (c *ChaosTransport) Close() error { return c.inner.Close() }

// Stats returns a snapshot of the injected-fault counters.
func (c *ChaosTransport) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
