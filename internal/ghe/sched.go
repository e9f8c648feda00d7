package ghe

import (
	"fmt"
	"sync"
	"time"

	"flbooster/internal/gpu"
)

// The executor's shard scheduler (DESIGN.md §15): a vector op splits into
// contiguous shards, dispatches across the members, and merges their
// per-device sim clocks into one measured parallel span: the max over members
// per wave, never the sum, so a device idling while its peers finish is not
// charged. When the fault layer faults or kills a member mid-batch, its
// unfinished shards are re-queued onto the healthy members (work stealing),
// subdivided so the rework is itself parallel; the rework's launches and
// copies are charged to the cost model like any others.

// shard is one contiguous item range [lo, hi) of a sharded vector op.
type shard struct {
	lo, hi int
}

// len returns the shard's item count.
func (s shard) len() int { return s.hi - s.lo }

// piece returns piece j of the shard cut into `parts` contiguous near-equal
// pieces, the first len()%parts of them one item longer. parts is in
// [1, len()] and j in [0, parts).
func (s shard) piece(parts, j int) shard {
	q, r := s.len()/parts, s.len()%parts
	lo := s.lo + j*q + min(j, r)
	hi := lo + q
	if j < r {
		hi++
	}
	return shard{lo: lo, hi: hi}
}

// serveOp runs op across the fleet: split into one shard per eligible member,
// run the wave in parallel (each member walks its shards in order; a wave of
// several members gives each its own goroutine, a wave of one runs on the
// caller's), then re-queue anything a faulted member left behind onto the
// remaining members — subdivided, so stolen work is itself parallel — until
// the op completes, falling back to the host loop when no member remains.
//
// Accounting merges the per-device clocks into a measured parallel span:
// each wave contributes the maximum modelled-time delta across its
// participants to SimParallelTime. Rework waves additionally accrue
// RebalanceSim; a stolen shard pays for its migration through the H2D copy
// its rerun makes.
//
// Bit-exactness: shards are contiguous item ranges and a shard's descriptor
// writes only its own range, so any schedule — including mid-batch death and
// rework — yields the byte-identical result of the sequential op. Callers
// hold the flight and never issue an empty op.
func (c *CheckedEngine) serveOp(op vecOp) error {
	c.op = op
	defer func() { c.op = nil }()
	c.stats.Ops++
	c.elig = append(c.elig[:0], c.members...)
	c.pending = append(c.pending[:0], shard{hi: len(op.result())})

	for wave := 0; len(c.pending) > 0; wave++ {
		// Device health is the one exclusion rule: a member that failed a
		// shard retired its device, so it takes no part in the rework.
		kept := c.elig[:0]
		for _, mb := range c.elig {
			if mb.dev.Health() != gpu.DeviceFailed {
				kept = append(kept, mb)
			}
		}
		c.elig = kept
		if len(c.elig) == 0 {
			return c.runHost()
		}
		// Distribute the pending ranges: each splits across every eligible
		// member, so wave 0 is the even initial split and rework waves spread
		// a dead member's remainder instead of serializing it on one peer.
		// Piece j goes to eligible member j, so the wave's members are a
		// prefix of elig.
		busy := c.elig[:0]
		for _, rng := range c.pending {
			parts := min(len(c.elig), rng.len())
			busy = c.elig[:max(len(busy), parts)]
			for j := 0; j < parts; j++ {
				mb := c.elig[j]
				if len(mb.shards) == 0 {
					mb.base = mb.dev.Stats().SimTime()
				}
				mb.shards = append(mb.shards, rng.piece(parts, j))
				c.stats.Shards++
				if wave > 0 {
					c.stats.Steals++
				}
			}
		}
		c.pending = c.pending[:0]

		// One wave: per-device clocks advance independently.
		if len(busy) == 1 {
			c.walk(busy[0])
		} else {
			var wg sync.WaitGroup
			for _, mb := range busy {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.walk(mb)
				}()
			}
			wg.Wait()
		}

		// Merge the wave's clocks: parallel span is the slowest member's
		// delta, never the sum — an idle member charges nothing.
		var span time.Duration
		var fatal error
		for _, mb := range busy {
			span = max(span, mb.dev.Stats().SimTime()-mb.base)
			switch {
			case mb.err == nil:
			case !gpu.IsKernelError(mb.err):
				if fatal == nil {
					fatal = fmt.Errorf("ghe: sharded %s on %s: %w", op.name(), mb.label, mb.err)
				}
			default:
				c.pending = append(c.pending, mb.shards[mb.done:]...)
			}
			mb.shards = mb.shards[:0]
		}
		c.stats.SimParallelTime += span
		if wave > 0 {
			c.stats.RebalanceSim += span
		}
		if fatal != nil {
			return fatal
		}
	}
	return nil
}

// walk serves mb's queue for the current wave in order and stops at the first
// shard that fails: a typed *gpu.KernelError re-queues the rest, any other
// error aborts the op.
func (c *CheckedEngine) walk(mb *member) {
	for mb.done = 0; mb.done < len(mb.shards); mb.done++ {
		if mb.err = mb.serve(shardOf(c.op, mb.shards[mb.done]), &c.cfg, c.job); mb.err != nil {
			return
		}
	}
}

// runHost serves the pending ranges with the host loop — all of every op on a
// fleet of no member, else what is left after every member was excluded —
// charging the wall time to the executor's clock. It is the one place host
// wall time enters a modelled HE clock.
func (c *CheckedEngine) runHost() error {
	start := time.Now()
	for _, sh := range c.pending {
		if err := runOnHost(shardOf(c.op, sh)); err != nil {
			return fmt.Errorf("ghe: sharded %s host fallback: %w", c.op.name(), err)
		}
		c.stats.HostShards++
	}
	c.stats.HostSim += time.Since(start)
	return nil
}
