package fl

import (
	"fmt"
	"time"
)

// RoundPhase names one stage of the secure-aggregation state machine — the
// label a RoundError carries so operators see where a round died.
type RoundPhase string

// The four phases of the Fig. 2 round, in execution order.
const (
	// PhaseUpload: clients encrypt local gradients and send them.
	PhaseUpload RoundPhase = "upload"
	// PhaseGather: the server collects uploads until quorum or deadline.
	PhaseGather RoundPhase = "gather"
	// PhaseBroadcast: the server returns the homomorphic aggregate.
	PhaseBroadcast RoundPhase = "broadcast"
	// PhaseDecrypt: clients receive and decrypt the aggregate.
	PhaseDecrypt RoundPhase = "decrypt"
	// PhaseAdmit: the pre-round boundary where departed clients are checked
	// against quorum and rejoining clients are admitted. A round that cannot
	// start (active roster below quorum) fails here.
	PhaseAdmit RoundPhase = "admit"
)

// RoundError is the typed failure of a federation round: which round, which
// phase, and — when one party is at fault — which party.
type RoundError struct {
	Round uint64
	Phase RoundPhase
	Party string
	Err   error
}

// Error implements error.
func (e *RoundError) Error() string {
	if e.Party != "" {
		return fmt.Sprintf("fl: round %d failed in %s phase (party %s): %v", e.Round, e.Phase, e.Party, e.Err)
	}
	return fmt.Sprintf("fl: round %d failed in %s phase: %v", e.Round, e.Phase, e.Err)
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e *RoundError) Unwrap() error { return e.Err }

// RoundPolicy governs how a federation round degrades under faults. The
// zero value is the strict protocol: every party must respond, no deadline,
// no retransmission — exactly the pre-policy behaviour.
type RoundPolicy struct {
	// Quorum is the minimum number of client contributions a round needs;
	// 0 (or Parties) means all clients are required. With Quorum K < N the
	// server proceeds once K uploads arrive and the deadline expires, and
	// the aggregate is scaled by Parties / len(Included) to stay an unbiased
	// estimate.
	Quorum int
	// PhaseTimeout bounds each phase's blocking receives; 0 disables
	// deadlines. Tolerating *silent* drops (as opposed to failed sends,
	// which the sender observes) requires a positive PhaseTimeout.
	PhaseTimeout time.Duration
	// MaxRetries re-sends a failed send at once, up to this many times,
	// before dropping the party; each retry is charged as wire traffic.
	MaxRetries int
}

// EffectiveQuorum resolves the policy's quorum for a party count.
func (rp RoundPolicy) EffectiveQuorum(parties int) int {
	if rp.Quorum <= 0 || rp.Quorum > parties {
		return parties
	}
	return rp.Quorum
}

// Validate reports configuration errors for a federation of `parties`.
func (rp RoundPolicy) Validate(parties int) error {
	switch {
	case rp.Quorum < 0:
		return fmt.Errorf("fl: negative quorum %d", rp.Quorum)
	case rp.Quorum > parties:
		return fmt.Errorf("fl: quorum %d exceeds %d parties", rp.Quorum, parties)
	case rp.PhaseTimeout < 0:
		return fmt.Errorf("fl: negative phase timeout %v", rp.PhaseTimeout)
	case rp.MaxRetries < 0:
		return fmt.Errorf("fl: negative retry count %d", rp.MaxRetries)
	}
	return nil
}

// RoundReport describes how a round actually went: who contributed, who was
// dropped (and in which phase), how much retransmission it took, and the
// scale factor applied to keep a quorum aggregate unbiased.
type RoundReport struct {
	// Round is the state machine's monotonically increasing round ID.
	Round uint64
	// Included lists clients whose gradients made it into the aggregate.
	Included []string
	// Dropped maps a dropped client to the phase that lost it. A client
	// dropped in upload or gather is never in Included; one dropped in
	// broadcast or decrypt had its upload folded and stays in it.
	Dropped map[string]RoundPhase
	// Retries counts send re-attempts across all phases: the ledger's
	// RetryMsgs grew by exactly this much since Begin.
	Retries int64
	// Stale counts discarded messages from earlier rounds.
	Stale int
	// Duplicates counts discarded repeat messages within this round.
	Duplicates int
	// Scale is parties/len(Included) — 1 for a full round.
	Scale float64
	// Attempt counts executions of this round across coordinator restarts
	// (1 = first run, 2 = first re-run after a crash, ...).
	Attempt uint32
	// Resumed is true when the round skipped straight to broadcast by
	// replaying a journaled aggregate instead of re-gathering uploads.
	Resumed bool
	// Admitted lists clients re-admitted at this round's boundary after a
	// departure.
	Admitted []string
	// CohortSize is how many clients the round scheduled: the sampled cohort
	// size, or the full active roster when sampling is off.
	CohortSize int
	// PeakLiveCts is the round tree's high-water count of simultaneously
	// live ciphertexts (TreeStats.PeakLiveCts): 2·width for a flat round —
	// the running sum and the upload being folded — and at most
	// (depth+1)·width for a hierarchical one.
	PeakLiveCts int64
	// Tree describes the hierarchical aggregation of a tree round. Nil for
	// flat rounds.
	Tree *TreeStats
	// Anatomy is the round's per-phase cost table: deterministic sim-time
	// per protocol phase, split by cost component.
	Anatomy *RoundAnatomy
}

// Degraded reports whether the round completed without all parties.
func (r RoundReport) Degraded() bool { return len(r.Dropped) > 0 }
