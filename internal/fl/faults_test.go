package fl

import (
	"errors"
	"testing"
	"time"

	"flbooster/internal/flnet"
	"flbooster/internal/mpint"
)

// TestSecureAggregateSurfacesTransportFailures injects failures at each
// protocol phase and verifies the round fails fast with a clear error
// instead of hanging or producing a corrupt aggregate.
func TestSecureAggregateSurfacesTransportFailures(t *testing.T) {
	grads := [][]float64{{0.1}, {0.2}, {0.3}, {0.4}}
	// Phases: 4 uploads, 4 server recvs, 4 broadcasts, 4 client recvs.
	for _, fault := range []struct {
		name string
		cfg  flnet.ChaosConfig
	}{
		{"upload-send", flnet.ChaosConfig{FailSendAt: 1}},
		{"server-recv", flnet.ChaosConfig{FailRecvAt: 2}},
		{"broadcast-send", flnet.ChaosConfig{FailSendAt: 6}},
		{"client-recv", flnet.ChaosConfig{FailRecvAt: 5}},
	} {
		fault := fault
		t.Run(fault.name, func(t *testing.T) {
			ctx, err := NewContext(testProfile(SystemFLBooster))
			if err != nil {
				t.Fatal(err)
			}
			fed := NewFederation(ctx)
			defer fed.Close()
			fed.Transport = flnet.NewChaosTransport(fed.Transport, fault.cfg)
			if _, err := fed.SecureAggregate(grads); err == nil {
				t.Fatal("injected fault did not surface")
			}
		})
	}
}

// TestSecureAggregateRecoversAfterTransientFault verifies a federation can
// run a clean round after a failed one (no stuck state in the context).
func TestSecureAggregateRecoversAfterTransientFault(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	grads := [][]float64{{0.1, 0.2}, {0.1, 0.2}, {0.1, 0.2}, {0.1, 0.2}}

	fed := NewFederation(ctx)
	fed.Transport = flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{FailSendAt: 1})
	if _, err := fed.SecureAggregate(grads); err == nil {
		t.Fatal("expected the first round to fail")
	}
	fed.Close()

	// A fresh federation over the same context must work.
	fed2 := NewFederation(ctx)
	defer fed2.Close()
	sum, err := fed2.SecureAggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	bound := 4 * ctx.Quant.MaxError()
	if d := sum[0] - 0.4; d > bound || d < -bound {
		t.Fatalf("recovered round produced %v, want 0.4", sum[0])
	}
}

// quorumProfile returns a test profile tolerating one straggler: quorum 3 of
// 4, a short phase deadline, and a couple of fast retries.
func quorumProfile(sys System) Profile {
	p := testProfile(sys)
	p.Round = RoundPolicy{
		Quorum:       3,
		PhaseTimeout: 200 * time.Millisecond,
		MaxRetries:   2,
	}
	return p
}

// TestQuorumRoundSurvivesDroppedUpload drops one client's upload entirely:
// the round must complete with K-1 contributions, report the dropped party,
// and return the scaled full-federation estimate.
func TestQuorumRoundSurvivesDroppedUpload(t *testing.T) {
	ctx, err := NewContext(quorumProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	fed.Transport = flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{DropFrom: ClientName(2), DropKind: "grads"})

	// Identical gradients so the scaled 3-of-4 estimate equals the true sum.
	grads := [][]float64{{0.1, -0.2}, {0.1, -0.2}, {0.1, -0.2}, {0.1, -0.2}}
	sum, rep, err := fed.SecureAggregateReport(grads)
	if err != nil {
		t.Fatalf("quorum round should survive one dropped upload: %v", err)
	}
	if len(rep.Included) != 3 {
		t.Fatalf("included = %v", rep.Included)
	}
	if phase, ok := rep.Dropped[ClientName(2)]; !ok || phase != PhaseGather {
		t.Fatalf("dropped = %v, want client2 lost in gather", rep.Dropped)
	}
	if rep.Scale < 1.32 || rep.Scale > 1.34 {
		t.Fatalf("scale = %v, want 4/3", rep.Scale)
	}
	bound := 4 * rep.Scale * ctx.Quant.MaxError()
	for i, want := range []float64{0.4, -0.8} {
		if d := sum[i] - want; d > bound || d < -bound {
			t.Fatalf("sum[%d] = %v, want %v ± %v", i, sum[i], want, bound)
		}
	}
}

// TestDuplicateBroadcastLeavesAggregateUnchanged duplicates every message:
// the gather phase must deduplicate uploads (a doubled contribution would
// double the sum) and the decrypt phase must discard repeat aggregates.
func TestDuplicateBroadcastLeavesAggregateUnchanged(t *testing.T) {
	ctx, err := NewContext(quorumProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	fed.Transport = flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{Seed: 5, DupProb: 1})

	grads := [][]float64{{0.1}, {0.1}, {0.1}, {0.1}}
	sum, rep, err := fed.SecureAggregateReport(grads)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duplicates == 0 {
		t.Fatal("duplicated uploads were not detected")
	}
	bound := 4 * ctx.Quant.MaxError()
	if d := sum[0] - 0.4; d > bound || d < -bound {
		t.Fatalf("duplicates corrupted the aggregate: %v, want 0.4", sum[0])
	}
	// A second round must also be clean: leftover duplicate aggregates from
	// round 1 are stale now and must be discarded, not decrypted.
	sum2, rep2, err := fed.SecureAggregateReport(grads)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Stale == 0 {
		t.Fatal("stale round-1 duplicates were not discarded in round 2")
	}
	if d := sum2[0] - 0.4; d > bound || d < -bound {
		t.Fatalf("round 2 aggregate corrupted by stale traffic: %v", sum2[0])
	}
}

// TestStaleRoundMessageDiscarded injects a reordered leftover from an old
// round directly into the server queue; the round ID must exclude it.
func TestStaleRoundMessageDiscarded(t *testing.T) {
	ctx, err := NewContext(quorumProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	h := ctx.NewHolder("arbiter")
	fed := NewFederation(ctx)
	defer fed.Close()

	// A forged "grads" message from a past round (Round 0 < current 1), with
	// a payload that would double client0's contribution if aggregated.
	cts, err := h.EncryptGradients([]float64{0.9})
	if err != nil {
		t.Fatal(err)
	}
	nats := make([]mpint.Nat, len(cts))
	for i, c := range cts {
		nats[i] = c.C
	}
	stale := flnet.Message{
		From: ClientName(0), To: ServerName, Kind: "grads", Round: 0,
		Payload: flnet.AppendNats(nil, nats),
	}
	if err := fed.Transport.Send(stale); err != nil {
		t.Fatal(err)
	}

	grads := [][]float64{{0.1}, {0.1}, {0.1}, {0.1}}
	sum, rep, err := fed.SecureAggregateReport(grads)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stale == 0 {
		t.Fatal("stale message was not counted as discarded")
	}
	bound := 4 * ctx.Quant.MaxError()
	if d := sum[0] - 0.4; d > bound || d < -bound {
		t.Fatalf("stale message leaked into the aggregate: %v, want 0.4", sum[0])
	}
}

// TestRoundErrorTyping verifies failures carry phase and party.
func TestRoundErrorTyping(t *testing.T) {
	p := testProfile(SystemFLBooster) // strict policy: no quorum slack
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	fed.Transport = flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{FailSendAt: 1})
	_, err = fed.SecureAggregate([][]float64{{0.1}, {0.2}, {0.3}, {0.4}})
	var rerr *RoundError
	if !errors.As(err, &rerr) {
		t.Fatalf("want *RoundError, got %T: %v", err, err)
	}
	if rerr.Phase != PhaseUpload || rerr.Party != ClientName(0) || rerr.Round != 1 {
		t.Fatalf("round error = %+v", rerr)
	}
	if rerr.Unwrap() == nil {
		t.Fatal("cause not preserved")
	}
}

// TestRetryPolicyAbsorbsTransientSendFailure: with retries configured, a
// one-shot injected send failure must not abort the round, and the rework
// must be charged to the communication cost model.
func TestRetryPolicyAbsorbsTransientSendFailure(t *testing.T) {
	ctx, err := NewContext(quorumProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	fed.Transport = flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{FailSendAt: 1})

	grads := [][]float64{{0.1}, {0.1}, {0.1}, {0.1}}
	sum, rep, err := fed.SecureAggregateReport(grads)
	if err != nil {
		t.Fatalf("retry should absorb the transient failure: %v", err)
	}
	if rep.Retries == 0 {
		t.Fatal("report did not count the retry")
	}
	if rep.Degraded() {
		t.Fatalf("no client should be dropped: %+v", rep)
	}
	if ctx.Costs.Snapshot().RetryMsgs == 0 {
		t.Fatal("retry traffic not charged to the cost model")
	}
	bound := 4 * ctx.Quant.MaxError()
	if d := sum[0] - 0.4; d > bound || d < -bound {
		t.Fatalf("sum = %v, want 0.4", sum[0])
	}
}

// failingUploads fails the first n upload sends of one client and records
// the wire size of the frame it refused.
type failingUploads struct {
	flnet.Transport
	from string
	n    int
	size int64
}

func (f *failingUploads) Send(msg flnet.Message) error {
	if msg.From == f.from && msg.Kind == "grads" && f.n > 0 {
		f.n--
		f.size = msg.WireSize()
		return errors.New("injected upload failure")
	}
	return f.Transport.Send(msg)
}

// TestRetryPolicyGivesUpWithinQuorum: a client whose upload fails on every
// one of its 1+MaxRetries attempts is dropped in the upload phase, inside the
// quorum budget, and each of the MaxRetries re-sends is charged as retry
// traffic through the link model — over the same round with no retry budget,
// which drops the client after its one attempt, the ledger grows by exactly
// MaxRetries frames, and the report counts them.
func TestRetryPolicyGivesUpWithinQuorum(t *testing.T) {
	run := func(retries int) (RoundReport, []float64, *Context, int64) {
		p := quorumProfile(SystemFLBooster)
		p.Round.MaxRetries = retries
		ctx, err := NewContext(p)
		if err != nil {
			t.Fatal(err)
		}
		fed := NewFederation(ctx)
		defer fed.Close()
		ft := &failingUploads{Transport: fed.Transport, from: ClientName(2), n: retries + 1}
		fed.Transport = ft
		grads := [][]float64{{0.1, -0.2}, {0.1, -0.2}, {0.1, -0.2}, {0.1, -0.2}}
		sum, rep, err := fed.SecureAggregateReport(grads)
		if err != nil {
			t.Fatalf("MaxRetries %d: a client that gives up must be dropped within the budget: %v", retries, err)
		}
		if phase, ok := rep.Dropped[ClientName(2)]; !ok || phase != PhaseUpload || len(rep.Included) != 3 {
			t.Fatalf("MaxRetries %d: dropped = %v, included = %v; want client2 lost in upload", retries, rep.Dropped, rep.Included)
		}
		return rep, sum, ctx, ft.size
	}
	_, _, clean, _ := run(0)
	const maxRetries = 2
	rep, sum, ctx, size := run(maxRetries)
	if rep.Retries != maxRetries {
		t.Fatalf("report counts %d retries, want %d", rep.Retries, maxRetries)
	}
	c, b := ctx.Costs.Snapshot(), clean.Costs.Snapshot()
	if got := c.RetryMsgs - b.RetryMsgs; got != maxRetries {
		t.Fatalf("ledger charged %d retries, want %d", got, maxRetries)
	}
	if got, want := c.CommBytes-b.CommBytes, maxRetries*size; got != want {
		t.Fatalf("retries added %d wire bytes, want %d × %d", got, maxRetries, size)
	}
	if got, want := c.CommSim-b.CommSim, maxRetries*ctx.Link.TransferTime(size); got != want {
		t.Fatalf("retries added %v of wire time, want %v", got, want)
	}
	bound := 4 * rep.Scale * ctx.Quant.MaxError()
	for i, want := range []float64{0.4, -0.8} {
		if d := sum[i] - want; d > bound || d < -bound {
			t.Fatalf("sum[%d] = %v, want the scaled 3-of-4 estimate %v ± %v", i, sum[i], want, bound)
		}
	}
}

// TestQuorumBelowThresholdFails drops two uploads when only one loss is
// budgeted: the round must fail with a typed gather error, within the
// deadline rather than hanging.
func TestQuorumBelowThresholdFails(t *testing.T) {
	p := quorumProfile(SystemFLBooster)
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	fed.Transport = flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{Seed: 1, DropProb: 1})

	start := time.Now()
	_, err = fed.SecureAggregate([][]float64{{0.1}, {0.1}, {0.1}, {0.1}})
	var rerr *RoundError
	if !errors.As(err, &rerr) || rerr.Phase != PhaseGather {
		t.Fatalf("want gather-phase RoundError, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("failure took %v; deadline not honoured", elapsed)
	}
}

// TestPassedDeadlineStillReadsTheQueue: in process a deadline is read off the
// queue, not the host's clock. With a 1 ns phase deadline every upload, and
// then the broadcast, is queued before its receiver looks and the deadline
// has long passed by then; every client must still be included, flat and
// streamed alike, with the aggregate of the same round without a deadline.
func TestPassedDeadlineStillReadsTheQueue(t *testing.T) {
	const parties = 9
	grads := testGrads(parties, 6)
	for _, fanout := range []int{0, 3} {
		run := func(timeout time.Duration) ([]float64, RoundReport) {
			p := NewProfile(SystemFATE, 128, parties)
			p.RBits = 14
			p.Cohort = CohortPolicy{Fanout: fanout}
			p.Round = RoundPolicy{Quorum: 1, PhaseTimeout: timeout}
			ctx, err := NewContext(p)
			if err != nil {
				t.Fatal(err)
			}
			fed := NewFederation(ctx)
			defer fed.Close()
			sum, rep, err := fed.SecureAggregateReport(grads)
			if err != nil {
				t.Fatalf("fanout %d, deadline %v: %v", fanout, timeout, err)
			}
			return sum, rep
		}
		sum, rep := run(time.Nanosecond)
		if len(rep.Included) != parties || len(rep.Dropped) != 0 {
			t.Fatalf("fanout %d: included %d, dropped %v; want all %d in", fanout, len(rep.Included), rep.Dropped, parties)
		}
		if want, _ := run(0); !sameBits(sum, want) {
			t.Fatalf("fanout %d: aggregate %v under a passed deadline, %v without one", fanout, sum, want)
		}
	}
}
