package fl

import (
	"testing"
	"time"

	"flbooster/internal/flnet"
)

// TestRoundAnatomyDeterministic pins the anatomy's contract: two same-seed
// rounds render byte-identical tables, and the phase rows sum to the round's
// whole-run cost delta — the same reconciliation discipline ReconcileObs
// enforces for the metrics mirror.
func TestRoundAnatomyDeterministic(t *testing.T) {
	const dim = 24
	grads := testGrads(4, dim)
	run := func() (string, PhaseCost, PhaseCost) {
		p := testProfile(SystemHAFLO)
		p.Chunk = 4
		p.Observe = true
		ctx, err := NewContext(p)
		if err != nil {
			t.Fatal(err)
		}
		fed := NewFederation(ctx)
		defer fed.Close()
		before := ctx.Costs.Snapshot()
		_, rep, err := fed.SecureAggregateReport(grads)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Anatomy == nil || len(rep.Anatomy.Phases) == 0 {
			t.Fatalf("round report carries no anatomy: %+v", rep)
		}
		if err := ctx.ReconcileObs(); err != nil {
			t.Fatal(err)
		}
		whole := phaseDelta(before, ctx.Costs.Snapshot())
		return rep.Anatomy.Table(), rep.Anatomy.Total(), whole
	}

	tab1, total, whole := run()
	tab2, _, _ := run()
	if tab1 != tab2 {
		t.Fatalf("same-seed anatomy tables differ:\n%s\nvs\n%s", tab1, tab2)
	}
	whole.Phase = total.Phase
	if total != whole {
		t.Fatalf("phase rows sum to %+v, whole-round delta is %+v", total, whole)
	}
	if total.HESimNs == 0 || total.CommSimNs == 0 || total.EncodeSimNs == 0 || total.PipeNs == 0 {
		t.Fatalf("anatomy missing a cost component: %+v", total)
	}
}

// TestRoundAnatomyNestedCombine: a defended round's decrypt phase nests a
// combine phase; the child row must precede its parent and the parent row
// must not double-count the child's cost.
func TestRoundAnatomyNestedCombine(t *testing.T) {
	p := testProfile(SystemHAFLO)
	p.Defense = DefensePolicy{Groups: 2, Combiner: CombineFedAvg}
	_, _, rep := runRound(t, p, testGrads(4, 8), 1)
	idx := map[string]int{}
	for i, ph := range rep.Anatomy.Phases {
		idx[ph.Phase] = i
	}
	ci, ok1 := idx["combine"]
	di, ok2 := idx["decrypt"]
	if !ok1 || !ok2 || ci > di {
		t.Fatalf("combine/decrypt rows missing or misordered: %+v", rep.Anatomy.Phases)
	}
	// The rows sum to the round total; with double-counting the sum would
	// exceed the whole-round HE time.
	var heSum int64
	for _, ph := range rep.Anatomy.Phases {
		heSum += ph.HESimNs
	}
	if heSum != rep.Anatomy.Total().HESimNs {
		t.Fatalf("per-phase HE sums to %d, total row says %d", heSum, rep.Anatomy.Total().HESimNs)
	}
}

// TestSharesDenominator pins both Shares variants: sequential runs divide by
// TotalSim, streamed runs (PipeChunks > 0) by TotalSimOverlapped so the
// fractions sum against the headline those runs report.
func TestSharesDenominator(t *testing.T) {
	seq := &Costs{}
	seq.AddHE(0, 100, 1, 1)
	seq.AddComm(300, 10)
	seq.AddOther(60)
	seq.AddEncode(0, 40, 4)
	s := seq.Snapshot()
	if got, want := s.TotalSim(), 500*time.Nanosecond; got != want {
		t.Fatalf("TotalSim = %v, want %v", got, want)
	}
	other, he, comm := s.Shares()
	if other != 0.2 || he != 0.2 || comm != 0.6 {
		t.Fatalf("sequential shares = %v/%v/%v, want 0.2/0.2/0.6", other, he, comm)
	}

	// The same run streamed: 200ns of the sequential cost ran as pipeline
	// chunks whose critical path measured 100ns, so the denominator drops to
	// 400ns and the fractions sum above 1 — the overlap hides sequential cost.
	ov := &Costs{}
	ov.AddHE(0, 100, 1, 1)
	ov.AddComm(300, 10)
	ov.AddOther(60)
	ov.AddEncode(0, 40, 4)
	ov.AddPipeline(200, 100, 2)
	s = ov.Snapshot()
	if got, want := s.TotalSimOverlapped(), 400*time.Nanosecond; got != want {
		t.Fatalf("TotalSimOverlapped = %v, want %v", got, want)
	}
	other, he, comm = s.Shares()
	if other != 0.25 || he != 0.25 || comm != 0.75 {
		t.Fatalf("overlapped shares = %v/%v/%v, want 0.25/0.25/0.75", other, he, comm)
	}
}

// TestTotalSimOverlappedClamp: a snapshot whose sequential pipeline charge
// exceeds its total (a client dropped mid-pipeline keeps its sequential
// charge with no overlap credit) clamps at zero instead of going negative.
func TestTotalSimOverlappedClamp(t *testing.T) {
	s := CostSnapshot{HESim: 100, PipeSeqSim: 500, PipeSim: 10}
	if got := s.TotalSimOverlapped(); got != 0 {
		t.Fatalf("TotalSimOverlapped = %v, want clamp at 0", got)
	}
	s = CostSnapshot{HESim: 600, PipeSeqSim: 500, PipeSim: 10}
	if got := s.TotalSimOverlapped(); got != 110 {
		t.Fatalf("TotalSimOverlapped = %v, want 110", got)
	}
}

// TestDropMidPipelineOverlappedSane sweeps an injected send failure across
// the round's send sequence so some runs lose a client mid-chunked-upload.
// Every completed round must keep the overlapped total inside [0, TotalSim]
// — the dropped client's sequential charges stay, only completed uploads
// earn overlap credit — and must end with no live reassembler: the chunks a
// client got onto the wire before its send failed belong to no wave and may
// not be buffered past the round.
func TestDropMidPipelineOverlappedSane(t *testing.T) {
	const dim = 8
	grads := testGrads(4, dim)
	degraded := 0
	for failAt := int64(1); failAt <= 20; failAt++ {
		p := testProfile(SystemHAFLO)
		p.Chunk = 2
		p.Round = RoundPolicy{Quorum: 3, PhaseTimeout: 200 * time.Millisecond}
		ctx, err := NewContext(p)
		if err != nil {
			t.Fatal(err)
		}
		fed := NewFederation(ctx)
		faulty := flnet.NewFaultyTransport(fed.Transport)
		faulty.FailSendAt = failAt
		fed.Transport = faulty
		// Drive the round state directly (SecureAggregateReport minus the
		// journal) so its buffers can be inspected once the round is over.
		fed.round++
		st := newRoundState(fed, p.Round, dim, fed.roster.Active(), 1, nil)
		_, err = st.run(grads)
		fed.Close()
		if err != nil {
			continue // below quorum or server-side failure: typed and fine
		}
		if st.report().Degraded() {
			degraded++
		}
		cs := ctx.Costs.Snapshot()
		if ov := cs.TotalSimOverlapped(); ov < 0 || ov > cs.TotalSim() {
			t.Fatalf("failAt=%d: overlapped total %v outside [0, %v]", failAt, ov, cs.TotalSim())
		}
		if len(st.pending) != 0 || st.reasmBytes != 0 {
			t.Fatalf("failAt=%d: round ended with %d live reassemblers holding %d bytes",
				failAt, len(st.pending), st.reasmBytes)
		}
	}
	if degraded == 0 {
		t.Fatal("no injected failure produced a degraded completed round")
	}
}
