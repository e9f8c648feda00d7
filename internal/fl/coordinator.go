package fl

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"flbooster/internal/flnet"
	"flbooster/internal/obs"
)

// Coordinator is the server half of the Fig. 2 round. It knows its clients
// only as frames on a flnet.Transport: it gathers "grads" uploads, folding
// each into the round's AggTree as it arrives, seals the root into one
// aggregate frame, journals it and sends it back. It owns the fold, the drop
// budget and the typed RoundErrors, the stale / duplicate / not-scheduled
// discards, the journal records and their order, and the broadcast-boundary
// resume. What differs between the hosts that run it — the in-process
// Federation, cmd/flserver over TCP — arrives as an argument: which uploads to
// expect, who receives the broadcast, the drain signal.
//
// Across rounds it carries the durability state: the (optional) write-ahead
// journal and the resume position a crash recovery parked for the next
// round.
type Coordinator struct {
	// party is the coordinator's identity, ServerName: it folds and sends but
	// never decrypts, and the cursor it journals is its party's.
	party       *Party
	journal     *Journal
	round       uint64 // the most recently begun round
	nextAttempt uint32
	resume      *ResumePoint

	// Round scratch, sized by the first rounds and reused by every later
	// one: a round's bookkeeping grows nothing in the steady state.
	arrived []string        // lent to a Round's included until Aggregate or Finish
	waiting map[string]bool // Gather's wave yet to upload, or ownIncluded's arrivals
	reached []string        // what Broadcast returns, valid until the next round's
}

// ServerName is the coordinator's party name on every transport.
const ServerName = "server"

// ErrDrained is the cause of a round its coordinator abandoned below quorum
// because the host's drain signal fired during the gather. Finish journals
// it as EventDrained, not as a failure: a restarted coordinator re-runs the
// round from the top.
var ErrDrained = errors.New("fl: coordinator drained")

// drainPoll is how long a gather waits between looks at the drain signal.
const drainPoll = 20 * time.Millisecond

// NewCoordinator builds a coordinator on ctx with no journal, at round 0.
func NewCoordinator(ctx *Context) *Coordinator {
	return &Coordinator{party: ctx.NewParty(ServerName), waiting: make(map[string]bool)}
}

// AttachJournal wires a write-ahead journal in: every round transition is
// appended durably before the round acts on it. A nil journal detaches.
func (c *Coordinator) AttachJournal(j *Journal) { c.journal = j }

// Journal returns the attached journal (nil when durability is off).
func (c *Coordinator) Journal() *Journal { return c.journal }

// journalAppend appends rec durably; a no-op without an attached journal.
// The returned error is fatal to the round — a transition that cannot be
// made durable must not be acted on.
func (c *Coordinator) journalAppend(rec JournalRecord) error {
	if c.journal == nil {
		return nil
	}
	if err := c.journal.Append(rec); err != nil {
		return err
	}
	c.party.ctx.metricAdd("journal_records", 1)
	c.party.ctx.metricMax("journal_round", int64(rec.Round))
	return nil
}

// Round is one round at the coordinator: begin → gather until every expected
// upload is in, the deadline passes or a drain arrives → aggregate (seal and
// journal) → broadcast → finish.
type Round struct {
	c       *Coordinator
	sched   Schedule
	quorum  int
	attempt uint32 // execution count across coordinator restarts

	tr       flnet.Transport // the host's; sends go through Context.deliver
	retries0 int64           // the ledger's RetryMsgs when the round began

	included    []string              // clients folded into tree, canonical order once gathered
	borrowed    bool                  // included is the coordinator's arrival scratch
	dropped     map[string]RoundPhase // dropped client -> losing phase
	stale, dups int
	drained     bool // the drain signal cut a gather short

	tree      *AggTree   // every delivered upload is folded into it on arrival
	treeStats *TreeStats // a tree round's hierarchy anatomy
	peakLive  int64      // the tree's high-water count of live ciphertexts

	frame   []byte // K ‖ sealed payload, built once and shared by every recipient
	digest  uint64
	resumed bool // round replayed a journaled aggregate

	phaseRecorder
}

// Begin opens round sched.Round over tr. It consumes a parked recovery
// position, cross-checks the cohort against the journaled one, and makes the
// round-start record durable before anyone encrypts: its cursor is the
// position a recovered coordinator rewinds to when it must re-run this round
// from scratch. A nil Round means nothing was journaled; a Round with an
// error is a round that cannot run (no quorum among the scheduled, an invalid
// fan-out, a journaled aggregate that fails its digest) and goes straight to
// Finish.
func (c *Coordinator) Begin(sched Schedule, tr flnet.Transport) (*Round, error) {
	ctx := c.party.ctx
	c.round = sched.Round
	attempt, resume := max(c.nextAttempt, 1), c.resume
	c.nextAttempt, c.resume = 0, nil
	if resume != nil && resume.Round != sched.Round {
		resume = nil
	}
	// The sample is a pure function of (roster, seed, round), and the roster
	// itself is journaled, so a crash-recovered re-run draws the identical
	// cohort — cross-checked against the journaled one here.
	var sampled []string
	if sched.Sampled() {
		sampled = sched.Cohort
		ctx.metricAdd("cohorts_sampled", 1)
	}
	if resume != nil && resume.Cohort != nil && !slices.Equal(resume.Cohort, sched.Cohort) {
		return nil, fmt.Errorf(
			"fl: recovered round %d resamples a different cohort (journal has %d members, got %d)",
			sched.Round, len(resume.Cohort), len(sched.Cohort))
	}
	if err := c.journalAppend(JournalRecord{
		Kind: EventRoundStart, Round: sched.Round, Attempt: attempt,
		Cursor: c.party.Cursor(), Members: sched.Roster, Cohort: sampled,
	}); err != nil {
		return nil, err
	}

	policy := ctx.Profile.Round
	tree, treeErr := ctx.NewAggTree(ctx.Profile.Cohort.Fanout)
	rd := &Round{
		c:             c,
		sched:         sched,
		quorum:        policy.EffectiveQuorum(len(sched.Cohort)),
		attempt:       attempt,
		tr:            tr,
		retries0:      ctx.Costs.Snapshot().RetryMsgs,
		dropped:       make(map[string]RoundPhase),
		included:      c.arrived[:0],
		borrowed:      true,
		tree:          tree,
		phaseRecorder: phaseRecorder{ctx: ctx, anat: &RoundAnatomy{Round: sched.Round}},
	}
	switch {
	case treeErr != nil:
		return rd, rd.Fail(PhaseAdmit, "", treeErr)
	case len(sched.Cohort) == 0:
		return rd, rd.Fail(PhaseAdmit, "", fmt.Errorf("no active clients"))
	case policy.Quorum > 0 && len(sched.Cohort) < policy.Quorum:
		return rd, rd.Fail(PhaseAdmit, "", fmt.Errorf(
			"%d active clients below quorum %d", len(sched.Cohort), policy.Quorum))
	case resume != nil && resume.Phase == PhaseBroadcast:
		// The crashed attempt already gathered and aggregated: verify the
		// journaled payload against its digest and resume at the broadcast
		// boundary. K is not journaled — it is the member count.
		if PayloadDigest(resume.Payload) != resume.Digest {
			return rd, rd.Fail(PhaseBroadcast, "", fmt.Errorf("journaled aggregate fails its digest"))
		}
		rd.included, rd.borrowed = append([]string(nil), resume.Included...), false
		rd.frame = append(newAggFrame(len(resume.Included), len(resume.Payload)), resume.Payload...)
		rd.digest = resume.Digest
		rd.resumed = true
		ctx.metricAdd("rounds_resumed", 1)
	}
	return rd, nil
}

// Schedule is what the round's parties agreed on without a message.
func (rd *Round) Schedule() Schedule { return rd.sched }

// Resumed reports whether Begin rehydrated a journaled aggregate: the round
// skips the gather and goes straight to Broadcast.
func (rd *Round) Resumed() bool { return rd.resumed }

// Included lists the clients whose uploads the aggregate holds — canonical
// order once Aggregate ran. The one party that knows it is the coordinator;
// a host that also decrypts feeds it to Client.Open's K cross-check.
func (rd *Round) Included() []string { return rd.included }

// Frame is the aggregate frame the round broadcasts: K ‖ sealed payload.
func (rd *Round) Frame() []byte { return rd.frame }

// Observe folds the stale frames the host's clients discarded on their side
// of the wire into the round's report.
func (rd *Round) Observe(stale int) { rd.stale += stale }

// Report describes how the round went so far.
func (rd *Round) Report() RoundReport {
	rep := RoundReport{
		Round:       rd.sched.Round,
		Included:    rd.included,
		Dropped:     rd.dropped,
		Stale:       rd.stale,
		Duplicates:  rd.dups,
		Scale:       1,
		Attempt:     rd.attempt,
		Resumed:     rd.resumed,
		CohortSize:  len(rd.sched.Cohort),
		PeakLiveCts: rd.peakLive,
		Tree:        rd.treeStats,
		Anatomy:     rd.anat,
		Retries:     rd.c.party.ctx.Costs.Snapshot().RetryMsgs - rd.retries0,
	}
	if n := len(rd.included); n > 0 {
		rep.Scale = float64(rd.c.party.ctx.Profile.Parties) / float64(n)
	}
	return rep
}

// Drop records a lost client and enforces the quorum budget: once more than
// cohort-quorum clients are gone, the round fails with a typed error naming
// the phase and party that exhausted the budget.
func (rd *Round) Drop(phase RoundPhase, party string, cause error) *RoundError {
	if _, ok := rd.dropped[party]; !ok {
		rd.dropped[party] = phase
	}
	if len(rd.dropped) > len(rd.sched.Cohort)-rd.quorum {
		return rd.Fail(phase, party, cause)
	}
	return nil
}

// Fail builds the round's typed error for a failure outside the budget.
func (rd *Round) Fail(phase RoundPhase, party string, cause error) *RoundError {
	return &RoundError{Round: rd.sched.Round, Phase: phase, Party: party, Err: cause}
}

// phaseDeadline starts a deadline clock for one phase (zero: no deadline).
func (rp RoundPolicy) phaseDeadline() time.Time {
	if rp.PhaseTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(rp.PhaseTimeout)
}

// recvBy performs one transport receive honouring a phase deadline. A
// deadline already passed is still a receive (d < 0): the transport decides
// whether a frame has arrived, so a frame queued in process counts however
// slow the host was to get to it.
func recvBy(tr flnet.Transport, party string, deadline time.Time) (flnet.Message, error) {
	if deadline.IsZero() {
		return tr.Recv(party)
	}
	d := time.Until(deadline)
	if d == 0 {
		d = -1 // passed, not "no deadline"
	}
	return tr.RecvTimeout(party, d)
}

// recv is the gather's one wait: the next frame, the deadline, or — looked at
// every drainPoll when the host passed one — the drain signal. A drain takes
// effect once the queue has been idle for one poll, so what had already
// arrived still counts toward the quorum.
func (rd *Round) recv(deadline time.Time, stop <-chan struct{}) (flnet.Message, error) {
	for {
		draining := false
		select {
		case <-stop:
			draining = true
		default:
		}
		until, final := deadline, true
		if poll := time.Now().Add(drainPoll); stop != nil && (deadline.IsZero() || poll.Before(deadline)) {
			until, final = poll, false
		}
		msg, err := recvBy(rd.tr, rd.c.party.Name, until)
		if final || !flnet.IsTimeout(err) {
			return msg, err
		}
		if draining {
			return flnet.Message{}, ErrDrained
		}
	}
}

// Gather waits for the uploads the host says to expect — the wave's clients
// whose send succeeded in-process, the whole cohort over TCP; a cohort member
// is expected in one Gather a round, anyone else in none — folding each batch
// into the round's tree the moment it arrives, in arrival order: HE addition
// is commutative and the backend deterministic, so the root is byte-identical
// whatever the order. Frames of other rounds or kinds are stale artifacts of
// stragglers and are discarded, as are duplicates and uploads from anyone not
// expected, by header: their payloads are never read. An expected upload's
// frame goes back to the arena once decoded, whether it decodes or not
// (wireArena has the ownership rule). An upload that does not decode drops its
// sender, not the round. A deadline that expires, or a drain signal on stop,
// cuts the stragglers off; the round then fails only through the drop budget
// or, in Aggregate, the quorum. An in-process host passes a nil stop: on a
// SimTransport its deadline is an empty queue.
func (rd *Round) Gather(expect []string, stop <-chan struct{}) error {
	deadline := rd.c.party.ctx.Profile.Round.phaseDeadline()
	waiting := rd.c.waiting
	clear(waiting)
	for _, name := range expect {
		waiting[name] = true
	}
	for len(waiting) > 0 {
		msg, err := rd.recv(deadline, stop)
		if err != nil {
			drained := errors.Is(err, ErrDrained)
			if !flnet.IsTimeout(err) && !drained {
				return rd.Fail(PhaseGather, "", err)
			}
			rd.drained = rd.drained || drained
			// Every still-waiting member of the wave is late: dropped, within
			// the budget. The cohort-wide quorum is judged in Aggregate.
			for _, name := range expect {
				if !waiting[name] {
					continue
				}
				if rerr := rd.Drop(PhaseGather, name, fmt.Errorf("upload missed the wave cutoff: %w", err)); rerr != nil {
					return rerr
				}
			}
			return nil
		}
		switch {
		case msg.Round != rd.sched.Round || msg.Kind != "grads":
			rd.stale++
			continue
		case !waiting[msg.From]:
			rd.dups++
			continue
		}
		delete(waiting, msg.From)
		cts, err := rd.c.party.ctx.DecodeCiphertexts(msg.Payload)
		releaseFrame(msg.Payload) // read: the next upload is framed into it
		if err != nil {
			if rerr := rd.Drop(PhaseGather, msg.From, fmt.Errorf("server decode: %w", err)); rerr != nil {
				return rerr
			}
			continue
		}
		err = rd.tree.Add(cts)
		ReleaseCiphertexts(cts) // the tree copied or summed it
		if err != nil {
			return rd.Fail(PhaseGather, msg.From, err)
		}
		// Folded in arrival order; Aggregate restores the canonical one.
		rd.included = append(rd.included, msg.From)
	}
	return nil
}

// Aggregate judges the quorum over the whole cohort, seals the tree's root
// into the aggregate frame and journals the payload — the mid-round safe
// point. Once the aggregated record is durable, a coordinator crash no longer
// costs the gathered uploads: recovery resumes at the broadcast boundary with
// this payload.
func (rd *Round) Aggregate() error {
	// Uploads were folded in arrival order, but the journal and the report
	// speak canonical order.
	rd.ownIncluded(true)
	if len(rd.included) < rd.quorum {
		cause := fmt.Errorf("%d/%d uploads below quorum %d", len(rd.included), len(rd.sched.Cohort), rd.quorum)
		if rd.drained {
			cause = fmt.Errorf("%w: %v", ErrDrained, cause)
		}
		return rd.Fail(PhaseGather, "", cause)
	}
	return rd.Span("aggregate", func() error {
		ctx := rd.c.party.ctx
		root, err := rd.tree.Root()
		if err != nil {
			return rd.Fail(PhaseGather, "", err)
		}
		rd.frame = ctx.sealAggregate(len(rd.included), root)
		stats := rd.tree.Stats()
		rd.peakLive = stats.PeakLiveCts
		ctx.metricMax("live_cts_peak", rd.peakLive)
		if ctx.Profile.Cohort.Tree() {
			rd.finishTree(stats)
		}
		rd.digest = PayloadDigest(framePayload(rd.frame))
		return rd.c.journalAppend(JournalRecord{
			Kind: EventAggregated, Round: rd.sched.Round, Attempt: rd.attempt,
			Cursor: rd.c.party.Cursor(), Members: rd.included,
			Digest: rd.digest, Payload: framePayload(rd.frame),
		})
	})
}

// ownIncluded ends the round's loan of the coordinator's arrival scratch and
// leaves included a slice of the round's own. In canonical order it is the
// cohort itself when every member arrived — the cohort is never written — and
// otherwise the arrivals picked out of the cohort in its order; not in
// canonical order it is a copy in arrival order.
func (rd *Round) ownIncluded(canonical bool) {
	if !rd.borrowed {
		return
	}
	arrived, cohort := rd.included, rd.sched.Cohort
	rd.c.arrived, rd.borrowed = arrived[:0], false
	switch {
	case !canonical:
		rd.included = append([]string{}, arrived...)
	case len(arrived) == len(cohort):
		rd.included = cohort
	default:
		in := rd.c.waiting
		clear(in)
		for _, name := range arrived {
			in[name] = true
		}
		rd.included = make([]string, 0, len(arrived))
		for _, name := range cohort {
			if in[name] {
				rd.included = append(rd.included, name)
			}
		}
		clear(in)
	}
}

// finishTree publishes a tree round's hierarchy statistics: the report
// field, the gauges, and the tree's per-level HE time as stacked spans ending
// at the current sim-cost clock, so traces show where the hierarchy spent its
// fold time level by level.
func (rd *Round) finishTree(stats TreeStats) {
	ctx := rd.c.party.ctx
	rd.treeStats = &stats
	ctx.metricAdd("tree_folds", stats.Folds)
	ctx.metricMax("tree_depth", int64(stats.Depth))
	rec := ctx.Obs.Recorder()
	if rec == nil {
		return
	}
	var total time.Duration
	for _, ns := range stats.LevelSimNs {
		total += time.Duration(ns)
	}
	start := ctx.SimCost() - total
	for l, ns := range stats.LevelSimNs {
		d := time.Duration(ns)
		rec.Record(obs.Span{
			Phase: fmt.Sprintf("round%d.tree.level%d", rd.sched.Round, l),
			Party: ctx.obsPrefix + ".fl",
			Lane:  "fl.tree",
			Start: start,
			Dur:   d,
		})
		start += d
	}
}

// Broadcast returns the aggregate frame to the recipients the host names —
// the included clients in-process, every registered client over TCP so that
// stragglers and unscheduled processes still terminate — under
// AggregateKind. It reports whom the frame reached, in the coordinator's
// scratch: valid until its next round broadcasts. A failed send drops the
// recipient within the budget.
func (rd *Round) Broadcast(recipients []string) ([]string, error) {
	reached := rd.c.reached[:0]
	err := rd.Span("broadcast", func() error {
		for _, name := range recipients {
			msg := flnet.Message{From: rd.c.party.Name, To: name, Kind: AggregateKind, Round: rd.sched.Round, Payload: rd.frame}
			if err := rd.c.party.ctx.deliver(rd.tr, msg); err != nil {
				if rerr := rd.Drop(PhaseBroadcast, name, err); rerr != nil {
					return rerr
				}
				continue
			}
			reached = append(reached, name)
		}
		if len(reached) == 0 {
			return rd.Fail(PhaseBroadcast, "", fmt.Errorf("aggregate reached no client"))
		}
		return nil
	})
	rd.c.reached = reached
	return reached, err
}

// Serve is the coordinator's whole round for a host with nothing to
// interleave: one wave of the whole cohort, then the broadcast.
func (rd *Round) Serve(recipients []string, stop <-chan struct{}) error {
	if !rd.resumed {
		if err := rd.Span("gather", func() error { return rd.Gather(rd.sched.Cohort, stop) }); err != nil {
			return err
		}
		if err := rd.Aggregate(); err != nil {
			return err
		}
	}
	_, err := rd.Broadcast(recipients)
	return err
}

// Finish closes the round in the journal with the outcome the host reached —
// the coordinator's own error, or one from the host's side of the round —
// and hands that outcome back (or the journal's error, if the record could
// not be made durable), publishing the round's counters for it. A simulated
// coordinator crash means the process died at a durable boundary: nothing
// after that boundary, a round-failed record included, can have been
// written.
func (rd *Round) Finish(err error) error {
	rd.ownIncluded(false)
	err = rd.journalOutcome(err)
	rd.publish(err)
	return err
}

// journalOutcome is Finish's journal record; see Finish.
func (rd *Round) journalOutcome(err error) error {
	rec := JournalRecord{Round: rd.sched.Round, Attempt: rd.attempt, Cursor: rd.c.party.Cursor()}
	var re *RoundError
	switch {
	case err == nil:
		rec.Kind, rec.Members, rec.Digest = EventRoundDone, rd.included, rd.digest
	case errors.Is(err, ErrCoordinatorCrash):
		return err
	case errors.Is(err, ErrDrained):
		rec.Kind, rec.Phase, rec.Reason = EventDrained, PhaseGather, "drained below quorum"
	default:
		rec.Kind, rec.Reason = EventRoundFailed, err.Error()
		if errors.As(err, &re) {
			rec.Phase, rec.Party = re.Phase, re.Party
		}
	}
	if jerr := rd.c.journalAppend(rec); jerr != nil {
		return jerr
	}
	return err
}

// publish adds one finished round to the context's protocol counters under
// "fl.<label>.": the round and its failure, the drop / stale / duplicate
// tallies and the quorum scale. Every host that runs a Coordinator reports the
// same counters.
func (rd *Round) publish(err error) {
	ctx := rd.c.party.ctx
	if ctx.Obs == nil {
		return
	}
	rep := rd.Report()
	ctx.metricAdd("rounds", 1)
	if err != nil {
		ctx.metricAdd("round_failures", 1)
	}
	ctx.metricAdd("round_drops", int64(len(rep.Dropped)))
	ctx.metricAdd("round_stale", int64(rep.Stale))
	ctx.metricAdd("round_dups", int64(rep.Duplicates))
	ctx.Obs.Metrics().SetGauge("fl."+ctx.obsPrefix+".round_scale", rep.Scale)
}
