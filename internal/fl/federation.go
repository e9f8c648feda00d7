package fl

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"flbooster/internal/flnet"
	"flbooster/internal/obs"
	"flbooster/internal/paillier"
)

// Federation wires a Context to a transport and executes the SGD secure-
// aggregation round of Fig. 2 as a fault-tolerant state machine: clients
// encrypt local gradients and upload ciphertexts, the server aggregates
// homomorphically once the context's RoundPolicy quorum is met, and clients
// decrypt the (possibly scaled) aggregate. Every message carries the round's
// monotonically increasing ID; stale or duplicate messages from earlier
// rounds are discarded, never aggregated. Party names are "client<i>" and
// "server".
type Federation struct {
	Ctx       *Context
	Transport flnet.Transport
	parties   []string

	round      uint64
	lastReport RoundReport
	adversary  *Adversary // nil unless Profile.Byz arms the injector
	// clientKey is the handle clients encrypt their uploads under. Every
	// client holds the private key in the Fig. 2 layout, so it is the
	// holder's (Key.Holder()); tests point it at the bare public key to hold
	// the two bit-identical.
	clientKey *paillier.PublicKey

	// Durability and churn state: the (optional) write-ahead journal, the
	// epoch this coordinator serves, the live-client roster, and the resume
	// position a crash recovery parked for the next round.
	epoch       uint64
	journal     *Journal
	roster      *Roster
	nextAttempt uint32
	resume      *ResumePoint
}

// ClientName returns the canonical name of client i.
func ClientName(i int) string { return fmt.Sprintf("client%d", i) }

// ServerName is the canonical aggregation-server party name.
const ServerName = "server"

// NewFederation builds a federation over the context's party count with an
// in-process transport on the context's link model.
func NewFederation(ctx *Context) *Federation {
	names := make([]string, 0, ctx.Profile.Parties+1)
	for i := 0; i < ctx.Profile.Parties; i++ {
		names = append(names, ClientName(i))
	}
	names = append(names, ServerName)
	// Profile.Validate (run by NewContext) already vetted the adversary
	// config, so construction cannot fail here; a disabled config yields the
	// nil (honest) injector.
	adv, _ := NewAdversary(ctx.Profile.Byz, ctx.Profile.Parties)
	return &Federation{
		Ctx:       ctx,
		Transport: flnet.NewSimTransport(ctx.Link, names...),
		parties:   names,
		roster:    NewRoster(names[:len(names)-1]),
		adversary: adv,
		clientKey: ctx.Key.Holder(),
	}
}

// Adversary returns the armed Byzantine injector (nil when the federation is
// all-honest). Harnesses use it to rotate the attack model between rounds.
func (f *Federation) Adversary() *Adversary { return f.adversary }

// Round returns the ID of the most recently started round.
func (f *Federation) Round() uint64 { return f.round }

// LastReport returns the report of the most recently completed round.
func (f *Federation) LastReport() RoundReport { return f.lastReport }

// Epoch returns the epoch this coordinator serves (0 unless recovered).
func (f *Federation) Epoch() uint64 { return f.epoch }

// AttachJournal wires a write-ahead journal into the federation: every
// round transition is appended durably before the round acts on it, making
// the coordinator crash-recoverable via Recover. A nil journal detaches.
func (f *Federation) AttachJournal(j *Journal) { f.journal = j }

// Journal returns the attached journal (nil when durability is off).
func (f *Federation) Journal() *Journal { return f.journal }

// Roster returns the live-client roster.
func (f *Federation) Roster() *Roster { return f.roster }

// Leave marks a client departed: it stops being scheduled from the next
// round on. The in-flight round (if any) is unaffected.
func (f *Federation) Leave(name string) error {
	if err := f.roster.Leave(name); err != nil {
		return err
	}
	f.Ctx.metricAdd("client_departures", 1)
	return nil
}

// Rejoin parks a departed client for admission at the next round boundary —
// never mid-round, so a returning client cannot perturb the current round.
func (f *Federation) Rejoin(name string) error {
	if err := f.roster.Rejoin(name); err != nil {
		return err
	}
	f.Ctx.metricAdd("rejoin_requests", 1)
	return nil
}

// journalAppend stamps the epoch onto rec and appends it durably; a no-op
// without an attached journal. The returned error is fatal to the round —
// a transition that cannot be made durable must not be acted on.
func (f *Federation) journalAppend(rec JournalRecord) error {
	if f.journal == nil {
		return nil
	}
	rec.Epoch = f.epoch
	if err := f.journal.Append(rec); err != nil {
		return err
	}
	c := f.Ctx
	c.metricAdd("journal_records", 1)
	if c.Obs != nil {
		c.Obs.Metrics().SetMax("fl."+c.obsPrefix+".journal_round", int64(rec.Round))
	}
	return nil
}

// takeAttempt consumes the recovery-provided attempt number for the round
// about to run (1 when this is a fresh execution).
func (f *Federation) takeAttempt() uint32 {
	a := f.nextAttempt
	f.nextAttempt = 0
	if a == 0 {
		a = 1
	}
	return a
}

// takeResume consumes the parked resume point if it targets the round about
// to run.
func (f *Federation) takeResume() *ResumePoint {
	rp := f.resume
	f.resume = nil
	if rp != nil && rp.Round != f.round {
		return nil
	}
	return rp
}

// SecureAggregate executes one full round: grads[i] is client i's local
// gradient vector (all equal length). It returns the element-wise sum as
// decrypted by the clients — scaled to the full-federation estimate when a
// quorum round dropped stragglers. Every ciphertext crossing the wire is
// charged to the communication component.
func (f *Federation) SecureAggregate(grads [][]float64) ([]float64, error) {
	sum, _, err := f.SecureAggregateReport(grads)
	return sum, err
}

// SecureAggregateReport is SecureAggregate plus the round's RoundReport:
// which clients contributed, which were dropped and where, retry counts, and
// the applied scale factor. On failure it returns a *RoundError naming the
// phase (and party, when one is at fault).
func (f *Federation) SecureAggregateReport(grads [][]float64) ([]float64, RoundReport, error) {
	p := f.Ctx.Profile.Parties
	if len(grads) != p {
		return nil, RoundReport{}, fmt.Errorf("fl: %d gradient vectors for %d parties", len(grads), p)
	}
	count := len(grads[0])
	for i, g := range grads {
		if len(g) != count {
			return nil, RoundReport{}, fmt.Errorf("fl: client %d has %d gradients, want %d", i, len(g), count)
		}
	}
	policy := f.Ctx.Profile.Round
	if err := policy.Validate(p); err != nil {
		return nil, RoundReport{}, err
	}

	// Round boundary: departed clients are out, rejoiners come back in.
	admitted := f.roster.admit()
	if len(admitted) > 0 {
		f.Ctx.metricAdd("rejoins_admitted", int64(len(admitted)))
	}
	active := f.roster.Active()

	f.round++
	attempt := f.takeAttempt()
	resume := f.takeResume()
	// Cross-device scheduling: sample this round's cohort from the active
	// roster. The sample is a pure function of (roster, seed, round), and the
	// roster itself is journaled, so a crash-recovered re-run draws the
	// identical cohort — cross-checked against the journaled one below.
	cohort := active
	var sampled []string
	if cp := f.Ctx.Profile.Cohort; cp.Sampling() && cp.Size < len(active) {
		cohort = SampleCohort(active, cp.Size, f.Ctx.Profile.Seed, f.round)
		sampled = cohort
		f.Ctx.metricAdd("cohorts_sampled", 1)
	}
	if resume != nil && resume.Cohort != nil && !sameMembers(resume.Cohort, cohort) {
		return nil, RoundReport{}, fmt.Errorf(
			"fl: recovered round %d resamples a different cohort (journal has %d members, got %d)",
			f.round, len(resume.Cohort), len(cohort))
	}
	// The round-start record is durable before any client encrypts: its
	// cursor is the position a recovered coordinator rewinds to when it must
	// re-run this round from scratch.
	if err := f.journalAppend(JournalRecord{
		Kind: EventRoundStart, Round: f.round, Attempt: attempt,
		Cursor: f.Ctx.SeedCursor(), Members: active, Cohort: sampled,
	}); err != nil {
		return nil, RoundReport{}, err
	}

	st := newRoundState(f, policy, count, cohort, attempt, resume)
	var result []float64
	var err error
	if rerr := f.admissionError(cohort, policy); rerr != nil {
		err = rerr
	} else {
		result, err = st.run(grads)
	}
	f.lastReport = st.report()
	f.lastReport.Admitted = admitted
	f.observeRound(f.lastReport, err)
	if err != nil {
		// A simulated coordinator crash means the process died at a durable
		// boundary: nothing after that boundary — including a round-failed
		// record — can have been written.
		if !errors.Is(err, ErrCoordinatorCrash) {
			rec := JournalRecord{
				Kind: EventRoundFailed, Round: f.round, Attempt: attempt,
				Cursor: f.Ctx.SeedCursor(), Reason: err.Error(),
			}
			var re *RoundError
			if errors.As(err, &re) {
				rec.Phase, rec.Party = re.Phase, re.Party
			}
			if jerr := f.journalAppend(rec); jerr != nil {
				return nil, f.lastReport, jerr
			}
		}
		return nil, f.lastReport, err
	}
	if jerr := f.journalAppend(JournalRecord{
		Kind: EventRoundDone, Round: f.round, Attempt: attempt,
		Cursor: f.Ctx.SeedCursor(), Members: st.included, Digest: st.aggDigest,
	}); jerr != nil {
		return nil, f.lastReport, jerr
	}
	return result, f.lastReport, nil
}

// admissionError fails a round that cannot start: an explicit quorum the
// scheduled cohort no longer covers, or no active clients at all.
func (f *Federation) admissionError(cohort []string, policy RoundPolicy) *RoundError {
	if len(cohort) == 0 {
		return &RoundError{Round: f.round, Phase: PhaseAdmit, Err: fmt.Errorf("no active clients")}
	}
	if policy.Quorum > 0 && len(cohort) < policy.Quorum {
		return &RoundError{Round: f.round, Phase: PhaseAdmit, Err: fmt.Errorf(
			"%d active clients below quorum %d", len(cohort), policy.Quorum)}
	}
	return nil
}

// sameMembers reports whether two canonical-order member lists are equal.
func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// observeRound publishes one completed round's protocol counters into the
// context's metrics registry and refreshes the transport meter. No-op
// without an attached observability bundle.
func (f *Federation) observeRound(rep RoundReport, err error) {
	c := f.Ctx
	if c.Obs == nil {
		return
	}
	c.metricAdd("rounds", 1)
	if err != nil {
		c.metricAdd("round_failures", 1)
	}
	c.metricAdd("round_drops", int64(len(rep.Dropped)))
	c.metricAdd("round_stale", int64(rep.Stale))
	c.metricAdd("round_dups", int64(rep.Duplicates))
	c.Obs.Metrics().SetGauge("fl."+c.obsPrefix+".round_scale", rep.Scale)
	if d := rep.Defense; d != nil {
		c.metricAdd("defense_rounds", 1)
		c.metricAdd("defense_trimmed", d.Stats.TrimmedCoords)
		c.metricAdd("defense_clips", int64(d.Stats.Clipped))
		c.metricAdd("defense_dropped", int64(d.Stats.GroupsDropped))
		c.Obs.Metrics().SetGauge("fl."+c.obsPrefix+".defense_suspicion", d.MaxSuspicion())
	}
	if mt, ok := f.Transport.(interface{ Meter() *flnet.Meter }); ok {
		mt.Meter().Publish(c.Obs.Metrics(), "net."+c.obsPrefix)
	}
}

// Close releases the transport.
func (f *Federation) Close() error { return f.Transport.Close() }

// ---- round state machine -------------------------------------------------

// roundState carries one SecureAggregate execution through its phases:
// contribute (admission waves of upload + gather) → aggregate → broadcast →
// decrypt.
type roundState struct {
	f      *Federation
	id     uint64
	policy RoundPolicy
	quorum int
	count  int // gradient dimension

	active  []string     // the clients this round schedules (the sampled cohort; the full roster when sampling is off)
	attempt uint32       // execution count across coordinator restarts
	resume  *ResumePoint // non-nil when recovering a journaled round

	send    func(flnet.Message) error
	retrier *flnet.RetryTransport // nil when MaxRetries is 0

	uploaded    []string              // clients whose upload send succeeded
	resolved    map[string]bool       // cohort members delivered to agg or cut off
	included    []string              // clients delivered to agg, canonical order once contribute ends
	reached     []string              // clients the broadcast reached
	dropped     map[string]RoundPhase // dropped client -> losing phase
	stale, dups int

	agg       *Aggregation // uploads → payload → estimate
	treeStats *TreeStats   // a streamed round's hierarchy anatomy

	peakLive int64 // high-water simultaneously-live aggregate-path ciphertexts

	aggPayload []byte // the encoded aggregate, journaled before broadcast
	aggDigest  uint64
	resumed    bool // round replayed a journaled aggregate

	defense *DefenseReport // the defended round's group anatomy (nil when plain)

	// Per-phase cost anatomy: phaseSpan brackets every phase with a cost
	// snapshot frame; the stack handles nesting (combine inside decrypt) by
	// deducting a closed child's delta from its parent's row.
	anat   *RoundAnatomy
	frames []anatFrame
}

// anatFrame is one open phase on the anatomy stack.
type anatFrame struct {
	name  string
	start CostSnapshot
	child PhaseCost // closed nested phases, deducted from this frame's row
}

// streamed is the round's one delivery policy bit (see Aggregation): with
// Cohort.Fanout ≥ 2 completed uploads fold into the aggregation trees on
// arrival; with Fanout == 0 they are buffered and folded at aggregate time —
// the baseline the tree is measured against.
func (st *roundState) streamed() bool { return st.f.Ctx.Profile.Cohort.Tree() }

func newRoundState(f *Federation, policy RoundPolicy, count int, active []string, attempt uint32, resume *ResumePoint) *roundState {
	st := &roundState{
		f:        f,
		id:       f.round,
		policy:   policy,
		quorum:   policy.EffectiveQuorum(len(active)),
		count:    count,
		active:   active,
		attempt:  attempt,
		resume:   resume,
		resolved: make(map[string]bool, len(active)),
		dropped:  make(map[string]RoundPhase),
		agg:      f.Ctx.NewAggregation(f.round, active),
		anat:     &RoundAnatomy{Round: f.round},
	}
	st.agg.span = st.phaseSpan
	st.send = f.Transport.Send
	if policy.MaxRetries > 0 {
		st.retrier = flnet.NewRetryTransport(f.Transport, flnet.RetryPolicy{
			MaxRetries: policy.MaxRetries,
			Backoff:    policy.Backoff,
			Seed:       f.Ctx.Profile.Seed ^ f.round,
		})
		// Retransmissions are real wire traffic: charge each re-attempt to
		// the communication component so the cost model stays honest.
		st.retrier.OnRetry = func(msg flnet.Message, attempt int, err error) {
			f.Ctx.Costs.AddRetry(f.Ctx.Link.TransferTime(msg.WireSize()), msg.WireSize())
		}
		st.send = st.retrier.Send
	}
	return st
}

func (st *roundState) report() RoundReport {
	rep := RoundReport{
		Round:      st.id,
		Included:   st.included,
		Dropped:    st.dropped,
		Stale:      st.stale,
		Duplicates: st.dups,
		Scale:      1,
		Attempt:    st.attempt,
		Resumed:    st.resumed,
	}
	if st.retrier != nil {
		rep.Retries = st.retrier.Retries()
	}
	if n := len(st.included); n > 0 {
		rep.Scale = float64(st.f.Ctx.Profile.Parties) / float64(n)
	}
	rep.Defense = st.defense
	rep.CohortSize = len(st.active)
	rep.PeakLiveCts = st.peakLive
	rep.Tree = st.treeStats
	rep.Anatomy = st.anat
	return rep
}

// drop records a lost client and enforces the quorum budget: once more than
// active-quorum clients are gone, the round fails with a typed error naming
// the phase and party that exhausted the budget.
func (st *roundState) drop(phase RoundPhase, party string, cause error) *RoundError {
	if _, ok := st.dropped[party]; !ok {
		st.dropped[party] = phase
	}
	if len(st.dropped) > len(st.active)-st.quorum {
		return &RoundError{Round: st.id, Phase: phase, Party: party, Err: cause}
	}
	return nil
}

// fail builds the typed error for a phase-level (no single party) failure.
func (st *roundState) fail(phase RoundPhase, party string, cause error) *RoundError {
	return &RoundError{Round: st.id, Phase: phase, Party: party, Err: cause}
}

// recv performs one transport receive honouring the phase deadline.
func (st *roundState) recv(party string, deadline time.Time) (flnet.Message, error) {
	if deadline.IsZero() {
		return st.f.Transport.Recv(party)
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return flnet.Message{}, fmt.Errorf("%w: party %q (phase deadline elapsed)", flnet.ErrTimeout, party)
	}
	return st.f.Transport.RecvTimeout(party, remaining)
}

// phaseDeadline starts a deadline clock for one phase.
func (st *roundState) phaseDeadline() time.Time {
	if st.policy.PhaseTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(st.policy.PhaseTimeout)
}

func (st *roundState) run(grads [][]float64) ([]float64, error) {
	if st.resume != nil && st.resume.Phase == PhaseBroadcast {
		// The crashed attempt already gathered and aggregated: rehydrate the
		// journaled aggregate and resume at the broadcast boundary.
		if err := st.restoreAggregate(); err != nil {
			return nil, err
		}
	} else {
		if err := st.contribute(grads); err != nil {
			return nil, err
		}
		if err := st.phaseSpan("aggregate", st.aggregate); err != nil {
			return nil, err
		}
	}
	if err := st.phaseSpan("broadcast", st.broadcast); err != nil {
		return nil, err
	}
	var result []float64
	if err := st.phaseSpan("decrypt", func() error {
		var err error
		result, err = st.decrypt()
		return err
	}); err != nil {
		return nil, err
	}
	return result, nil
}

// phaseSpan runs one protocol phase, collects its cost delta into the
// round's anatomy, and — with a recorder attached — also records it as a
// span on the context's sim cost clock, so every round leaves a
// phase-by-phase trace. Anatomy collection is unconditional: it reads only
// the cost accumulator, which is always live.
func (st *roundState) phaseSpan(phase string, fn func() error) error {
	ctx := st.f.Ctx
	start := ctx.SimCost()
	st.frames = append(st.frames, anatFrame{name: phase, start: ctx.Costs.Snapshot()})
	err := fn()
	st.closeFrame()
	if rec := ctx.Obs.Recorder(); rec != nil {
		rec.Record(obs.Span{
			Phase: fmt.Sprintf("round%d.%s", st.id, phase),
			Party: ctx.obsPrefix + ".fl",
			Lane:  "fl.round",
			Start: start,
			Dur:   ctx.SimCost() - start,
		})
	}
	return err
}

// closeFrame pops the innermost phase frame: its cost delta minus any
// nested phases' deltas becomes the phase's anatomy row, and the full delta
// rolls up into the parent frame so the parent's own row excludes it.
// Rows therefore land in frame-closing order (children before parents) and
// sum exactly to the round's whole-run cost delta.
func (st *roundState) closeFrame() {
	n := len(st.frames) - 1
	fr := st.frames[n]
	st.frames = st.frames[:n]
	delta := phaseDelta(fr.start, st.f.Ctx.Costs.Snapshot())
	row := delta.sub(fr.child)
	row.Phase = fr.name
	st.anat.Phases = append(st.anat.Phases, row)
	if n > 0 {
		st.frames[n-1].child = st.frames[n-1].child.add(delta)
	}
}

// clientGrads resolves client i's upload for this round: honest clients
// upload their local gradients unchanged; a compromised client's vector is
// rewritten by the armed attack model — before quantization and encryption,
// exactly where a real malicious participant would poison its update.
func (st *roundState) clientGrads(i int, grads [][]float64) []float64 {
	if st.f.adversary.IsMalicious(i) {
		st.f.Ctx.metricAdd("byz_attacks", 1)
	}
	return st.f.adversary.Apply(st.id, i, grads[i])
}

// uploadWave runs the upload send loop for one admission wave. Clients
// encrypt in cohort order, so the nonce-stream cursor advances identically
// whatever the wave size and across crash-recovered re-runs. A send that
// still fails after the retry policy drops the client (within the quorum
// budget); a local encryption fault is not a network fault and aborts the
// round.
func (st *roundState) uploadWave(wave []string, grads [][]float64) error {
	for _, name := range wave {
		i, err := ClientIndex(name)
		if err != nil {
			return st.fail(PhaseUpload, name, err)
		}
		if err := st.sendBatch(i, st.clientGrads(i, grads)); err != nil {
			return err
		}
	}
	return nil
}

// sendBatch is one client's upload: its whole encrypted batch in one "grads"
// frame. A dropped client (failed send, within the quorum budget) returns
// nil.
func (st *roundState) sendBatch(i int, grads []float64) error {
	ctx := st.f.Ctx
	name := ClientName(i)
	cts, err := ctx.EncryptGradientsAs(st.f.clientKey, grads)
	if err != nil {
		return fmt.Errorf("fl: client %d encrypt: %w", i, err)
	}
	msg := flnet.Message{
		From: name, To: ServerName, Kind: "grads", Round: st.id,
		Payload: EncodeCiphertexts(cts),
	}
	if err := st.send(msg); err != nil {
		if rerr := st.drop(PhaseUpload, name, err); rerr != nil {
			return rerr
		}
		return nil
	}
	st.uploaded = append(st.uploaded, name)
	ctx.RecordTransfer(msg.WireSize())
	return nil
}

// answerResume replies to one session-resume probe. Only a token that
// matches the in-flight (epoch, round, attempt) exactly may keep uploading
// into this round; anything else — a stale round, a pre-crash attempt, a
// foreign epoch — is told the next round boundary it may join. Either way
// the in-flight round's state is untouched.
func (st *roundState) answerResume(msg flnet.Message) {
	ctx := st.f.Ctx
	decision := flnet.AdmissionDecision{
		Kind:  flnet.KindResumeWait,
		Token: flnet.SessionToken{Epoch: st.f.epoch, Round: st.id + 1, Attempt: 1},
	}
	if tok, err := flnet.DecodeSessionToken(msg.Payload); err == nil {
		adm := flnet.Admission{Current: flnet.SessionToken{Epoch: st.f.epoch, Round: st.id, Attempt: st.attempt}}
		decision = adm.Decide(tok)
	}
	reply := flnet.Message{From: ServerName, To: msg.From, Kind: decision.Kind, Round: st.id, Payload: decision.Token.Encode()}
	if err := st.send(reply); err == nil {
		ctx.RecordTransfer(reply.WireSize())
	}
	if decision.Kind == flnet.KindResumeOK {
		ctx.metricAdd("rejoin_resumes", 1)
	} else {
		ctx.metricAdd("rejoin_waits", 1)
	}
}

// contribute runs the round's upload and gather as admission waves of
// Cohort.MaxInflight clients (0 admits the whole cohort as one wave): each
// wave uploads, then the server drains it, delivering every completed
// upload to the aggregation and cutting off whatever is still unresolved
// when the wave's deadline expires. Quorum is judged once, over the whole
// cohort, after the last wave. A streamed round's waves fold into the
// aggregation trees on arrival, so coordinator memory is bounded by the
// admission window plus the trees' fanout·depth live set and the waves
// report as one "contribute" anatomy row; a buffered round's waves report
// as "upload" and "gather" rows.
func (st *roundState) contribute(grads [][]float64) error {
	if st.streamed() {
		bare := func(_ string, fn func() error) error { return fn() }
		return st.phaseSpan("contribute", func() error { return st.admitWaves(grads, bare) })
	}
	return st.admitWaves(grads, st.phaseSpan)
}

// admitWaves is contribute's wave loop; span brackets each wave's halves.
func (st *roundState) admitWaves(grads [][]float64, span func(string, func() error) error) error {
	window := st.f.Ctx.Profile.Cohort.MaxInflight
	if window <= 0 || window > len(st.active) {
		window = len(st.active)
	}
	for base := 0; base < len(st.active); base += window {
		end := base + window
		if end > len(st.active) {
			end = len(st.active)
		}
		wave := st.active[base:end]
		if err := span("upload", func() error { return st.uploadWave(wave, grads) }); err != nil {
			return err
		}
		if err := span("gather", st.gatherWave); err != nil {
			return err
		}
	}
	st.sortIncluded()
	if len(st.included) < st.quorum {
		return st.fail(PhaseGather, "", fmt.Errorf("%d/%d uploads below quorum %d",
			len(st.included), len(st.active), st.quorum))
	}
	return nil
}

// gatherWave drains the current admission wave: it waits for every uploader
// not yet resolved, delivering each batch to the aggregation the moment it
// arrives. Messages from earlier rounds are stale artifacts of stragglers
// and are discarded, as are duplicates. A wave deadline that expires cuts
// the stragglers off and fails the round only through the drop budget.
func (st *roundState) gatherWave() error {
	deadline := st.phaseDeadline()
	waiting := make(map[string]bool)
	for _, name := range st.uploaded {
		if !st.resolved[name] {
			waiting[name] = true
		}
	}
	for len(waiting) > 0 {
		msg, err := st.recv(ServerName, deadline)
		if err != nil {
			if flnet.IsTimeout(err) {
				return st.cutoff(waiting, err)
			}
			return st.fail(PhaseGather, "", err)
		}
		if msg.Kind == flnet.KindResume {
			st.answerResume(msg)
			continue
		}
		if msg.Round != st.id || msg.Kind != "grads" {
			st.stale++
			continue
		}
		if st.resolved[msg.From] || !waiting[msg.From] {
			st.dups++
			continue
		}
		cts, err := DecodeCiphertexts(msg.Payload)
		if err != nil {
			return st.fail(PhaseGather, msg.From, fmt.Errorf("server decode: %w", err))
		}
		if err := st.deliver(msg.From, cts); err != nil {
			return err
		}
		delete(waiting, msg.From)
	}
	return nil
}

// deliver hands one client's completed upload to the aggregation and marks
// the client included — in arrival order; included is re-sorted to canonical
// order before it is journaled.
func (st *roundState) deliver(name string, cts []paillier.Ciphertext) error {
	if err := st.agg.Add(name, cts); err != nil {
		return st.fail(PhaseGather, name, err)
	}
	st.resolved[name] = true
	st.included = append(st.included, name)
	return nil
}

// cutoff resolves every still-waiting member of the current wave as late:
// the client is dropped (within the quorum budget). The wave moves on; the
// cohort-wide quorum check happens after the last wave.
func (st *roundState) cutoff(waiting map[string]bool, cause error) error {
	for _, name := range st.uploaded {
		if !waiting[name] {
			continue
		}
		st.resolved[name] = true
		if rerr := st.drop(PhaseGather, name, fmt.Errorf("upload missed the wave cutoff: %w", cause)); rerr != nil {
			return rerr
		}
	}
	return nil
}

// sortIncluded restores the canonical cohort order: uploads are delivered
// in arrival order, but the journal, the report, and the group partition
// all speak canonical order.
func (st *roundState) sortIncluded() {
	pos := make(map[string]int, len(st.active))
	for i, name := range st.active {
		pos[name] = i
	}
	sort.Slice(st.included, func(i, j int) bool {
		return pos[st.included[i]] < pos[st.included[j]]
	})
}

// observeLivePeak records a high-water candidate for the coordinator's
// simultaneously-live aggregate-path ciphertext count.
func (st *roundState) observeLivePeak(n int64) {
	if n > st.peakLive {
		st.peakLive = n
	}
	st.f.Ctx.metricMax("live_cts_peak", n)
}

// aggregate seals the aggregation over the included clients and journals
// the payload — the mid-round safe point. Once the aggregated record is
// durable, a coordinator crash no longer costs the gathered uploads:
// recovery resumes at the broadcast boundary with this payload, plain and
// grouped frames alike.
func (st *roundState) aggregate() error {
	payload, err := st.agg.Seal(st.included)
	if err != nil {
		return st.fail(PhaseGather, "", err)
	}
	st.aggPayload = payload
	st.observeLivePeak(st.agg.PeakLiveCts())
	if st.streamed() {
		st.finishTree(st.agg.TreeStats())
	}
	st.aggDigest = PayloadDigest(st.aggPayload)
	return st.f.journalAppend(JournalRecord{
		Kind: EventAggregated, Round: st.id, Attempt: st.attempt,
		Cursor: st.f.Ctx.SeedCursor(), Members: st.included,
		Digest: st.aggDigest, Payload: st.aggPayload,
	})
}

// finishTree publishes a streamed round's hierarchy statistics: the report
// field, the gauges, and the per-level span breakdown.
func (st *roundState) finishTree(stats TreeStats) {
	st.treeStats = &stats
	st.f.Ctx.metricAdd("tree_folds", stats.Folds)
	st.f.Ctx.metricMax("tree_depth", int64(stats.Depth))
	st.treeSpans(stats)
}

// treeSpans records the tree's per-level HE time as stacked spans ending at
// the current sim-cost clock, so traces show where the hierarchy spent its
// fold time level by level.
func (st *roundState) treeSpans(stats TreeStats) {
	ctx := st.f.Ctx
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
			Phase: fmt.Sprintf("round%d.tree.level%d", st.id, l),
			Party: ctx.obsPrefix + ".fl",
			Lane:  "fl.tree",
			Start: start,
			Dur:   d,
		})
		start += d
	}
}

// restoreAggregate rehydrates the round from a journaled aggregate after a
// crash: uploads and aggregation already happened in the lost attempt, so
// the round verifies the payload against its digest and resumes at the
// broadcast boundary.
func (st *roundState) restoreAggregate() error {
	rp := st.resume
	if PayloadDigest(rp.Payload) != rp.Digest {
		return st.fail(PhaseBroadcast, "", fmt.Errorf("journaled aggregate fails its digest"))
	}
	st.included = append([]string(nil), rp.Included...)
	st.aggPayload = rp.Payload
	st.aggDigest = rp.Digest
	st.resumed = true
	st.f.Ctx.metricAdd("rounds_resumed", 1)
	return nil
}

// broadcast: the server returns the aggregate to every included client under
// the aggregation's message kind; the resumed path inherits the kind from
// the (unchanged) profile, matching the journaled payload's framing.
func (st *roundState) broadcast() error {
	payload := st.aggPayload
	kind := st.agg.Kind()
	for _, name := range st.included {
		msg := flnet.Message{From: ServerName, To: name, Kind: kind, Round: st.id, Payload: payload}
		if err := st.send(msg); err != nil {
			if rerr := st.drop(PhaseBroadcast, name, err); rerr != nil {
				return rerr
			}
			continue
		}
		st.reached = append(st.reached, name)
		st.f.Ctx.RecordTransfer(msg.WireSize())
	}
	if len(st.reached) == 0 {
		return st.fail(PhaseBroadcast, "", fmt.Errorf("aggregate reached no client"))
	}
	return nil
}

// decrypt: each reached client consumes its aggregate copy; the first valid
// copy is opened once (all clients hold the private key in the Fig. 2
// layout, so one decryption keeps host time proportional without changing
// the protocol's traffic). A copy that fails to parse or contradicts the
// seeded assignment is dropped and the next one tried; decryption and
// combiner failures are fatal to the round.
func (st *roundState) decrypt() ([]float64, error) {
	// The deadline bounds waiting for traffic only: every copy is drained
	// before any HE decryption runs, so slow local compute can never expire
	// the clock on a client whose message already arrived.
	deadline := st.phaseDeadline()
	wantKind := st.agg.Kind()
	copies := make([]flnet.Message, 0, len(st.reached))
	for _, name := range st.reached {
		for {
			msg, err := st.recv(name, deadline)
			if err != nil {
				if rerr := st.drop(PhaseDecrypt, name, err); rerr != nil {
					return nil, rerr
				}
				break
			}
			if msg.Round != st.id || msg.Kind != wantKind {
				st.stale++
				continue // keep waiting for this round's aggregate
			}
			copies = append(copies, msg)
			break
		}
	}
	for _, msg := range copies {
		result, defense, err := st.agg.Open(msg.Payload, st.count, len(st.included), st.included)
		if isFrameError(err) {
			if rerr := st.drop(PhaseDecrypt, msg.To, err); rerr != nil {
				return nil, rerr
			}
			continue
		}
		if err != nil {
			return nil, st.fail(PhaseDecrypt, msg.To, err)
		}
		st.defense = defense
		return result, nil
	}
	return nil, st.fail(PhaseDecrypt, "", fmt.Errorf("no client obtained the aggregate"))
}
