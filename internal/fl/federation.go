package fl

import (
	"fmt"

	"flbooster/internal/flnet"
)

// Federation is the in-process host of the Fig. 2 round: one Coordinator and
// one Client a party, all on one Context and one transport, stepped by a
// single thread so that a seed fixes every nonce, ciphertext and journal
// record. The protocol itself lives in the two machines, which only exchange
// frames; cmd/flserver hosts the same two types over TCP. What this host adds
// are the facts a host has: the live roster, which sends of a wave succeeded,
// who the coordinator sealed (for Client.Open's K cross-check), and
// the order the parties are stepped in — clients encrypt in cohort order,
// wave by wave, so the nonce-stream cursor advances identically whatever the
// wave size and across crash-recovered re-runs. Every message carries the
// round's monotonically increasing ID; stale or duplicate messages from
// earlier rounds are discarded, never aggregated. Party names are
// "client<i>" and "server".
type Federation struct {
	Ctx       *Context
	Transport flnet.Transport

	coord   *Coordinator
	clients map[string]*Client
	roster  *Roster
	sent    []string  // scratch: the current wave's successful uploaders
	wave    []*Client // scratch: the current wave's clients
	vecs    [][]float64
	pool    []int32    // scratch: the cohort sampler's roster positions
	copies  []delivery // scratch: decrypt's aggregate copies, cleared after use
}

// delivery is one client's copy of the aggregate frame.
type delivery struct {
	to    *Client
	frame []byte
}

// NewFederation builds a federation over the context's party count with an
// in-process transport on the context's link model.
func NewFederation(ctx *Context) *Federation {
	names := ClientNames(ctx.Profile.Parties)
	f := &Federation{
		Ctx:       ctx,
		Transport: flnet.NewSimTransport(ctx.Link, append(names, ServerName)...),
		coord:     NewCoordinator(ctx),
		clients:   make(map[string]*Client, len(names)),
		roster:    NewRoster(names),
	}
	for i, name := range names {
		f.clients[name] = NewClient(ctx, i)
	}
	return f
}

// Round returns the ID of the most recently started round.
func (f *Federation) Round() uint64 { return f.coord.round }

// AttachJournal wires a write-ahead journal into the coordinator: every
// round transition is appended durably before the round acts on it, making
// the coordinator crash-recoverable via Recover. A nil journal detaches.
func (f *Federation) AttachJournal(j *Journal) { f.coord.AttachJournal(j) }

// Journal returns the attached journal (nil when durability is off).
func (f *Federation) Journal() *Journal { return f.coord.Journal() }

// Roster returns the live-client roster.
func (f *Federation) Roster() *Roster { return f.roster }

// Leave marks a client departed: it stops being scheduled from the next
// round on. The in-flight round (if any) is unaffected, and so is a round a
// recovered coordinator resumes.
func (f *Federation) Leave(name string) error {
	if err := f.roster.Leave(name); err != nil {
		return err
	}
	f.Ctx.metricAdd("client_departures", 1)
	return nil
}

// Rejoin parks a departed client for admission at the next round boundary —
// never mid-round nor into a resumed round, so a returning client cannot
// perturb the current round.
func (f *Federation) Rejoin(name string) error {
	if err := f.roster.Rejoin(name); err != nil {
		return err
	}
	f.Ctx.metricAdd("rejoin_requests", 1)
	return nil
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
	if err := f.Ctx.Profile.Round.Validate(p); err != nil {
		return nil, RoundReport{}, err
	}

	// Round boundary: departed clients are out, rejoiners come back in —
	// except into a round that resumes a journaled one, which runs over the
	// roster its round-start journaled and admits nobody: churn requested
	// while the coordinator was down takes effect at the next boundary.
	roster, admitted := f.roster.Active(), []string(nil)
	if rp := f.coord.resume; rp != nil {
		roster = rp.Roster
	} else if admitted = f.roster.admit(); admitted != nil {
		f.Ctx.metricAdd("rejoins_admitted", int64(len(admitted)))
		roster = f.roster.Active()
	}
	sched := f.Ctx.Profile.schedule(roster, f.coord.round+1, &f.pool)
	rd, err := f.coord.Begin(sched, f.Transport)
	if rd == nil {
		return nil, RoundReport{}, err
	}
	var result []float64
	if err == nil {
		result, err = f.run(rd, grads)
	}
	err = rd.Finish(err)
	rep := rd.Report()
	rep.Admitted = admitted
	if err != nil {
		return nil, rep, err
	}
	return result, rep, nil
}

// Close releases the transport.
func (f *Federation) Close() error { return f.Transport.Close() }

// run steps the machines through one round: admission waves of upload and
// gather, the coordinator's aggregate and broadcast, the clients' decrypt. A
// round Begin resumed at the broadcast boundary skips straight to it.
func (f *Federation) run(rd *Round, grads [][]float64) ([]float64, error) {
	if !rd.Resumed() {
		if err := f.contribute(rd, grads); err != nil {
			return nil, err
		}
		if err := rd.Aggregate(); err != nil {
			return nil, err
		}
	}
	reached, err := rd.Broadcast(rd.Included())
	if err != nil {
		return nil, err
	}
	var result []float64
	err = rd.Span("decrypt", func() error {
		result, err = f.decrypt(rd, reached, len(grads[0]))
		return err
	})
	return result, err
}

// contribute runs the round's upload and gather as admission waves of
// Cohort.MaxInflight clients (0 admits the whole cohort as one wave): each
// wave's clients upload, then the coordinator gathers the ones whose send
// succeeded, cutting off whatever is still unresolved when the wave's
// deadline expires. Every round folds each upload into its tree as the
// gather receives it. A tree round's waves report as one "contribute"
// anatomy row; a flat round's waves report as "upload" and "gather" rows.
func (f *Federation) contribute(rd *Round, grads [][]float64) error {
	if f.Ctx.Profile.Cohort.Tree() {
		bare := func(_ string, fn func() error) error { return fn() }
		return rd.Span("contribute", func() error { return f.admitWaves(rd, grads, bare) })
	}
	return f.admitWaves(rd, grads, rd.Span)
}

// admitWaves is contribute's wave loop; span brackets each wave's halves.
func (f *Federation) admitWaves(rd *Round, grads [][]float64, span func(string, func() error) error) error {
	cohort := rd.Schedule().Cohort
	window := f.Ctx.Profile.Cohort.MaxInflight
	if window <= 0 || window > len(cohort) {
		window = len(cohort)
	}
	for base := 0; base < len(cohort); base += window {
		wave := cohort[base:min(base+window, len(cohort))]
		if err := span("upload", func() error { return f.uploadWave(rd, wave, grads) }); err != nil {
			return err
		}
		if err := span("gather", func() error { return rd.Gather(f.sent, nil) }); err != nil {
			return err
		}
	}
	return nil
}

// uploadWave uploads one admission wave's clients as one upload wave
// (uploadWave in client.go) and leaves the names whose upload was sent in
// f.sent. A send that still fails after the retry policy drops the client
// (within the quorum budget).
func (f *Federation) uploadWave(rd *Round, names []string, grads [][]float64) error {
	f.sent, f.wave, f.vecs = f.sent[:0], f.wave[:0], f.vecs[:0]
	var stranger error
	for _, name := range names {
		cl := f.clients[name]
		if cl == nil {
			stranger = rd.Fail(PhaseUpload, name, fmt.Errorf("fl: %q is not a client of this federation", name))
			break
		}
		f.wave, f.vecs = append(f.wave, cl), append(f.vecs, grads[cl.Index])
	}
	err := uploadWave(f.Transport, rd.Schedule().Round, f.wave, f.vecs, func(cl *Client, _ int, err error) error {
		if err == nil {
			f.sent = append(f.sent, cl.Name)
		} else if rerr := rd.Drop(PhaseUpload, cl.Name, err); rerr != nil {
			return rerr
		}
		return nil
	})
	if err != nil {
		return err
	}
	return stranger
}

// decrypt: each reached client receives its aggregate copy; the first valid
// copy is opened once (all clients hold the private key in the Fig. 2
// layout, so one decryption keeps host time proportional without changing
// the protocol's traffic). A copy that fails to parse or contradicts the
// contributor count is dropped and the next one tried; a decryption failure
// is fatal to the round.
func (f *Federation) decrypt(rd *Round, reached []string, count int) ([]float64, error) {
	// The deadline bounds waiting for traffic only: every copy is drained
	// before any HE decryption runs, so slow local compute can never expire
	// the clock on a client whose message already arrived.
	deadline := f.Ctx.Profile.Round.phaseDeadline()
	sched := rd.Schedule()
	copies := f.copies[:0]
	defer func() { clear(copies); f.copies = copies[:0] }()
	for _, name := range reached {
		cl := f.clients[name]
		frame, stale, err := cl.Receive(f.Transport, sched.Round, deadline)
		rd.Observe(stale)
		if err != nil {
			if rerr := rd.Drop(PhaseDecrypt, name, err); rerr != nil {
				return nil, rerr
			}
			continue
		}
		copies = append(copies, delivery{cl, frame})
	}
	for _, cp := range copies {
		result, _, err := cp.to.Open(cp.frame, count, rd.Included())
		if isFrameError(err) {
			if rerr := rd.Drop(PhaseDecrypt, cp.to.Name, err); rerr != nil {
				return nil, rerr
			}
			continue
		}
		if err != nil {
			return nil, rd.Fail(PhaseDecrypt, cp.to.Name, err)
		}
		return result, nil
	}
	return nil, rd.Fail(PhaseDecrypt, "", fmt.Errorf("no client obtained the aggregate"))
}
