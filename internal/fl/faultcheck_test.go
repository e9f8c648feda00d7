package fl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"flbooster/internal/flnet"
	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
)

// The fault checker. TestFaultCheck draws from each seed a profile, a fault
// schedule and a transport (drawFault), runs a short epoch (runDraw) and holds
// it to the round contract (checkFault):
//   - every completed round is the plaintext oracle over its included clients
//     (checkOracle), and every failure a *RoundError carrying the round's ID;
//   - the drop budget: a completed round dropped at most cohort − quorum
//     clients; one dropped in upload or gather is never included, one dropped
//     in broadcast or decrypt always is (its upload was folded); a round that
//     fails within the budget fails for a whole-round cause;
//   - what the schedule predicts: uploads that fail k times in a row drop
//     their client in upload if and only if k > MaxRetries and are charged
//     min(k, MaxRetries) retries; a silenced or straggling client is dropped
//     in gather whenever it is scheduled; in process, with no fault that
//     loses a frame, nobody is dropped, whatever the deadline; a roster below
//     the quorum fails at admission; a CPU profile's fault ledger stays zero;
//   - what must not change an outcome does not: device faults, the topology
//     and the deadline (against the same draw flat, fault-free and without a
//     deadline), retries (against the same draw with fewer failures), the
//     transport (TCP against the in-process run) and a second run;
//   - every run resolves within runLimit, and no goroutine outlives it.
//
// The tests after TestFaultCheck are pinned rows: fixed draws that guard a
// past bug or name a property, under the names of the tests they replaced.

const (
	checkSeeds = 200
	checkTCP   = 100 // every checkTCP-th seed runs over a loopback TCP mesh
	runLimit   = 20 * time.Second
)

// hung is set once a run missed runLimit: its goroutine is still running,
// so the checker stops drawing.
var hung bool

// faultDraw is one epoch's profile, fault schedule and transport.
type faultDraw struct {
	seed    uint64
	p       Profile
	rounds  int
	tcp     bool               // a loopback TCP mesh; in process otherwise
	chaos   *flnet.ChaosConfig // wraps the transport when set
	first   string             // round 1's first uploader
	failing int                // first's next `failing` uploads fail to send
	forged  bool               // a round-0 upload from first is queued before round 1
	churn   [][]churnOp        // churn[r-1] runs before round r, churn[rounds] after the last
	// Before round foreignAt, departed client foreignFrom sends a frame of a
	// kind the coordinator does not speak.
	foreignAt   int
	foreignFrom string
}

type churnOp struct {
	name   string
	rejoin bool
}

// rosterModel is the roster the checker predicts: who is active, and who
// waits for the next boundary to rejoin.
type rosterModel struct {
	active  map[string]bool
	pending []string
}

func newRosterModel(parties int) *rosterModel {
	m := &rosterModel{active: make(map[string]bool)}
	for _, n := range ClientNames(parties) {
		m.active[n] = true
	}
	return m
}

// apply reports whether the roster accepts o, and applies it if it does: a
// leave takes an active client, a rejoin one neither active nor pending.
func (m *rosterModel) apply(o churnOp) bool {
	ok := m.active[o.name] != o.rejoin && !slices.Contains(m.pending, o.name)
	switch {
	case ok && o.rejoin:
		m.pending = append(m.pending, o.name)
	case ok:
		delete(m.active, o.name)
	}
	return ok
}

// admit brings the pending clients in at a boundary, in roster order, and
// returns them with the roster.
func (m *rosterModel) admit(parties int) (admitted, roster []string) {
	for _, n := range ClientNames(parties) {
		if slices.Contains(m.pending, n) {
			m.active[n] = true
			admitted = append(admitted, n)
		}
		if m.active[n] {
			roster = append(roster, n)
		}
	}
	m.pending = nil
	return admitted, roster
}

func drawFault(seed uint64) faultDraw {
	rng := rand.New(rand.NewPCG(seed, 29))
	pick := rng.IntN
	sys := SystemFLBooster
	if pick(4) == 0 {
		sys = SystemFATE
	}
	p := testProfile(sys)
	p.Parties, p.Devices, p.Seed = 4+pick(4), pick(3), seed
	cohort := p.Parties
	switch pick(3) {
	case 0: // flat, in one wave or several
		p.Cohort.MaxInflight = pick(3)
	case 1:
		p.Cohort = CohortPolicy{Fanout: 2 + pick(2), MaxInflight: pick(3)}
	case 2:
		cohort = 3 + pick(p.Parties-3)
		p.Cohort = CohortPolicy{Size: cohort, Fanout: 2, MaxInflight: pick(3)}
	}
	if pick(4) > 0 {
		p.Round.Quorum = cohort - pick(3)
	}
	p.Round.MaxRetries = pick(3)
	p.Round.PhaseTimeout = []time.Duration{0, time.Nanosecond, 200 * time.Millisecond}[pick(3)]
	d := faultDraw{seed: seed, rounds: 3, tcp: seed%checkTCP == 0, churn: make([][]churnOp, 4)}
	if d.tcp {
		p.Round.PhaseTimeout = 200 * time.Millisecond
	}
	d.first = p.Schedule(ClientNames(p.Parties), 1).Cohort[0]

	// Silent faults only under a deadline: RoundPolicy's precondition.
	silent := p.Round.PhaseTimeout > 0
	var c flnet.ChaosConfig
	if pick(2) == 0 {
		c = flnet.ChaosConfig{Seed: seed, DupProb: 0.15 * float64(pick(3)), ReorderProb: 0.2 * float64(pick(2))}
		if silent {
			c.DropProb = 0.1 * float64(pick(3))
		}
	}
	if victim := ClientName(pick(p.Parties)); silent && victim != d.first {
		switch pick(4) {
		case 0:
			c.StragglerParty = victim
		case 1:
			c.DropFrom, c.DropKind = victim, "grads"
		}
	}
	switch pick(4) { // one source of send failures at most
	case 0:
		c.FailSendAt = 1 + int64(pick(12))
	case 1:
		if !d.tcp {
			d.failing = 1 + pick(p.Round.MaxRetries+1)
		}
	}
	if !d.tcp && pick(6) == 0 {
		c.FailRecvAt = 1 + int64(pick(12))
	}
	if c != (flnet.ChaosConfig{}) || pick(3) == 0 {
		d.chaos = &c
	}
	d.forged = pick(4) == 0

	switch pick(3) {
	case 1:
		p.Faults.Inject = gpu.FaultConfig{Seed: seed, KillAtLaunch: 1 + int64(pick(4))}
	case 2:
		p.Faults.Inject = gpu.FaultConfig{Seed: seed, AbortProb: 0.2 * float64(pick(2)),
			CorruptProb: 0.5 * float64(pick(2)), StallProb: 0.5 * float64(pick(2)), OOMProb: 0.2 * float64(pick(2))}
	}
	if p.Faults.Inject.Enabled() {
		p.Faults.Check = ghe.CheckedConfig{VerifyFraction: 1, VerifySeed: seed}
	}

	m := newRosterModel(p.Parties)
	for r := 2; r <= d.rounds; r++ {
		for range pick(3) {
			o := churnOp{ClientName(pick(p.Parties)), pick(2) == 0}
			d.churn[r-1] = append(d.churn[r-1], o)
			m.apply(o)
		}
		for _, n := range ClientNames(p.Parties) {
			if d.foreignAt == 0 && !m.active[n] && !slices.Contains(m.pending, n) && pick(2) == 0 {
				d.foreignAt, d.foreignFrom = r, n
			}
		}
		m.admit(p.Parties)
	}
	d.p = p
	return d
}

// faultWire fails the next `fails` uploads of one client before they reach
// the wire, keeping the refused frame's size.
type faultWire struct {
	flnet.Transport
	from    string
	fails   int
	refused int64
}

func (w *faultWire) Send(msg flnet.Message) error {
	if msg.From == w.from && msg.Kind == "grads" && w.fails > 0 {
		w.fails--
		w.refused = msg.WireSize()
		return errors.New("injected upload failure")
	}
	return w.Transport.Send(msg)
}

// faultRun is one epoch as its host saw it, plus what the checker reads off
// the transports: the chaos tally, each churn request's outcome, the refused
// upload's size, whether the departed client's foreign frame was answered,
// and the ciphertexts of one more encryption after the epoch.
type faultRun struct {
	sweepRun
	stats    flnet.ChaosStats
	accepted []bool
	refused  int64
	answered bool
	next     [][]byte
	nextErr  error
}

func runDraw(t *testing.T, d faultDraw) faultRun {
	t.Helper()
	ctx, err := NewContext(d.p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	store := NewMemStore()
	fed.AttachJournal(mustJournal(t, store))
	base := fed.Transport
	var hub *flnet.TCPHub
	if d.tcp {
		if hub, err = flnet.NewTCPHub("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		base.Close()
		base = newTCPMesh(t, hub, append(ClientNames(d.p.Parties), ServerName))
	}
	wire := &faultWire{Transport: base, from: d.first, fails: d.failing}
	var chaos *flnet.ChaosTransport
	if d.chaos != nil {
		chaos = flnet.NewChaosTransport(base, *d.chaos)
		wire.Transport = chaos
	}
	fed.Transport = wire
	run := faultRun{sweepRun: sweepRun{grads: epochGrads(d.rounds, d.p.Parties, 5), ctx: ctx}}
	if d.forged { // it would double first's contribution if aggregated
		forged, err := ctx.NewParty(d.first).EncryptGradients([]float64{0.9, 0.9, 0.9, 0.9, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		if err := base.Send(flnet.Message{From: d.first, To: ServerName, Kind: "grads", Payload: encodeCiphertexts(forged)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		run.epoch(d, fed, base)
	}()
	timer := time.NewTimer(runLimit)
	select {
	case <-done:
		timer.Stop()
	case <-timer.C:
		hung = true
		t.Fatalf("seed %d: the epoch did not resolve in %v", d.seed, runLimit)
	}
	fed.Close()
	if hub != nil {
		if _, msgs, _ := hub.Meter().Snapshot(); msgs == 0 {
			t.Error("the TCP hub routed nothing")
		}
		hub.Close()
	}
	if chaos != nil {
		run.stats = chaos.Stats()
	}
	run.refused = wire.refused
	run.recs = journalRecords(t, store)
	return run
}

// epoch runs d's rounds on fed with d's churn and foreign frame; base is the
// transport under the fault wrappers.
func (run *faultRun) epoch(d faultDraw, fed *Federation, base flnet.Transport) {
	for r := 1; r <= d.rounds+1; r++ {
		for _, o := range d.churn[r-1] {
			churn := fed.Leave
			if o.rejoin {
				churn = fed.Rejoin
			}
			run.accepted = append(run.accepted, churn(o.name) == nil)
		}
		if r > d.rounds {
			break
		}
		wait := time.Duration(1) // in process a deadline reads the queue
		if r == d.foreignAt {
			base.Send(flnet.Message{From: d.foreignFrom, To: ServerName, Kind: "resume", Round: uint64(r), Payload: make([]byte, 20)})
			if d.tcp { // connections are not ordered against each other
				time.Sleep(100 * time.Millisecond)
				wait = 200 * time.Millisecond
			}
		}
		sum, rep, err := fed.SecureAggregateReport(run.grads[r-1])
		rep.Anatomy = nil // its HE sim, and the tree's, read the host clock on the host loop
		if rep.Tree != nil {
			tree := *rep.Tree
			tree.LevelSimNs, rep.Tree = nil, &tree
		}
		run.sums, run.reports, run.errs = append(run.sums, sum), append(run.reports, rep), append(run.errs, err)
		for r == d.foreignAt {
			msg, err := base.RecvTimeout(d.foreignFrom, wait)
			if err != nil {
				break
			}
			run.answered = run.answered || msg.Round == uint64(r)
		}
	}
	cts, err := run.ctx.NewParty("host").EncryptGradients(run.grads[0][0])
	for _, c := range cts {
		run.next = append(run.next, c.C.Bytes())
	}
	run.nextErr = err
}

// checkFault runs d and holds the run to the round contract and to the runs
// that must give its outcome: a second run, and the transport-, fault- or
// retry-free twin the draw has. It returns the run and that twin.
func checkFault(t *testing.T, d faultDraw) (run, ref faultRun) {
	t.Helper()
	run = runDraw(t, d)
	checkRun(t, d, run)
	pol := d.p.Round
	switch {
	case d.tcp:
		if c := d.chaos; c != nil && (c.DropProb > 0 && c.DropProb < 1 || c.DupProb > 0 && c.DupProb < 1 || c.ReorderProb > 0) {
			return run, ref // arrival order across connections decides the outcome
		}
		sim := d
		sim.tcp = false
		ref = runDraw(t, sim)
		if !sameResults(run.sweepRun, ref.sweepRun) || !reflect.DeepEqual(views(run.reports), views(ref.reports)) ||
			!slices.Equal(journalLines(t, run.recs), journalLines(t, ref.recs)) {
			t.Fatalf("over TCP %+v %v\nin process %+v %v", views(run.reports), run.errs, views(ref.reports), ref.errs)
		}
		return run, ref
	case d.chaos == nil && d.failing == 0:
		// No network fault: the device faults, the topology and the deadline
		// are invisible.
		flat := d
		flat.p.Cohort.Fanout, flat.p.Cohort.MaxInflight, flat.p.Round.PhaseTimeout, flat.p.Faults = 0, 0, 0, FaultPolicy{}
		ref = runDraw(t, flat)
		if !sameResults(run.sweepRun, ref.sweepRun) || !maps.Equal(replayed(t, run.recs).Digests, replayed(t, ref.recs).Digests) ||
			!slices.EqualFunc(run.next, ref.next, bytes.Equal) || run.nextErr != nil {
			t.Fatalf("the same draw flat, fault-free and without a deadline differs:\n%v %+v %v\n%v %+v %v",
				run.sums, run.reports, run.errs, ref.sums, ref.reports, ref.errs)
		}
	case d.failing > 0:
		// The twin fails to send min(k, MaxRetries) times fewer and has as
		// many fewer retries: the same rounds, that many frames cheaper.
		n := min(d.failing, pol.MaxRetries)
		twin := d
		twin.failing, twin.p.Round.MaxRetries = d.failing-n, pol.MaxRetries-n
		ref = runDraw(t, twin)
		a, b := run.ctx.Costs.Snapshot(), ref.ctx.Costs.Snapshot()
		k := int64(n)
		if !sameResults(run.sweepRun, ref.sweepRun) || a.RetryMsgs-b.RetryMsgs != k || a.CommBytes-b.CommBytes != k*run.refused ||
			a.CommSim-b.CommSim != time.Duration(k)*run.ctx.Link.TransferTime(run.refused) {
			t.Fatalf("%d retries of a %d B upload: ledger %+v, twin's %+v; rounds %+v %v, twin's %+v %v",
				n, run.refused, a, b, run.reports, run.errs, ref.reports, ref.errs)
		}
	}
	again := runDraw(t, d)
	if !reflect.DeepEqual(run.reports, again.reports) || fmt.Sprint(run.errs) != fmt.Sprint(again.errs) ||
		!reflect.DeepEqual(run.sums, again.sums) || run.stats != again.stats {
		t.Fatalf("two runs diverged:\n%+v %v %+v\n%+v %v %+v", run.reports, run.errs, run.stats, again.reports, again.errs, again.stats)
	}
	return run, ref
}

// checkRun holds one run to the invariants and to what d's schedule
// predicts.
func checkRun(t *testing.T, d faultDraw, run faultRun) {
	t.Helper()
	checkOracle(t, run.sweepRun)
	p, pol, c := d.p, d.p.Round, flnet.ChaosConfig{}
	if d.chaos != nil {
		c = *d.chaos
	}
	silent := c.DropProb > 0 || c.DropFrom != "" || c.StragglerParty != ""
	lossless := !d.tcp && !silent && c.FailRecvAt == 0 && (c.FailSendAt == 0 || pol.MaxRetries > 0) && d.failing <= pol.MaxRetries
	victim := c.DropFrom + c.StragglerParty // at most one is drawn
	width := int64(run.ctx.PlaintextCount(len(run.grads[0][0])))
	m, op := newRosterModel(p.Parties), 0
	churn := func(r int) {
		for _, o := range d.churn[r-1] {
			if want := m.apply(o); run.accepted[op] != want {
				t.Fatalf("before round %d the roster accepted %+v: %t, want %t", r, o, run.accepted[op], want)
			}
			op++
		}
	}
	for r := 1; r <= d.rounds; r++ {
		churn(r)
		admitted, roster := m.admit(p.Parties)
		cohort := p.Schedule(roster, uint64(r)).Cohort
		quorum := pol.EffectiveQuorum(len(cohort))
		budget := len(cohort) - quorum
		rep, err := run.reports[r-1], run.errs[r-1]
		var rerr RoundError
		if re := (*RoundError)(nil); errors.As(err, &re) {
			rerr = *re
		}
		admit := len(cohort) == 0 || pol.Quorum > 0 && len(cohort) < pol.Quorum
		gathered := err == nil || rerr.Phase == PhaseBroadcast || rerr.Phase == PhaseDecrypt
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("round %d (cohort %v, quorum %d): %s\n%+v %v", r, cohort, quorum, fmt.Sprintf(format, args...), rep, err)
		}
		switch {
		case err != nil && rerr.Round != uint64(r):
			fail("failed as round %d", rerr.Round)
		case admit != (rerr.Phase == PhaseAdmit):
			fail("an admission failure predicted %t", admit)
		case !slices.Equal(rep.Admitted, admitted) || rep.CohortSize != len(cohort):
			fail("admitted %v, want %v", rep.Admitted, admitted)
		case err == nil && (len(rep.Dropped) > budget || len(rep.Included) < quorum):
			fail("completed past its drop budget %d", budget)
		case err != nil && len(rep.Dropped) > budget && rep.Dropped[rerr.Party] != rerr.Phase:
			fail("past the budget, the failure does not name the drop that exhausted it")
		case err != nil && len(rep.Dropped) <= budget && rerr.Phase != PhaseAdmit && rerr.Phase != PhaseDecrypt &&
			(rerr.Party != "" || strings.Contains(rerr.Err.Error(), "uploads below quorum")):
			fail("failed within its drop budget %d for no whole-round cause", budget)
		case lossless && !admit && (err != nil || !slices.Equal(rep.Included, cohort)):
			fail("lost a client with no fault that loses a frame")
		case r == 1 && d.failing > 0 && (rep.Dropped[d.first] == PhaseUpload) != (d.failing > pol.MaxRetries):
			fail("%d failed uploads of %s with %d retries", d.failing, d.first, pol.MaxRetries)
		case victim != "" && gathered && slices.Contains(cohort, victim) &&
			rep.Dropped[victim] != PhaseGather && (c.FailSendAt == 0 || rep.Dropped[victim] != PhaseUpload):
			fail("%s, silenced or late, was not dropped in gather", victim)
		case gathered && rep.Stale == 0 && (r == 1 && d.forged || r == d.foreignAt):
			fail("a past-round or foreign-kind frame was not discarded")
		case r == d.foreignAt && run.answered:
			fail("the departed %s's foreign-kind frame was answered", d.foreignFrom)
		}
		for _, n := range rep.Included {
			if !slices.Contains(cohort, n) {
				fail("included %s from outside the cohort", n)
			}
		}
		for n, phase := range rep.Dropped {
			if slices.Contains(rep.Included, n) != (phase == PhaseBroadcast || phase == PhaseDecrypt) {
				fail("%s dropped in %s, included %t", n, phase, slices.Contains(rep.Included, n))
			}
		}
		if err == nil && !rep.Resumed {
			tree := p.Cohort.Tree()
			switch {
			case (rep.Tree != nil) != tree:
				fail("tree stats on the wrong topology")
			case tree && (rep.Tree.Leaves != len(rep.Included) || rep.PeakLiveCts <= 0 || rep.PeakLiveCts > int64(rep.Tree.Depth+1)*width):
				fail("tree %+v, %d live ciphertexts of width %d", rep.Tree, rep.PeakLiveCts, width)
			case !tree && rep.PeakLiveCts > 2*width:
				fail("flat round held %d live ciphertexts of width %d", rep.PeakLiveCts, width)
			}
		}
	}
	churn(d.rounds + 1)

	costs, st, dev := run.ctx.Costs.Snapshot(), run.ctx.Checked.Stats(), gpu.Sum(run.ctx.Checked.Devices())
	retries := int64(min(d.failing, pol.MaxRetries))
	if pol.MaxRetries > 0 {
		retries += run.stats.Failed
	}
	inj := p.Faults.Inject
	switch {
	case c.FailRecvAt == 0 && costs.RetryMsgs != retries:
		t.Fatalf("charged %d retries, want %d", costs.RetryMsgs, retries)
	case costs.HESim < st.HostSim:
		t.Fatalf("HE sim %v below the host loop's %v", costs.HESim, st.HostSim)
	case !p.UseGPU():
		st.Ops, st.HostShards, st.HostSim = 0, 0, 0
		if dev != (gpu.Stats{Health: gpu.DeviceHealthy}) || st != (ghe.CheckedStats{}) {
			t.Fatalf("CPU profile fault ledgers not zero: %+v, %+v", dev, st)
		}
	case inj.KillAtLaunch > 0 && (dev.Health != gpu.DeviceFailed || dev.FaultAborts == 0 || st.HostShards == 0),
		inj.Enabled() && dev.FaultAborts+dev.FaultCorruptions+dev.FaultStalls+dev.FaultOOMs == 0,
		dev.SimFaultTime < time.Duration(dev.FaultStalls)*gpu.WatchdogWindow:
		t.Fatalf("device faults %+v missing from the ledgers: %+v, executor %+v", inj, dev, st)
	}
}

// sameResults reports whether two runs agree round by round on the result's
// bits, the error and the included clients (a failed round's in arrival
// order).
func sameResults(a, b sweepRun) bool {
	for r := range a.errs {
		if !sameBits(a.sums[r], b.sums[r]) || fmt.Sprint(a.errs[r]) != fmt.Sprint(b.errs[r]) ||
			!slices.Equal(sorted(a.reports[r].Included), sorted(b.reports[r].Included)) {
			return false
		}
	}
	return len(a.errs) == len(b.errs)
}

func sorted(names []string) []string {
	names = slices.Clone(names)
	slices.Sort(names)
	return names
}

// views keeps of each report what is the same on every transport: the
// stale and duplicate tallies depend on arrival order, and so does the order
// of a failed round's Included.
func views(reps []RoundReport) []RoundReport {
	out := make([]RoundReport, len(reps))
	for i, rep := range reps {
		out[i] = RoundReport{Round: rep.Round, Included: sorted(rep.Included), Dropped: rep.Dropped, Scale: rep.Scale,
			Attempt: rep.Attempt, Resumed: rep.Resumed, Retries: rep.Retries, Admitted: rep.Admitted}
	}
	return out
}

// tcpMesh puts a whole federation on real TCP: one flnet.TCPClient a party,
// all through one hub, behind the Transport interface the in-process host
// drives. A message leaves on its sender's connection and is received on its
// recipient's, so the hub sees exactly what it would see from N+1 processes.
type tcpMesh struct {
	conns map[string]*flnet.TCPClient
}

func newTCPMesh(t *testing.T, hub *flnet.TCPHub, parties []string) *tcpMesh {
	t.Helper()
	m := &tcpMesh{conns: make(map[string]*flnet.TCPClient, len(parties))}
	for _, name := range parties {
		c, err := flnet.DialHub(hub.Addr(), name)
		if err != nil {
			t.Fatal(err)
		}
		m.conns[name] = c
	}
	// The hub registers a connection when it gets round to its hello, and
	// until then routes the name to its previous connection — a crashed
	// federation's, in the recovery scenarios. A frame a party sends itself
	// comes back only through its new registration, so once every party has
	// its own, the mesh is the one the hub routes to.
	for name, c := range m.conns {
		if err := c.Send(flnet.Message{From: name, To: name, Kind: "registered"}); err != nil {
			t.Fatal(err)
		}
		if msg, err := c.RecvTimeout(name, 10*time.Second); err != nil || msg.Kind != "registered" {
			t.Fatalf("%s never heard itself through the hub: %+v, %v", name, msg, err)
		}
	}
	return m
}

func (m *tcpMesh) Send(msg flnet.Message) error {
	c, ok := m.conns[msg.From]
	if !ok {
		return fmt.Errorf("tcpMesh: no connection for sender %q", msg.From)
	}
	return c.Send(msg)
}

func (m *tcpMesh) Recv(party string) (flnet.Message, error) { return m.RecvTimeout(party, 0) }

func (m *tcpMesh) RecvTimeout(party string, d time.Duration) (flnet.Message, error) {
	c, ok := m.conns[party]
	if !ok {
		return flnet.Message{}, fmt.Errorf("tcpMesh: no connection for %q", party)
	}
	return c.RecvTimeout(party, d)
}

func (m *tcpMesh) Close() error {
	for _, c := range m.conns {
		c.Close()
	}
	return nil
}

func journalLines(t *testing.T, recs []JournalRecord) []string {
	t.Helper()
	lines := make([]string, len(recs))
	for i, rec := range recs {
		blob, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(blob)
	}
	return lines
}

// TestFaultCheck runs checkSeeds drawn epochs through checkFault; see the
// comment above checkSeeds.
func TestFaultCheck(t *testing.T) {
	warm := pinnedDraw(SystemFLBooster, 1, quorumPolicy) // starts the device worker pool
	checkFault(t, warm)
	baseline := runtime.NumGoroutine()
	for seed := uint64(1); seed <= checkSeeds && !hung; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkFault(t, drawFault(seed)) })
		for deadline := time.Now().Add(2 * time.Second); !hung && runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: %d goroutines outlive its runs, %d before", seed, runtime.NumGoroutine(), baseline)
			}
		}
	}
}

// quorumPolicy is the pinned rows' usual policy: one loss in four
// tolerated, 200 ms phases, two retries.
var quorumPolicy = RoundPolicy{Quorum: 3, PhaseTimeout: 200 * time.Millisecond, MaxRetries: 2}

// pinnedDraw is a fault-free draw of rounds rounds over four parties.
func pinnedDraw(sys System, rounds int, pol RoundPolicy) faultDraw {
	p := testProfile(sys)
	p.Round = pol
	return faultDraw{p: p, rounds: rounds, first: ClientName(0), churn: make([][]churnOp, rounds+1)}
}

// cohortDraw is pinnedDraw over nine parties.
func cohortDraw(sys System, rounds int, cohort CohortPolicy, pol RoundPolicy) faultDraw {
	d := pinnedDraw(sys, rounds, pol)
	d.p.Parties, d.p.Cohort = 9, cohort
	d.first = d.p.Schedule(ClientNames(9), 1).Cohort[0]
	return d
}

func errorsOf(t *testing.T, run faultRun, want ...bool) {
	t.Helper()
	for r, err := range run.errs {
		if (err != nil) != want[r] {
			t.Fatalf("round %d: error %v, want one: %t", r+1, err, want[r])
		}
	}
}

// TestChaosRoundsCompleteOrFailTyped: the quorum profile under seeded
// drops, duplicates and reorders, four rounds a seed.
func TestChaosRoundsCompleteOrFailTyped(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			d := pinnedDraw(SystemFLBooster, 4, quorumPolicy)
			d.chaos = &flnet.ChaosConfig{Seed: seed, DropProb: 0.15, DupProb: 0.15, ReorderProb: 0.2}
			checkFault(t, d)
		})
	}
}

// TestStragglerDegradesGracefully: a client whose every frame is late is
// cut off in gather each round, and the epoch's modelled clock does not pay
// for it: one aggregate copy a round fewer, and less HE.
func TestStragglerDegradesGracefully(t *testing.T) {
	d := pinnedDraw(SystemFLBooster, 3, quorumPolicy)
	clean, _ := checkFault(t, d)
	d.chaos = &flnet.ChaosConfig{Seed: 11, StragglerParty: ClientName(0)}
	run, _ := checkFault(t, d)
	a, b := run.ctx.Costs.Snapshot(), clean.ctx.Costs.Snapshot()
	if a.CommMsgs != b.CommMsgs-3 || a.CommSim >= b.CommSim || a.HESim >= b.HESim {
		t.Fatalf("degraded ledger %+v, clean %+v", a, b)
	}
}

// TestSecureAggregateSurvivesDeviceDeath: a fleet of each size that dies
// at a member's second launch, corrupts results or stalls leaves every
// round, digest and the next encryption as the healthy fleet's.
func TestSecureAggregateSurvivesDeviceDeath(t *testing.T) {
	for _, devices := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("Devices=%d", devices), func(t *testing.T) {
			d := pinnedDraw(SystemFLBooster, 2, RoundPolicy{})
			d.p.Devices = devices
			d.p.Faults = FaultPolicy{Inject: gpu.FaultConfig{Seed: 1, KillAtLaunch: 2}}
			killed, healthy := checkFault(t, d)
			t.Run("PostFailoverCiphertexts", func(t *testing.T) {
				if len(killed.next) == 0 || !slices.EqualFunc(killed.next, healthy.next, bytes.Equal) {
					t.Fatal("the dead fleet's next encryption differs from the healthy one's")
				}
			})
			d.p.Faults = FaultPolicy{Inject: gpu.FaultConfig{Seed: 7, CorruptProb: 0.1},
				Check: ghe.CheckedConfig{MaxRetries: 8, VerifyFraction: 1}}
			checkFault(t, d)
			d.p.Faults = FaultPolicy{Inject: gpu.FaultConfig{Seed: 7, StallProb: 0.25}, Check: ghe.CheckedConfig{MaxRetries: 8}}
			checkFault(t, d)
		})
	}
}

// TestCPUProfileFaultLedgersZero: a CPU profile ignores a device fault
// policy; its host loop serves every HE op and its fault ledgers stay zero.
func TestCPUProfileFaultLedgersZero(t *testing.T) {
	d := pinnedDraw(SystemFATE, 3, RoundPolicy{})
	d.p.Faults = FaultPolicy{Inject: gpu.FaultConfig{Seed: 1, AbortProb: 0.5, KillAtLaunch: 1}}
	if run, _ := checkFault(t, d); run.ctx.Checked.Stats().HostSim == 0 {
		t.Fatal("the host loop served nothing")
	}
}

// TestSecureAggregateSurfacesTransportFailures: on the strict profile a
// failed send or receive in each phase fails the round.
func TestSecureAggregateSurfacesTransportFailures(t *testing.T) {
	// A round's operations: 4 uploads, 4 server receives, 4 broadcasts, 4 client receives.
	for _, fault := range []struct {
		name string
		cfg  flnet.ChaosConfig
	}{
		{"upload-send", flnet.ChaosConfig{FailSendAt: 1}},
		{"server-recv", flnet.ChaosConfig{FailRecvAt: 2}},
		{"broadcast-send", flnet.ChaosConfig{FailSendAt: 6}},
		{"client-recv", flnet.ChaosConfig{FailRecvAt: 5}},
	} {
		t.Run(fault.name, func(t *testing.T) {
			d := pinnedDraw(SystemFLBooster, 1, RoundPolicy{})
			d.chaos = &fault.cfg
			run, _ := checkFault(t, d)
			errorsOf(t, run, true)
		})
	}
}

// TestSecureAggregateRecoversAfterTransientFault: a federation whose round
// failed runs the next one cleanly.
func TestSecureAggregateRecoversAfterTransientFault(t *testing.T) {
	d := pinnedDraw(SystemFLBooster, 2, RoundPolicy{})
	d.chaos = &flnet.ChaosConfig{FailSendAt: 1}
	run, _ := checkFault(t, d)
	errorsOf(t, run, true, false)
}

// TestQuorumRoundSurvivesDroppedUpload: one silently dropped upload is
// absorbed by the quorum; the aggregate is the 4/3-scaled oracle.
func TestQuorumRoundSurvivesDroppedUpload(t *testing.T) {
	d := pinnedDraw(SystemFLBooster, 1, quorumPolicy)
	d.chaos = &flnet.ChaosConfig{DropFrom: ClientName(2), DropKind: "grads"}
	run, _ := checkFault(t, d)
	errorsOf(t, run, false)
}

// TestDuplicateBroadcastLeavesAggregateUnchanged: every frame delivered
// twice; round 1 discards the duplicates, round 2 round 1's leftovers.
func TestDuplicateBroadcastLeavesAggregateUnchanged(t *testing.T) {
	d := pinnedDraw(SystemFLBooster, 2, quorumPolicy)
	d.chaos = &flnet.ChaosConfig{Seed: 5, DupProb: 1}
	run, _ := checkFault(t, d)
	if errorsOf(t, run, false, false); run.reports[0].Duplicates == 0 || run.reports[1].Stale == 0 {
		t.Fatalf("duplicates %d in round 1, stale %d in round 2", run.reports[0].Duplicates, run.reports[1].Stale)
	}
}

// TestStaleRoundMessageDiscarded: a forged upload of round 0 queued ahead
// of round 1 is discarded as stale, not folded.
func TestStaleRoundMessageDiscarded(t *testing.T) {
	d := pinnedDraw(SystemFLBooster, 1, quorumPolicy)
	d.forged = true
	checkFault(t, d)
}

// TestRoundErrorTyping: a strict round's failed upload names the phase, the
// party and the round, and keeps its cause.
func TestRoundErrorTyping(t *testing.T) {
	d := pinnedDraw(SystemFLBooster, 1, RoundPolicy{})
	d.chaos = &flnet.ChaosConfig{FailSendAt: 1}
	run, _ := checkFault(t, d)
	if rerr := asRoundError(t, run.errs[0], PhaseUpload); rerr.Party != ClientName(0) || rerr.Round != 1 || rerr.Unwrap() == nil {
		t.Fatalf("round error = %+v", rerr)
	}
}

// TestRetryPolicyAbsorbsTransientSendFailure: one failed send is re-sent,
// charged as one retry, and drops nobody.
func TestRetryPolicyAbsorbsTransientSendFailure(t *testing.T) {
	d := pinnedDraw(SystemFLBooster, 1, quorumPolicy)
	d.chaos = &flnet.ChaosConfig{FailSendAt: 1}
	run, _ := checkFault(t, d)
	errorsOf(t, run, false)
}

// TestRetryPolicyGivesUpWithinQuorum: an upload that fails on all of its
// 1 + MaxRetries attempts drops its client in upload, within the quorum,
// after MaxRetries retries charged a frame each.
func TestRetryPolicyGivesUpWithinQuorum(t *testing.T) {
	d := pinnedDraw(SystemFLBooster, 1, quorumPolicy)
	d.failing = 3
	run, _ := checkFault(t, d)
	errorsOf(t, run, false)
}

// TestQuorumBelowThresholdFails: with every frame dropped the round fails
// in gather, at its deadline.
func TestQuorumBelowThresholdFails(t *testing.T) {
	d := pinnedDraw(SystemFLBooster, 1, quorumPolicy)
	d.chaos = &flnet.ChaosConfig{Seed: 1, DropProb: 1}
	run, _ := checkFault(t, d)
	asRoundError(t, run.errs[0], PhaseGather)
}

// TestPassedDeadlineStillReadsTheQueue: in process a deadline is read off
// the queue. With a 1 ns deadline every upload and broadcast is in, flat and
// tree, and the sums are those of the same draw without a deadline.
func TestPassedDeadlineStillReadsTheQueue(t *testing.T) {
	for _, fanout := range []int{0, 3} {
		checkFault(t, cohortDraw(SystemFATE, 1, CohortPolicy{Fanout: fanout}, RoundPolicy{Quorum: 1, PhaseTimeout: time.Nanosecond}))
	}
}

// TestTransportMatrix runs order-independent schedules over a loopback TCP
// mesh, each equal to its in-process run to the journal line, and crash
// rows of the sweep whose coordinator and successor dial one hub.
func TestTransportMatrix(t *testing.T) {
	straggler := pinnedDraw(SystemFLBooster, 2, quorumPolicy)
	straggler.chaos = &flnet.ChaosConfig{Seed: 1, StragglerParty: ClientName(1)}
	dropped := pinnedDraw(SystemFLBooster, 2, quorumPolicy)
	dropped.chaos = &flnet.ChaosConfig{DropFrom: ClientName(2), DropKind: "grads"}
	doubled := pinnedDraw(SystemFLBooster, 2, quorumPolicy)
	doubled.forged, doubled.chaos = true, &flnet.ChaosConfig{Seed: 5, DupProb: 1}
	retry := pinnedDraw(SystemFLBooster, 1, quorumPolicy)
	retry.chaos = &flnet.ChaosConfig{FailSendAt: 1}
	foreign := pinnedDraw(SystemFLBooster, 1, quorumPolicy)
	foreign.churn[0] = []churnOp{{ClientName(3), false}}
	foreign.foreignAt, foreign.foreignFrom = 1, ClientName(3)
	for _, row := range []struct {
		name string
		d    faultDraw
	}{
		{"quorum-dropped-upload", dropped}, {"straggler", straggler}, {"stale-and-duplicate", doubled},
		{"retry", retry}, {"churn-foreign-kind", foreign},
		{"sampled-tree", cohortDraw(SystemFLBooster, 3, CohortPolicy{Size: 6, Fanout: 3, MaxInflight: 4}, quorumPolicy)},
	} {
		t.Run(row.name, func(t *testing.T) {
			row.d.tcp = true
			run, _ := checkFault(t, row.d)
			if row.name == "straggler" && run.reports[1].Stale == 0 {
				t.Fatal("round 2 did not discard the straggler's round-1 upload")
			}
		})
	}
	for _, row := range []struct {
		name string
		sp   sweepProfile
		kind EventKind
	}{
		{"crash-resume/round-start", sweepProfiles()[0], EventRoundStart},
		{"crash-resume/aggregated", sweepProfiles()[0], EventAggregated},
		{"crash-resume/aggregated-tree", sweepProfiles()[1], EventAggregated},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := sweepCase{row.kind, 2, ""}
			want := runSweep(t, row.sp, c, true, false)
			hub, err := flnet.NewTCPHub("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer hub.Close()
			row.sp.hub = hub
			got := runSweep(t, row.sp, c, true, false)
			checkBitExact(t, c, want, got)
			if !reflect.DeepEqual(views(got.reports), views(want.reports)) || !slices.Equal(journalLines(t, got.recs), journalLines(t, want.recs)) {
				t.Fatalf("over TCP %+v, in process %+v", views(got.reports), views(want.reports))
			}
		})
	}
}

// TestChurnLeaveRejoinAdmission: a departed client stops contributing, a
// rejoin parks it, and the next boundary admits it.
func TestChurnLeaveRejoinAdmission(t *testing.T) {
	d := pinnedDraw(SystemFLBooster, 3, quorumPolicy)
	d.churn[1] = []churnOp{{ClientName(1), false}}
	d.churn[2] = []churnOp{{ClientName(1), true}}
	checkFault(t, d)
}

// TestChurnLeaveRejoinSameRound is the regression for the tightest churn
// window: a client that leaves and rejoins between two boundaries is
// admitted once, and burns none of the round's drop budget; a second rejoin
// in the window, and a leave while pending, are refused.
func TestChurnLeaveRejoinSameRound(t *testing.T) {
	d := pinnedDraw(SystemFLBooster, 1, quorumPolicy)
	c2 := ClientName(2)
	d.churn[0] = []churnOp{{c2, false}, {c2, true}, {c2, true}}
	d.churn[1] = []churnOp{{c2, false}, {c2, true}, {c2, false}}
	if run, _ := checkFault(t, d); !slices.Equal(run.accepted, []bool{true, true, false, true, true, false}) {
		t.Fatalf("churn accepted %v", run.accepted)
	}
}

// TestChurnBelowQuorumFailsTyped: departures below the quorum fail the
// round at admission until a rejoin restores it.
func TestChurnBelowQuorumFailsTyped(t *testing.T) {
	d := pinnedDraw(SystemFATE, 2, quorumPolicy)
	d.churn[0] = []churnOp{{ClientName(0), false}, {ClientName(1), false}}
	d.churn[1] = []churnOp{{ClientName(0), true}}
	run, _ := checkFault(t, d)
	errorsOf(t, run, true, false)
}

// TestTreeRoundBitExactWithFlat: every delivery topology, sampled or not,
// journals and decrypts what the flat single wave does.
func TestTreeRoundBitExactWithFlat(t *testing.T) {
	for _, size := range []int{0, 6} {
		t.Run(map[int]string{0: "plain", 6: "sampled"}[size], func(t *testing.T) {
			for _, topo := range [][2]int{{3, 4}, {16, 0}, {0, 1}, {0, 3}} {
				checkFault(t, cohortDraw(SystemFLBooster, 3, CohortPolicy{Size: size, Fanout: topo[0], MaxInflight: topo[1]}, RoundPolicy{}))
			}
		})
	}
}

// TestTreeRoundBoundsLiveCiphertexts: a flat round holds exactly 2·width
// live ciphertexts — the running sum and the upload being folded — and a
// tree of depth ≥ 2 over the whole cohort at most (depth+1)·width.
func TestTreeRoundBoundsLiveCiphertexts(t *testing.T) {
	flat, _ := checkFault(t, cohortDraw(SystemFLBooster, 1, CohortPolicy{}, RoundPolicy{}))
	tree, _ := checkFault(t, cohortDraw(SystemFLBooster, 1, CohortPolicy{Fanout: 3}, RoundPolicy{}))
	if w := int64(flat.ctx.PlaintextCount(5)); flat.reports[0].PeakLiveCts != 2*w || tree.reports[0].Tree.Depth < 2 || tree.reports[0].Tree.Leaves != 9 {
		t.Fatalf("flat peak %d of width %d, tree %+v", flat.reports[0].PeakLiveCts, w, tree.reports[0].Tree)
	}
}

// TestSampledCohortSchedulesSubset: with Cohort.Size < N only the sampled
// clients contribute, scaled to the full-federation estimate.
func TestSampledCohortSchedulesSubset(t *testing.T) {
	checkFault(t, cohortDraw(SystemFLBooster, 2, CohortPolicy{Size: 5, Fanout: 2}, RoundPolicy{}))
}

// TestTreeRoundSurvivesDroppedUpload: a silently dropped upload mid-wave is
// cut off at the wave deadline and the tree folds one leaf fewer.
func TestTreeRoundSurvivesDroppedUpload(t *testing.T) {
	d := cohortDraw(SystemFATE, 1, CohortPolicy{Fanout: 3, MaxInflight: 4}, RoundPolicy{Quorum: 8, PhaseTimeout: 200 * time.Millisecond, MaxRetries: 1})
	d.chaos = &flnet.ChaosConfig{DropFrom: ClientName(2), DropKind: "grads"}
	run, _ := checkFault(t, d)
	errorsOf(t, run, false)
}
