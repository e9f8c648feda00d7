package fl

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"flbooster/internal/flnet"
)

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

// wiring puts a federation on one of the transports the matrix runs over.
// One wiring serves every federation of a scenario (a crashed coordinator and
// its recovered successor share the TCP hub, as restarted processes would).
type wiring func(fed *Federation)

var transportKinds = []struct {
	name string
	wire func(t *testing.T) wiring
}{
	{"sim", func(*testing.T) wiring { return func(*Federation) {} }},
	{"chaos-zero", func(*testing.T) wiring {
		return func(fed *Federation) {
			fed.Transport = flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{Seed: 3})
		}
	}},
	{"tcp", func(t *testing.T) wiring {
		hub, err := flnet.NewTCPHub("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if _, msgs, _ := hub.Meter().Snapshot(); msgs == 0 {
				t.Error("the tcp leg routed nothing through its hub")
			}
			hub.Close()
		})
		return func(fed *Federation) {
			fed.Transport.Close()
			fed.Transport = newTCPMesh(t, hub, append(ClientNames(fed.Ctx.Profile.Parties), ServerName))
		}
	}},
}

// outcome is what a scenario must produce identically on every transport:
// who was included and dropped and at what scale, the decrypted vectors bit
// for bit, and the journal — records, digests and payloads.
type outcome struct {
	Rounds  []roundView
	Journal []string
}

type roundView struct {
	Included []string
	Dropped  map[string]RoundPhase
	Scale    float64
	Attempt  uint32
	Resumed  bool
	Retries  int64
	SumBits  []uint64
	Err      string
}

func viewRound(sum []float64, rep RoundReport, err error) roundView {
	v := roundView{Included: rep.Included, Dropped: rep.Dropped, Scale: rep.Scale,
		Attempt: rep.Attempt, Resumed: rep.Resumed, Retries: rep.Retries}
	for _, x := range sum {
		v.SumBits = append(v.SumBits, math.Float64bits(x))
	}
	if err != nil {
		v.Err = err.Error()
	}
	return v
}

func journalLines(t *testing.T, store JournalStore) []string {
	t.Helper()
	recs := journalRecords(t, store)
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

// journaledFed builds a federation of p on the wiring, journaling to store.
func journaledFed(t *testing.T, p Profile, wire wiring, store JournalStore) *Federation {
	t.Helper()
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	wire(fed)
	fed.AttachJournal(mustJournal(t, store))
	t.Cleanup(func() { fed.Close() })
	return fed
}

// runRounds runs `rounds` rounds and views each.
func runRounds(t *testing.T, fed *Federation, rounds int, dim int) []roundView {
	t.Helper()
	grads := epochGrads(rounds, fed.Ctx.Profile.Parties, dim)
	views := make([]roundView, rounds)
	for r := range views {
		views[r] = viewRound(fed.SecureAggregateReport(grads[r]))
	}
	return views
}

// matrixScenarios are the fault, degraded-mode, cross-device and
// crash-recovery suites, each as one function of the wiring.
var matrixScenarios = []struct {
	name string
	run  func(t *testing.T, wire wiring) outcome
}{
	{"quorum-dropped-upload", func(t *testing.T, wire wiring) outcome {
		store := NewMemStore()
		fed := journaledFed(t, quorumProfile(SystemFLBooster), wire, store)
		fed.Transport = flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{DropFrom: ClientName(2), DropKind: "grads"})
		views := runRounds(t, fed, 2, 5)
		for _, v := range views {
			if v.Err != "" || len(v.Included) != 3 || v.Dropped[ClientName(2)] != PhaseGather {
				t.Fatalf("dropped upload not absorbed by the quorum: %+v", v)
			}
		}
		return outcome{views, journalLines(t, store)}
	}},
	{"straggler", func(t *testing.T, wire wiring) outcome {
		store := NewMemStore()
		fed := journaledFed(t, quorumProfile(SystemFLBooster), wire, store)
		fed.Transport = flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{Seed: 1, StragglerParty: ClientName(1)})
		// The late upload lands behind round 1's gather deadline: round 2
		// must discard it as stale.
		views := runRounds(t, fed, 1, 5)
		grads := epochGrads(2, 4, 5)
		sum, rep, err := fed.SecureAggregateReport(grads[1])
		views = append(views, viewRound(sum, rep, err))
		if rep.Stale == 0 {
			t.Fatalf("round 2 did not discard the straggler's round-1 upload: %+v", rep)
		}
		for _, v := range views {
			if v.Err != "" || v.Dropped[ClientName(1)] != PhaseGather {
				t.Fatalf("straggler not cut off at the gather deadline: %+v", v)
			}
		}
		return outcome{views, journalLines(t, store)}
	}},
	{"stale-and-duplicate", func(t *testing.T, wire wiring) outcome {
		store := NewMemStore()
		fed := journaledFed(t, quorumProfile(SystemFLBooster), wire, store)
		// A forged upload from a past round that would double client0's
		// contribution if aggregated, then every frame delivered twice.
		forged, err := fed.Ctx.NewParty(ClientName(0)).EncryptGradients([]float64{0.9, 0.9, 0.9, 0.9, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		if err := fed.Transport.Send(flnet.Message{
			From: ClientName(0), To: ServerName, Kind: "grads", Round: 0, Payload: encodeCiphertexts(forged),
		}); err != nil {
			t.Fatal(err)
		}
		fed.Transport = flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{Seed: 5, DupProb: 1})
		grads := epochGrads(2, 4, 5)
		var views []roundView
		discarded := 0
		for r := range grads {
			sum, rep, err := fed.SecureAggregateReport(grads[r])
			views = append(views, viewRound(sum, rep, err))
			discarded += rep.Stale + rep.Duplicates
		}
		// How the discards split between stale and duplicate depends on
		// arrival order; that none of them was aggregated is in the sums.
		if discarded < 4 {
			t.Fatalf("only %d frames discarded with a forged upload and every frame doubled", discarded)
		}
		return outcome{views, journalLines(t, store)}
	}},
	{"retry", func(t *testing.T, wire wiring) outcome {
		store := NewMemStore()
		fed := journaledFed(t, quorumProfile(SystemFLBooster), wire, store)
		fed.Transport = flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{FailSendAt: 1})
		views := runRounds(t, fed, 1, 5)
		if v := views[0]; v.Err != "" || v.Retries != 1 || len(v.Dropped) != 0 {
			t.Fatalf("one failed send not absorbed by one retry: %+v", v)
		}
		if fed.Ctx.Costs.Snapshot().RetryMsgs != 1 {
			t.Fatal("retry traffic not charged to the cost model")
		}
		return outcome{views, journalLines(t, store)}
	}},
	{"churn-foreign-kind", func(t *testing.T, wire wiring) outcome {
		store := NewMemStore()
		fed := journaledFed(t, quorumProfile(SystemFLBooster), wire, store)
		if err := fed.Leave(ClientName(3)); err != nil {
			t.Fatal(err)
		}
		// A departed client sends a frame of a kind the coordinator does not
		// speak into the gathering round: it is discarded as stale, unanswered.
		if err := fed.Transport.Send(flnet.Message{
			From: ClientName(3), To: ServerName, Kind: "resume", Round: 1, Payload: make([]byte, 20),
		}); err != nil {
			t.Fatal(err)
		}
		// Connections are not ordered against each other: give the frame time
		// to reach the coordinator's queue before any upload is sent.
		time.Sleep(100 * time.Millisecond)
		sum, rep, err := fed.SecureAggregateReport(epochGrads(1, 4, 5)[0])
		v := viewRound(sum, rep, err)
		if v.Err != "" || len(v.Included) != 3 || len(v.Dropped) != 0 || rep.Stale != 1 {
			t.Fatalf("foreign-kind frame perturbed the round or was not discarded: %+v, %d stale", v, rep.Stale)
		}
		if reply, err := fed.Transport.RecvTimeout(ClientName(3), 200*time.Millisecond); !flnet.IsTimeout(err) {
			t.Fatalf("departed client's foreign-kind frame answered %q, %v", reply.Kind, err)
		}
		return outcome{[]roundView{v}, journalLines(t, store)}
	}},
	{"sampled-tree", func(t *testing.T, wire wiring) outcome {
		store := NewMemStore()
		p := cohortProfile(SystemFLBooster)
		p.Cohort = CohortPolicy{Size: 6, Fanout: 3, MaxInflight: 4}
		fed := journaledFed(t, p, wire, store)
		views := runRounds(t, fed, 3, 6)
		for _, v := range views {
			if v.Err != "" || len(v.Included) != 6 {
				t.Fatalf("sampled tree round: %+v", v)
			}
		}
		return outcome{views, journalLines(t, store)}
	}},
	{"crash-resume/round-start", crashResume(EventRoundStart, func(*Profile) {})},
	{"crash-resume/aggregated", crashResume(EventAggregated, func(*Profile) {})},
	{"crash-resume/aggregated-tree", crashResume(EventAggregated, func(p *Profile) { p.Cohort.Fanout = 2 })},
}

// crashResume kills the coordinator the moment `boundary` of round 2 is
// durable, recovers a fresh federation from the journal on the same wiring
// and finishes the epoch.
func crashResume(boundary EventKind, prep func(*Profile)) func(*testing.T, wiring) outcome {
	return func(t *testing.T, wire wiring) outcome {
		const rounds, crashRound = 3, 2
		p := testProfile(SystemFLBooster)
		prep(&p)
		grads := epochGrads(rounds, p.Parties, 5)
		store := NewMemStore()
		fed := journaledFed(t, p, wire, store)
		fed.Journal().Fail = func(rec JournalRecord) error {
			if rec.Kind == boundary && rec.Round == crashRound && rec.Attempt == 1 {
				return ErrCoordinatorCrash
			}
			return nil
		}
		var views []roundView
		for r := 0; r < rounds; r++ {
			sum, rep, err := fed.SecureAggregateReport(grads[r])
			if errors.Is(err, ErrCoordinatorCrash) {
				if r+1 != crashRound {
					t.Fatalf("crashed in round %d, armed for %d", r+1, crashRound)
				}
				fed.Close()
				ctx, err := NewContext(p)
				if err != nil {
					t.Fatal(err)
				}
				if fed, _, err = Recover(ctx, store); err != nil {
					t.Fatal(err)
				}
				wire(fed)
				defer fed.Close()
				r--
				continue
			}
			if err != nil {
				t.Fatalf("round %d: %v", r+1, err)
			}
			views = append(views, viewRound(sum, rep, nil))
		}
		if v := views[crashRound-1]; v.Attempt != 2 || v.Resumed != (boundary == EventAggregated) {
			t.Fatalf("round %d re-ran as attempt %d, resumed %v", crashRound, v.Attempt, v.Resumed)
		}
		return outcome{views, journalLines(t, store)}
	}
}

// TestTransportMatrix runs every scenario over SimTransport, a ChaosTransport
// with a zero fault schedule and a loopback-TCP mesh, and demands one
// outcome: the same code runs the round on all three, so who is included and
// dropped, the scale, the decrypted vectors bit for bit and every journal
// record — digests and payloads included — must be identical.
func TestTransportMatrix(t *testing.T) {
	for _, sc := range matrixScenarios {
		t.Run(sc.name, func(t *testing.T) {
			var ref outcome
			for i, kind := range transportKinds {
				got := sc.run(t, kind.wire(t))
				if len(got.Rounds) == 0 || len(got.Journal) == 0 {
					t.Fatalf("%s: scenario produced nothing to compare", kind.name)
				}
				if i == 0 {
					ref = got
					continue
				}
				if !reflect.DeepEqual(ref.Rounds, got.Rounds) {
					t.Errorf("%s rounds differ from %s\n got  %+v\n want %+v", kind.name, transportKinds[0].name, got.Rounds, ref.Rounds)
				}
				if !reflect.DeepEqual(ref.Journal, got.Journal) {
					t.Errorf("%s journal differs from %s\n got  %v\n want %v", kind.name, transportKinds[0].name, got.Journal, ref.Journal)
				}
			}
		})
	}
}
