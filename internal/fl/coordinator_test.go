package fl

import (
	"errors"
	"slices"
	"testing"
	"time"

	"flbooster/internal/flnet"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

// TestSpoofedUploadCannotDisplaceHonestOne: client 2 uploads a "grads" frame
// claiming From client0 before client 0 does. A hub that relayed it had the
// coordinator count it as client 0's and discard the honest upload as the
// duplicate; the hub now drops the forgery, so the round over TCP decrypts to
// exactly what it does in-process and the spoof counter reads 1.
func TestSpoofedUploadCannotDisplaceHonestOne(t *testing.T) {
	p := testProfile(SystemFLBooster)
	grads := testGrads(p.Parties, 6)
	want, _, _ := runRound(t, p, grads, 1)

	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	hub, err := flnet.NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	mesh := newTCPMesh(t, hub, append(ClientNames(p.Parties), ServerName))
	fed.Transport = mesh

	// The forgery: a well-formed round-1 upload of somebody else's numbers,
	// encrypted on a context of its own so the federation's nonce cursor does
	// not move, sent on client 2's connection under client 0's name.
	forger, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	cts, err := forger.NewParty(ClientName(0)).EncryptGradients([]float64{0.9, -0.9, 0.9, -0.9, 0.9, -0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.conns[ClientName(2)].Send(flnet.Message{
		From: ClientName(0), To: ServerName, Kind: "grads", Round: 1, Payload: encodeCiphertexts(cts),
	}); err != nil {
		t.Fatal(err)
	}
	// Let the hub route (or refuse) it before any honest upload exists.
	for deadline := time.Now().Add(5 * time.Second); hub.Spoofed() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the hub relayed a frame whose From is not its connection's name")
		}
		time.Sleep(time.Millisecond)
	}

	got, rep, err := fed.SecureAggregateReport(grads)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) {
		t.Fatalf("aggregate with a spoofed upload in flight\n got  %v\n want %v", got, want)
	}
	if rep.Duplicates != 0 || len(rep.Included) != p.Parties {
		t.Fatalf("the forgery reached the coordinator: %+v", rep)
	}
	if n := hub.Spoofed(); n != 1 {
		t.Fatalf("hub counted %d spoofed frames, want 1", n)
	}
}

// TestBadUploadDropsItsSenderNotTheRound: an upload that does not decode is
// its sender's problem. With quorum slack the round completes without it;
// under the strict policy the drop budget is zero, so the round still fails —
// typed, in the gather phase, naming the party.
func TestBadUploadDropsItsSenderNotTheRound(t *testing.T) {
	garble := func(fed *Federation) {
		fed.Transport = &garbler{Transport: fed.Transport, from: ClientName(1)}
	}
	grads := [][]float64{{0.1, -0.2}, {0.1, -0.2}, {0.1, -0.2}, {0.1, -0.2}}

	ctx, err := NewContext(pinnedDraw(SystemFLBooster, 1, quorumPolicy).p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	garble(fed)
	sum, rep, err := fed.SecureAggregateReport(grads)
	if err != nil {
		t.Fatalf("a quorum round should survive one undecodable upload: %v", err)
	}
	if len(rep.Included) != 3 || rep.Dropped[ClientName(1)] != PhaseGather {
		t.Fatalf("report %+v, want client1 dropped in gather", rep)
	}
	bound := 4 * rep.Scale * ctx.Quant.MaxError()
	for i, want := range []float64{0.4, -0.8} {
		if d := sum[i] - want; d > bound || d < -bound {
			t.Fatalf("sum[%d] = %v, want %v ± %v", i, sum[i], want, bound)
		}
	}

	strict, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	fed2 := NewFederation(strict)
	defer fed2.Close()
	garble(fed2)
	_, _, err = fed2.SecureAggregateReport(grads)
	if rerr := asRoundError(t, err, PhaseGather); rerr.Party != ClientName(1) {
		t.Fatalf("strict round blamed %q for client1's undecodable upload: %v", rerr.Party, rerr)
	}
}

// garbler truncates every "grads" payload one party sends.
type garbler struct {
	flnet.Transport
	from string
}

func (g *garbler) Send(msg flnet.Message) error {
	if msg.From == g.from && msg.Kind == "grads" {
		msg.Payload = msg.Payload[:len(msg.Payload)/2]
	}
	return g.Transport.Send(msg)
}

// hostileUpload replaces the first ciphertext of every "grads" payload one
// party sends with a value of its own, re-framed by the wire codec.
type hostileUpload struct {
	flnet.Transport
	from  string
	value mpint.Nat
	sent  []byte // a copy of the last payload it forged: the gather zeroes its own
}

func (h *hostileUpload) Send(msg flnet.Message) error {
	if msg.From == h.from && msg.Kind == "grads" {
		nats, err := flnet.DecodeNatsInto(nil, msg.Payload)
		if err != nil {
			return err
		}
		nats[0] = h.value
		msg.Payload = flnet.AppendNats(nil, nats)
		h.sent = slices.Clone(msg.Payload)
	}
	return h.Transport.Send(msg)
}

// TestHostileUploadDropsItsSender: an upload holding a value that is no
// ciphertext of the key — one byte wider than n², n² itself, or 0 — is its
// sender's problem, typed, like an upload that does not parse: the gather
// drops the client and the round completes without it, under FLBooster and
// FATE, and a vertical message's receiver rejects the same batch. The wider
// value used to reach the fold's AddVec and panic the coordinator, and n² and
// 0 were folded in and failed the whole round at decrypt.
func TestHostileUploadDropsItsSender(t *testing.T) {
	grads := [][]float64{{0.1, -0.2}, {0.1, -0.2}, {0.1, -0.2}, {0.1, -0.2}}
	for _, sys := range []System{SystemFLBooster, SystemFATE} {
		ctx, err := NewContext(pinnedDraw(sys, 1, quorumPolicy).p)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			value mpint.Nat
		}{
			{"wider than n²", mpint.Lsh(mpint.One(), uint(8*ctx.Key.CiphertextBytes()))},
			{"n²", ctx.Key.N2.Clone()},
			{"zero", nil},
		} {
			fed := NewFederation(ctx)
			hostile := &hostileUpload{Transport: fed.Transport, from: ClientName(1), value: tc.value}
			fed.Transport = hostile
			sum, rep, err := fed.SecureAggregateReport(grads)
			fed.Close()
			if err != nil {
				t.Fatalf("%s, %s: a quorum round should survive one hostile upload: %v", sys, tc.name, err)
			}
			if len(rep.Included) != 3 || rep.Dropped[ClientName(1)] != PhaseGather {
				t.Fatalf("%s, %s: report %+v, want client1 dropped in gather", sys, tc.name, rep)
			}
			bound := 4 * rep.Scale * ctx.Quant.MaxError()
			for i, want := range []float64{0.4, -0.8} {
				if d := sum[i] - want; d > bound || d < -bound {
					t.Fatalf("%s, %s: sum[%d] = %v, want %v ± %v", sys, tc.name, i, sum[i], want, bound)
				}
			}
			if cts, err := ctx.DecodeCiphertexts(hostile.sent); !errors.Is(err, ErrBadCiphertext) || cts != nil {
				t.Fatalf("%s, %s: decoded to %d ciphertexts (%v), want ErrBadCiphertext", sys, tc.name, len(cts), err)
			}
			// A vertical message's receiver decodes it the same way.
			if _, err := ctx.NewParty("host").SendCiphertexts(returnNet(ctx), "arbiter", "sums", []paillier.Ciphertext{{C: tc.value}}); !errors.Is(err, ErrBadCiphertext) {
				t.Fatalf("%s, %s: a vertical batch received with %v, want ErrBadCiphertext", sys, tc.name, err)
			}
		}
	}
}

// TestCoordinatorDrain drives the Coordinator in-process over a SimTransport
// the way flserver's server role drives it over TCP. A drain signal below
// quorum abandons the round: ErrDrained, an EventDrained record, no open
// resume point (flserver's TestServerGracefulDrainAborts is the same thing
// through a process's flags). With quorum already met it finishes the round.
func TestCoordinatorDrain(t *testing.T) {
	p := pinnedDraw(SystemFLBooster, 1, quorumPolicy).p
	p.Round.PhaseTimeout = 0 // no deadline: only the drain can end the gather
	names := ClientNames(p.Parties)
	stop := make(chan struct{})
	close(stop)

	for _, tc := range []struct {
		name    string
		uploads int
		drained bool
	}{
		{"below-quorum", 2, true},
		{"quorum-met", 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, err := NewContext(p)
			if err != nil {
				t.Fatal(err)
			}
			tr := flnet.NewSimTransport(ctx.Link, append(ClientNames(p.Parties), ServerName)...)
			defer tr.Close()
			store := NewMemStore()
			coord := NewCoordinator(ctx)
			coord.AttachJournal(mustJournal(t, store))
			for i := 0; i < tc.uploads; i++ {
				if _, err := NewClient(ctx, i).Upload(tr, 1, []float64{0.1, 0.2}); err != nil {
					t.Fatal(err)
				}
			}
			rd, err := coord.Begin(ctx.Profile.Schedule(names, 1), tr)
			if err != nil {
				t.Fatal(err)
			}
			err = rd.Finish(rd.Serve(names, stop))
			state, rerr := Replay(journalRecords(t, store))
			if rerr != nil {
				t.Fatal(rerr)
			}
			if tc.drained {
				if !errors.Is(err, ErrDrained) {
					t.Fatalf("drain below quorum returned %v, want ErrDrained", err)
				}
				asRoundError(t, err, PhaseGather)
				if state.Drained != 1 || state.Resume != nil || state.Completed != 0 || state.Failed != 0 {
					t.Fatalf("drained journal replayed wrong: %+v", state)
				}
				return
			}
			if err != nil {
				t.Fatalf("drain with quorum met must finish the round: %v", err)
			}
			rep := rd.Report()
			if len(rep.Included) != 3 || rep.Dropped[ClientName(3)] != PhaseGather {
				t.Fatalf("report %+v, want client3 cut off by the drain", rep)
			}
			if state.Completed != 1 || state.Drained != 0 || state.Resume != nil {
				t.Fatalf("journal replayed wrong: %+v", state)
			}
		})
	}
}

func journalRecords(t *testing.T, store JournalStore) []JournalRecord {
	t.Helper()
	recs, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestClientReceiveSkipsWhatIsNotTheAggregate: the first frame a client
// receives is not the aggregate because it is first. Leftovers of an earlier
// round, a frame of a kind the client does not speak and a frame of the other
// aggregate kind are counted and skipped; the round's own frame is returned.
func TestClientReceiveSkipsWhatIsNotTheAggregate(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(ctx, 0)
	tr := flnet.NewSimTransport(ctx.Link, cl.Name, ServerName)
	defer tr.Close()
	for _, msg := range []flnet.Message{
		{Kind: "agg", Round: 1, Payload: []byte("last round's")},
		{Kind: "status", Round: 2, Payload: []byte("not an aggregate")},
		{Kind: "gagg", Round: 2, Payload: []byte("other kind")},
		{Kind: "agg", Round: 2, Payload: []byte("this round's")},
	} {
		msg.From, msg.To = ServerName, cl.Name
		if err := tr.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	frame, stale, err := cl.Receive(tr, 2, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(frame) != "this round's" || stale != 3 {
		t.Fatalf("received %q after discarding %d frames, want this round's after 3", frame, stale)
	}
	if _, _, err := cl.Receive(tr, 2, time.Now().Add(20*time.Millisecond)); !flnet.IsTimeout(err) {
		t.Fatalf("an empty queue at the deadline returned %v, want a timeout", err)
	}
}
