package fl

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"flbooster/internal/flnet"
	"flbooster/internal/paillier"
)

// wireLog records every message a round sends, in order. It keeps a copy of
// each payload: an upload's frame belongs to the coordinator that decodes it,
// which hands it back to be framed into again.
type wireLog struct {
	flnet.Transport
	mu   sync.Mutex
	sent []flnet.Message
}

func (w *wireLog) Send(msg flnet.Message) error {
	kept := msg
	kept.Payload = bytes.Clone(msg.Payload)
	w.mu.Lock()
	w.sent = append(w.sent, kept)
	w.mu.Unlock()
	return w.Transport.Send(msg)
}

// holderRound runs two rounds of p and returns every message they sent, the
// last aggregate and the cost snapshot. With public set the clients are
// forced onto the bare public key — the path a party that was only given
// the key takes — instead of their own holder handle.
func holderRound(t *testing.T, p Profile, grads [][]float64, public bool) ([]flnet.Message, []float64, CostSnapshot) {
	t.Helper()
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	for _, cl := range fed.clients {
		if cl.Key != ctx.Key.Holder() {
			t.Fatal("Fig. 2 clients should encrypt under the key holder's handle")
		}
		if public {
			cl.Key = &ctx.Key.PublicKey
		}
	}
	log := &wireLog{Transport: fed.Transport}
	fed.Transport = log
	var agg []float64
	for r := 0; r < 2; r++ {
		if agg, _, err = fed.SecureAggregateReport(grads); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	return log.sent, agg, ctx.Costs.Snapshot()
}

// TestHolderRoundBitExactWithPublic: a round whose clients encrypt through
// the factorisation puts the same bytes on the wire — every upload, partial
// and aggregate frame — and decrypts to the same estimate as one whose
// clients use the bare public key: flat and cohort-tree, on one device, on a
// device set and on the host. Only the modelled HE time
// differs, and only downwards.
func TestHolderRoundBitExactWithPublic(t *testing.T) {
	type shape struct {
		name    string
		parties int
		set     func(*Profile)
	}
	shapes := []shape{
		{"flat", 4, func(*Profile) {}},
		{"cohort-tree", 24, func(p *Profile) { p.Cohort = CohortPolicy{Size: 8, Fanout: 3, MaxInflight: 4} }},
	}
	for _, sys := range []System{SystemFLBooster, SystemFATE} {
		for _, devices := range []int{0, 2} {
			if sys == SystemFATE && devices > 0 {
				continue
			}
			for _, sh := range shapes {
				t.Run(fmt.Sprintf("%s/D%d/%s", sys, devices, sh.name), func(t *testing.T) {
					p := testProfile(sys)
					p.Parties = sh.parties
					p.Devices = devices
					p.Seed = 29
					sh.set(&p)
					grads := testGrads(sh.parties, 23)
					own, ownAgg, ownCost := holderRound(t, p, grads, false)
					pub, pubAgg, pubCost := holderRound(t, p, grads, true)
					if !sameBits(ownAgg, pubAgg) {
						t.Fatalf("estimates differ: holder %v, public %v", ownAgg, pubAgg)
					}
					if len(own) != len(pub) || len(own) == 0 {
						t.Fatalf("%d messages with the holder handle, %d with the public key", len(own), len(pub))
					}
					for i := range own {
						a, b := own[i], pub[i]
						if a.From != b.From || a.To != b.To || a.Kind != b.Kind || !bytes.Equal(a.Payload, b.Payload) {
							t.Fatalf("message %d (%s %s→%s) differs between the handles", i, a.Kind, a.From, a.To)
						}
					}
					if ownCost.CommBytes != pubCost.CommBytes || ownCost.HEOps != pubCost.HEOps || ownCost.Ciphertexts != pubCost.Ciphertexts {
						t.Fatalf("counts differ: holder %+v, public %+v", ownCost, pubCost)
					}
					if p.UseGPU() && ownCost.HESim >= pubCost.HESim {
						t.Errorf("holder HE sim %v should undercut the public path's %v", ownCost.HESim, pubCost.HESim)
					}
				})
			}
		}
	}
}

// TestUploadRejectsForeignKey: a client whose handle is not one of the
// context's key — another key's holder, none, another public key — gets an
// error from Client.Upload, not ciphertexts nobody can aggregate, and sends
// no frame.
func TestUploadRejectsForeignKey(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	p := testProfile(SystemFLBooster)
	p.Seed = 99
	other, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	grads := testGrads(1, 8)[0]
	for _, tc := range []struct {
		name string
		key  *paillier.PublicKey
	}{
		{"foreign holder", other.Key.Holder()},
		{"nil", nil},
		{"foreign public key", &other.Key.PublicKey},
	} {
		cl := NewClient(ctx, 0)
		cl.Key = tc.key
		log := &wireLog{Transport: flnet.NewSimTransport(ctx.Link, cl.Name, ServerName)}
		if _, err := cl.Upload(log, 1, grads); err == nil {
			t.Errorf("%s: Upload accepted the key", tc.name)
		}
		if len(log.sent) != 0 {
			t.Errorf("%s: %d frames sent", tc.name, len(log.sent))
		}
		log.Close()
	}
}
