package fl

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"flbooster/internal/flnet"
	"flbooster/internal/ghe"
	"flbooster/internal/mpint"
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

// uploadClock is a context's backend that keeps the device clock its upload
// waves advanced: every EncryptVecs call is one wave's charged batch.
type uploadClock struct {
	paillier.BatchEncrypter
	checked *ghe.CheckedEngine
	sim     time.Duration
}

func (u *uploadClock) EncryptVecs(out [][]paillier.Ciphertext, pk *paillier.PublicKey, batches [][]mpint.Nat, seeds []uint64) (int, error) {
	base := u.checked.SimTime()
	n, err := u.BatchEncrypter.EncryptVecs(out, pk, batches, seeds)
	u.sim += u.checked.SimTime() - base
	return n, err
}

// TestHolderRoundBitExactWithPublic: a round's clients encrypt through the
// factorisation, as the key's holder, and every upload puts on the wire the
// bytes a party that was only given the public key would send. A twin
// context of the same profile re-encrypts each logged upload's gradients
// under the bare public key at that upload's seed — the round-start cursor,
// advanced once an upload in cohort order — and the payloads must be equal;
// what the round sends after the uploads is a function of them. Flat and
// cohort-tree, on one device, on a device set and on the host, two rounds
// each. Only the modelled HE time differs, and only downwards.
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
					ctx, err := NewContext(p)
					if err != nil {
						t.Fatal(err)
					}
					twin, err := NewContext(p)
					if err != nil {
						t.Fatal(err)
					}
					clock := &uploadClock{BatchEncrypter: ctx.Backend.(paillier.BatchEncrypter), checked: ctx.Checked}
					ctx.Backend = clock
					fed := NewFederation(ctx)
					defer fed.Close()
					log := &wireLog{Transport: fed.Transport}
					fed.Transport = log
					for r := 0; r < 2; r++ {
						start := ctx.SeedCursor()
						log.sent = log.sent[:0]
						_, rep, err := fed.SecureAggregateReport(grads)
						if err != nil {
							t.Fatalf("round %d: %v", r, err)
						}
						twin.RestoreSeedCursor(start)
						uploads := 0
						for _, msg := range log.sent {
							if msg.Kind != "grads" {
								continue
							}
							var i int
							if _, err := fmt.Sscanf(msg.From, "client%d", &i); err != nil {
								t.Fatal(err)
							}
							cts, err := twin.EncryptGradients(grads[i])
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(msg.Payload, encodeCiphertexts(cts)) {
								t.Fatalf("round %d: %s's upload differs from its public-key encryption", r, msg.From)
							}
							uploads++
						}
						if uploads == 0 || uploads != len(rep.Included) {
							t.Fatalf("round %d: %d uploads on the wire, %d included", r, uploads, len(rep.Included))
						}
					}
					own, pub := ctx.Costs.Snapshot(), twin.Costs.Snapshot()
					if own.Ciphertexts != pub.Ciphertexts || own.Ciphertexts != pub.HEOps || own.EncodeSim != pub.EncodeSim {
						t.Fatalf("counts differ: holder %+v, public %+v", own, pub)
					}
					if p.UseGPU() && clock.sim >= pub.HESim {
						t.Errorf("holder upload HE sim %v should undercut the public path's %v", clock.sim, pub.HESim)
					}
				})
			}
		}
	}
}
