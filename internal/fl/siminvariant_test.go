package fl

import (
	"fmt"
	"math"
	"testing"
)

// simFields renders the fields of a CostSnapshot that come from the cost
// model and the wire — everything except the three host-clock fields
// (HEWall, OtherWall, EncodeWall).
func simFields(s CostSnapshot) string {
	return fmt.Sprintf("HESim=%d HEOps=%d Instances=%d CommSim=%d CommBytes=%d CommMsgs=%d RetryMsgs=%d "+
		"EncodeSim=%d EncodeVals=%d Ciphertexts=%d Plainvals=%d",
		s.HESim, s.HEOps, s.Instances, s.CommSim, s.CommBytes, s.CommMsgs, s.RetryMsgs,
		s.EncodeSim, s.EncodeVals, s.Ciphertexts, s.Plainvals)
}

// TestSimInvariantUnderHostKernel is the hardware-simulation rule — a change
// to the simulator's own speed leaves every simulated statistic identical —
// made a test: the modelled fields of CostSnapshot and the bytes on the wire
// of one seeded 256-bit SystemFLBooster round, flat and cohort-tree, equal
// constants recorded on the 32-bit-limb parent of the 64-bit-limb mpint
// rewrite. The host kernel produces the bits; ghe/cost.go prices the
// modelled device, and the two must stay decoupled.
//
// The one thing allowed to move a constant here is a change to the modelled
// device kernel itself, and then only the field that kernel feeds: PR 15 had
// the round's clients — key holders all — compute rⁿ with the fused
// factorised kernel (ghe.powNWordOps, narrower registers and uploads), which
// lowered HESim from 316765 to 307957 (flat) and from 1148905 to 1144073
// (cohort-tree) and left every other field, every count and every wire byte
// where the 32-bit-limb parent had them. PR 24 made a batch's encryption one
// kernel (ghe's encrypt_vec: nonce, rⁿ and the multiply by gᵐ in one lane, for
// a holder through p² and q² with nothing at the width of n²), so the round's
// encryptions launch once instead of three times, copy the plaintexts up and
// the ciphertexts down and nothing in between, and drop the combine's three
// n²-wide multiplies: HESim 307957 → 186793 (flat), 1144073 → 663497
// (cohort-tree) and 403194 → 281322 (flat-1024) — mostly the 10 µs copy
// latencies of the two launches that went — and again every other field, every
// count and every wire byte stayed. PR 26 made a batch's decryption one kernel
// too (ghe's decrypt_crt_vec: both half-width powers, L, the h-multiplies and
// Garner in one lane), so the round's one decryption launches once instead of
// twice, copies the ciphertexts up once at their own width and the plaintexts
// down at n's, and prices the recombination the host used to do for nothing:
// HESim 186793 → 166769 (flat), 663497 → 643497 (cohort-tree) and 281322 →
// 261351 (flat-1024) — the two 10 µs copy latencies of the launch that went,
// less 24 and 0 ns, plus 29, of bytes against word-ops — with every other field,
// every count and every wire byte where they were.
//
// The other thing is a change to the protocol's frames, stated to the byte:
// PR 25 put the contributor count K in front of every aggregate frame (the
// frame cmd/flserver always sent; see sealAggregate), 4 bytes a broadcast
// — CommBytes 16099 → 16115 and 14888 → 14904 on the flat legs' 4
// broadcasts, 11720 → 11784 on the cohort-tree leg's 16 — and CommSim by
// exactly those bytes through the link model (+106668, +426669, +106664 ns).
// Every HE field, every count and every message count stayed. The cohort-tree
// leg's 6 interior forwards became real frames sent through Context.deliver
// and charged at their WireSize, 20 + h + payload with h = 10 the bytes of
// the hop's From, To and Kind, where the forward had been charged at 4 +
// payload: CommBytes 11784 → 11784 + 6·(16 + h) = 11940, and CommSim by
// exactly those bytes through the link model (458559988 → 459599992 ns).
// Every HE field and every count stayed. Then the framing became varints and
// one width a ciphertext batch: 16 B a message (the 8-byte round stamp and
// three 4-byte string lengths became four 1-byte varints), 3 B a broadcast's
// K, 2 B a batch at 256 bits and 1 B at 1,024 (the 4-byte count became a
// 1-byte varint beside the width's 1 or 2) and 4 B a ciphertext (its length
// prefix), plus the leading zero bytes the old codec left off a ciphertext,
// which its batch's width now pads back: CommBytes 16115 − 8·16 − 4·3 − 8·2
// − 232·4 + 5 = 15036, 11940 − 38·16 − 16·3 − 38·2 − 152·4 + 2 = 10602 and
// 14904 − 8·16 − 4·3 − 8·1 − 56·4 = 14532, and CommSim by exactly those
// bytes through the link model (−7193334, −8920009, −2480000 ns). Every HE
// field and every count stayed.
//
// The 256-bit legs run on 2- to 8-limb operands, under every threshold of the
// host kernels; the 1,024-bit flat leg (16-limb p², 32-limb n²) was recorded
// on the scalar rows, before the radix-2⁵² chain kernel (mpint's amm52) took
// over exponentiations at that size, and holds under it.
func TestSimInvariantUnderHostKernel(t *testing.T) {
	for _, tc := range []struct {
		name    string
		bits    int
		parties int
		cohort  CohortPolicy
		dim     int
		want    string
	}{
		{name: "flat", bits: 256, parties: 4, dim: 200,
			want: "HESim=166769 HEOps=232 Instances=1087 CommSim=180239996 CommBytes=15036 CommMsgs=8 RetryMsgs=0 EncodeSim=28000 EncodeVals=800 Ciphertexts=116 Plainvals=800"},
		{name: "cohort-tree", bits: 256, parties: 64, cohort: CohortPolicy{Size: 16, Fanout: 4, MaxInflight: 8}, dim: 24,
			want: "HESim=643497 HEOps=128 Instances=468 CommSim=450679983 CommBytes=10602 CommMsgs=38 RetryMsgs=0 EncodeSim=13440 EncodeVals=384 Ciphertexts=64 Plainvals=384"},
		{name: "flat-1024", bits: 1024, parties: 4, dim: 200,
			want: "HESim=261351 HEOps=56 Instances=1021 CommSim=176879996 CommBytes=14532 CommMsgs=8 RetryMsgs=0 EncodeSim=28000 EncodeVals=800 Ciphertexts=28 Plainvals=800"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProfile(SystemFLBooster, tc.bits, tc.parties)
			p.Seed = 13
			p.Cohort = tc.cohort
			ctx, err := NewContext(p)
			if err != nil {
				t.Fatal(err)
			}
			fed := NewFederation(ctx)
			defer fed.Close()
			grads := make([][]float64, tc.parties)
			for c := range grads {
				grads[c] = make([]float64, tc.dim)
				for i := range grads[c] {
					grads[c][i] = 0.3 * math.Sin(float64(c*tc.dim+i+1))
				}
			}
			if _, _, err := fed.SecureAggregateReport(grads); err != nil {
				t.Fatal(err)
			}
			if got := simFields(ctx.Costs.Snapshot()); got != tc.want {
				t.Errorf("sim fields moved:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}
