package fl

import (
	"encoding/binary"
	"errors"
	"math"
	"math/big"
	"testing"

	"flbooster/internal/flnet"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

func TestEncryptValuesUnpackedIgnoresPacker(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	h := ctx.NewHolder("arbiter")
	vals := []float64{-0.5, 0, 0.5, 0.999}
	cts, err := h.EncryptBroadcast(vals, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cts) != len(vals) {
		t.Fatalf("unpacked encryption produced %d ciphertexts for %d values", len(cts), len(vals))
	}
	// Round trip through DecryptRaw + manual dequantization.
	raws, err := h.DecryptRaw(cts)
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range raws {
		got := ctx.Quant.Dequantize(raw)
		if d := got - vals[i]; d > ctx.Quant.MaxError() || d < -ctx.Quant.MaxError() {
			t.Fatalf("value %d: %v vs %v", i, got, vals[i])
		}
	}
}

func TestDecryptRawOverflowDetected(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFATE))
	if err != nil {
		t.Fatal(err)
	}
	h := ctx.NewHolder("arbiter")
	big := mpint.NewRNG(1).RandBits(100) // wider than 64 bits
	cts, err := h.EncryptNats([]mpint.Nat{big}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.DecryptRaw(cts); err == nil {
		t.Fatal("overflowing raw plaintext should be reported")
	}
}

// sumsFixture encrypts 1..n under sys, one value a ciphertext, and returns what
// a test of BroadcastSums reads before and after a call: the HE-operation and
// instance counters, the nonce-seed cursor, and the device's launch count (0 on
// a CPU profile).
func sumsFixture(t *testing.T, sys System, n int) (*Context, []paillier.Ciphertext, func() [4]int64) {
	t.Helper()
	ctx, err := NewContext(testProfile(sys))
	if err != nil {
		t.Fatal(err)
	}
	h := ctx.NewHolder("arbiter")
	pts := make([]mpint.Nat, n)
	for i := range pts {
		pts[i] = mpint.FromUint64(uint64(i + 1))
	}
	cts, err := h.EncryptNats(pts, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	read := func() [4]int64 {
		c := ctx.Costs.Snapshot()
		var launches int64
		if ctx.Device != nil {
			launches = ctx.Device.Stats().KernelLaunches
		}
		return [4]int64{c.HEOps, c.Instances, int64(ctx.nonces.cursor), launches}
	}
	return ctx, cts, read
}

func unitTerms(idx ...int) []mpint.Term {
	out := make([]mpint.Term, len(idx))
	for k, i := range idx {
		out[k] = mpint.Term{Index: i, Weight: 1}
	}
	return out
}

// TestReduceSum: unit weights turn BroadcastSums into the subset sums of a
// histogram — every bin of a node-feature in one batch, charged once, with no
// nonce drawn — on the serial backend and on the kernel.
func TestReduceSum(t *testing.T) {
	for _, sys := range []System{SystemFATE, SystemFLBooster} {
		ctx, cts, read := sumsFixture(t, sys, 9)
		h := ctx.NewHolder("arbiter")
		before := read()
		// 1..9 in one bin; a single element; a partition into three bins.
		sums := [][]mpint.Term{
			unitTerms(0, 1, 2, 3, 4, 5, 6, 7, 8),
			unitTerms(0),
			unitTerms(8, 0, 4), unitTerms(1, 2, 3), unitTerms(7, 6, 5),
		}
		out, err := h.BroadcastSums(cts, sums, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		after := read()
		// 9 + 1 + 3 + 3 + 3 ciphertext-scalar products, one batch: the table
		// launch and the kernel launch on a GPU profile, and no seed drawn.
		want := [4]int64{before[0] + 19, before[1] + 19, before[2], before[3]}
		if ctx.Device != nil {
			want[3] += 2
		}
		if after != want {
			t.Errorf("%s: ops, instances, seed cursor, launches went %v → %v, want %v", sys, before, after, want)
		}
		raws, err := h.DecryptRaw(out)
		if err != nil {
			t.Fatal(err)
		}
		for j, want := range []uint64{45, 1, 15, 9, 21} {
			if raws[j] != want {
				t.Errorf("%s: sum %d opened to %d, want %d", sys, j, raws[j], want)
			}
		}
		// No sums are no work: nothing comes back, nothing is charged.
		before = read()
		none, err := h.BroadcastSums(cts, nil, 1, false)
		if err != nil || len(none) != 0 || read() != before {
			t.Errorf("%s: no sums returned %d ciphertexts, error %v, counters %v → %v", sys, len(none), err, before, read())
		}
	}
}

// TestWeightedSum: integer weights, the zero ones skipped; a sum with nothing
// left is a fresh encryption of zero, drawn after the batch; a term outside the
// vector rejects typed before anything is launched, encrypted or charged.
func TestWeightedSum(t *testing.T) {
	for _, sys := range []System{SystemFATE, SystemFLBooster} {
		ctx, cts, read := sumsFixture(t, sys, 4)
		h := ctx.NewHolder("arbiter")
		before := read()
		// 2·1 + 0·2 + 1·3 + 10·4 = 45, and the same index twice: 3·2 + 5·2 = 16.
		out, err := h.BroadcastSums(cts, [][]mpint.Term{
			{{Index: 0, Weight: 2}, {Index: 1, Weight: 0}, {Index: 2, Weight: 1}, {Index: 3, Weight: 10}},
			{{Index: 1, Weight: 3}, {Index: 1, Weight: 5}},
		}, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		after := read()
		if after[0] != before[0]+5 || after[1] != before[1]+5 || after[2] != before[2] {
			t.Errorf("%s: ops, instances, seed cursor went %v → %v, want 5 products and no seed", sys, before, after)
		}
		raws, err := h.DecryptRaw(out)
		if err != nil {
			t.Fatal(err)
		}
		if raws[0] != 45 || raws[1] != 16 {
			t.Errorf("%s: sums opened to %v, want [45 16]", sys, raws)
		}

		// Signed sums open lifted by ReturnOffset, which enters the launch as
		// one more product a sum over a shared trivial encryption: 2·1 − 3 − 40
		// and 5·2 − 3·2, and an empty signed sum is a fresh E(O).
		before = read()
		out, err = h.BroadcastSums(cts, [][]mpint.Term{
			{{Index: 0, Weight: 2}, {Index: 2, Weight: 1, Neg: true}, {Index: 3, Weight: 10, Neg: true}},
			{{Index: 1, Weight: 5}, {Index: 1, Weight: 3, Neg: true}},
			nil,
		}, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if after := read(); after[0] != before[0]+8 || after[1] != before[1]+8 || after[2] == before[2] {
			t.Errorf("%s: ops, instances, seed cursor went %v → %v, want 5 products, 2 offsets and the empty sum's encryption", sys, before, after)
		}
		if raws, err = h.DecryptRaw(out); err != nil || raws[0] != ReturnOffset-41 || raws[1] != ReturnOffset+4 || raws[2] != ReturnOffset {
			t.Errorf("%s: signed sums opened to %v (%v), want [O−41 O+4 O]", sys, raws, err)
		}

		// All-zero and empty sums beside a real one: each a fresh E(0), not the
		// trivial ciphertext 1 and not each other, from one seed drawn after
		// the batch.
		before = read()
		out, err = h.BroadcastSums(cts, [][]mpint.Term{
			{{Index: 0, Weight: 0}, {Index: 3, Weight: 0}},
			unitTerms(1, 2),
			nil,
		}, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if raws, err = h.DecryptRaw(out); err != nil || raws[0] != 0 || raws[1] != 5 || raws[2] != 0 {
			t.Errorf("%s: sums opened to %v (%v), want [0 5 0]", sys, raws, err)
		}
		if out[0].C.IsOne() || out[2].C.IsOne() || mpint.Cmp(out[0].C, out[2].C) == 0 {
			t.Errorf("%s: empty sums are not fresh encryptions of zero", sys)
		}
		cursor := ctx.nonces.cursor
		ctx.nonces.cursor = uint64(before[2])
		if ctx.nonces.next(); ctx.nonces.cursor != cursor {
			t.Errorf("%s: two empty sums moved the seed cursor by other than one draw", sys)
		}

		// Out of range, either side, in any sum — even under a zero weight.
		before = read()
		for _, sums := range [][][]mpint.Term{
			{unitTerms(0), {{Index: 4, Weight: 2}}},
			{{{Index: -1, Weight: 1}}},
			{nil, {{Index: 9, Weight: 0}}},
		} {
			out, err := h.BroadcastSums(cts, sums, 1, false)
			if !errors.Is(err, mpint.ErrTermIndex) || out != nil {
				t.Errorf("%s: sums %v returned %d ciphertexts, error %v, want ErrTermIndex", sys, sums, len(out), err)
			}
		}
		if _, err := h.BroadcastSums(nil, [][]mpint.Term{unitTerms(0)}, 1, false); !errors.Is(err, mpint.ErrTermIndex) {
			t.Errorf("%s: a term over no ciphertexts: error %v, want ErrTermIndex", sys, err)
		}
		if after := read(); after != before {
			t.Errorf("%s: rejected sums moved ops, instances, seed cursor, launches %v → %v", sys, before, after)
		}
	}
}

// returnWirings builds one context per HE substrate the return path runs on:
// the executor over no device, the CPU profiles' host loop, over the default
// one-device set every GPU profile uses, over a two-device fleet, and over one
// device that dies at its first launch after key generation, so the host loop
// serves every batch — all with batch compression on, so OpenBroadcastSums
// packs.
func returnWirings(t *testing.T, keyBits int) map[string]*Context {
	t.Helper()
	build := func(sys System, devices int, inject gpu.FaultConfig) *Context {
		p := testProfile(sys)
		p.KeyBits = keyBits
		p.Devices = devices
		p.Faults.Inject = inject
		ctx, err := NewContext(p)
		if err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	return map[string]*Context{
		"cpu":       build(SystemNoGHE, 0, gpu.FaultConfig{}),
		"host loop": build(SystemFLBooster, 0, gpu.FaultConfig{Seed: 1, KillAtLaunch: 1}),
		"checked":   build(SystemFLBooster, 0, gpu.FaultConfig{}),
		"devices=2": build(SystemFLBooster, 2, gpu.FaultConfig{}),
	}
}

// boundedValues draws count (value, bound) pairs that exercise the slot
// edges: all-ones slots, values at their bound, zeros, and uniform draws.
func boundedValues(rng *mpint.RNG, count int) (vals []uint64, bounds []Bound) {
	vals, bounds = make([]uint64, count), make([]Bound, count)
	for i := range vals {
		bound := rng.Uint64()
		switch i % 4 {
		case 0:
			bound = math.MaxUint64
		case 1:
			bound >>= rng.Uint64() % 64
		}
		bounds[i] = Bound{Hi: bound}
		switch rng.Uint64() % 3 {
		case 0:
			vals[i] = bound
		case 1:
			vals[i] = 0
		default:
			vals[i] = rng.Uint64()
			if bound < math.MaxUint64 {
				vals[i] %= bound + 1
			}
		}
	}
	return vals, bounds
}

func TestOpenSumsMatchesDecryptRaw(t *testing.T) {
	keys := []int{128, 256, 512, 1024}
	if testing.Short() {
		keys = keys[:3]
	}
	for _, keyBits := range keys {
		for name, ctx := range returnWirings(t, keyBits) {
			host := ctx.NewParty("host")
			arbiter := ctx.NewHolder("arbiter")
			slots := ctx.ReturnSlots()
			if want := (keyBits - 1) / 64; slots != want {
				t.Fatalf("%d-bit key: %d return slots, want %d", keyBits, slots, want)
			}
			maxCount := 3*slots + 1
			counts := make([]int, 0, maxCount+1)
			for k := 0; k <= maxCount; k++ {
				// The full sweep at the small keys; the slot boundaries at 1,024.
				if keyBits < 1024 || k <= 1 || k%slots <= 1 || k%slots == slots-1 {
					counts = append(counts, k)
				}
			}
			rng := mpint.NewRNG(uint64(keyBits))
			vals, bounds := boundedValues(rng, maxCount)
			pts := make([]mpint.Nat, maxCount)
			for i, v := range vals {
				pts[i] = mpint.FromUint64(v)
			}
			all, err := host.EncryptNats(pts, int64(maxCount))
			if err != nil {
				t.Fatal(err)
			}
			rec := &openedPlaintexts{Backend: ctx.Backend}
			ctx.Backend = rec
			route := ReturnRoute{Net: returnNet(ctx), Decryptor: arbiter, Kind: "sums", ReplyKind: "plain"}
			for _, k := range counts {
				want, err := arbiter.DecryptRaw(all[:k])
				if err != nil {
					t.Fatal(err)
				}
				before := ctx.Costs.Snapshot()
				rec.trim = 0
				got, err := host.OpenBroadcastSums(route, all[:k], bounds[:k], 1)
				if err != nil {
					t.Fatalf("%s/%d bits/%d sums: %v", name, keyBits, k, err)
				}
				if len(got) != k {
					t.Fatalf("%s/%d bits: %d values for %d sums", name, keyBits, len(got), k)
				}
				for i := range got {
					if got[i] != want[i] || got[i] != vals[i] {
						t.Fatalf("%s/%d bits/%d sums: value %d opened to %d, DecryptRaw %d, plaintext %d",
							name, keyBits, k, i, got[i], want[i], vals[i])
					}
				}
				after := ctx.Costs.Snapshot()
				if k == 0 {
					if after.CommMsgs != before.CommMsgs {
						t.Fatalf("%s: an empty request sent %d messages", name, after.CommMsgs-before.CommMsgs)
					}
					continue
				}
				// The header (stride, value count) and the batch, less what its
				// width saves.
				packed := (k + slots - 1) / slots
				request := flnet.Message{From: "host", To: "arbiter", Kind: "sums"}.WireSize() +
					ctx.CiphertextWireBytes(packed) + requestHead(1, k) - rec.trim
				reply := flnet.Message{From: "arbiter", To: "host", Kind: "plain"}.WireSize() + int64(8*k)
				if msgs, bytes := after.CommMsgs-before.CommMsgs, after.CommBytes-before.CommBytes; msgs != 2 || bytes != request+reply {
					t.Fatalf("%s/%d bits/%d sums: %d messages of %d bytes, want 2 of %d", name, keyBits, k, msgs, bytes, request+reply)
				}
			}
		}
	}
}

// TestOpenSumsUnpackedWithoutCompression pins the other side of the switch:
// with batch compression off the request is the sums themselves.
func TestOpenSumsUnpackedWithoutCompression(t *testing.T) {
	for _, sys := range []System{SystemFATE, SystemHAFLO, SystemNoBC} {
		p := testProfile(sys)
		p.KeyBits = 256
		ctx, err := NewContext(p)
		if err != nil {
			t.Fatal(err)
		}
		host := ctx.NewParty("host")
		if ctx.ReturnSlots() != 1 {
			t.Fatalf("%s: %d return slots without batch compression", sys, ctx.ReturnSlots())
		}
		vals, bounds := boundedValues(mpint.NewRNG(7), 5)
		pts := make([]mpint.Nat, len(vals))
		for i, v := range vals {
			pts[i] = mpint.FromUint64(v)
		}
		cts, err := host.EncryptNats(pts, int64(len(pts)))
		if err != nil {
			t.Fatal(err)
		}
		before := ctx.Costs.Snapshot()
		got, err := host.OpenBroadcastSums(ReturnRoute{Net: returnNet(ctx), Decryptor: ctx.NewHolder("guest"), Kind: "hist"}, cts, bounds, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != vals[i] {
				t.Fatalf("%s: value %d opened to %d, want %d", sys, i, got[i], vals[i])
			}
		}
		after := ctx.Costs.Snapshot()
		want := flnet.Message{From: "host", To: "guest", Kind: "hist"}.WireSize() +
			ctx.CiphertextWireBytes(len(cts)) + requestHead(1, len(cts)) - trimmed(ctx.Key.CiphertextBytes(), cts)
		if after.CommMsgs-before.CommMsgs != 1 || after.CommBytes-before.CommBytes != want {
			t.Fatalf("%s: %d messages of %d bytes, want one of %d (no reply kind, one ciphertext a sum)",
				sys, after.CommMsgs-before.CommMsgs, after.CommBytes-before.CommBytes, want)
		}
	}
}

func TestOpenSumsRejectsTyped(t *testing.T) {
	p := testProfile(SystemFLBooster)
	p.KeyBits = 256
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	host := ctx.NewParty("host")
	arbiter := ctx.NewHolder("arbiter")
	route := ReturnRoute{Net: returnNet(ctx), Decryptor: arbiter, Kind: "sums", ReplyKind: "plain"}

	// A bound that does not fit a slot — either sign side at 2^63 — fails
	// where it is derived, before anything is packed or sent.
	r := ctx.Quant.RBits()
	for _, sides := range [][2]uint64{{0, 1 << (64 - r)}, {1 << (64 - r), 0}, {1 << (64 - r), 1 << (64 - r)}} {
		if _, err := ctx.SumBound(sides[0], sides[1]); !errors.Is(err, ErrSumBound) {
			t.Fatalf("sides %v reach 2^63: got %v, want ErrSumBound", sides, err)
		}
	}
	side := uint64(1) << (63 - r) * (1<<r - 1)
	if b, err := ctx.SumBound(1<<(63-r), 1<<(63-r)); err != nil || b != (Bound{ReturnOffset - side, ReturnOffset + side}) {
		t.Fatalf("sides one bit narrower: %+v, %v, want [O − %d, O + %d]", b, err, side, side)
	}
	cts, err := host.EncryptNats([]mpint.Nat{mpint.FromUint64(10), mpint.FromUint64(20), mpint.FromUint64(30), mpint.FromUint64(40)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	upTo := func(his ...uint64) []Bound {
		bounds := make([]Bound, len(his))
		for i, hi := range his {
			bounds[i].Hi = hi
		}
		return bounds
	}
	before := ctx.Costs.Snapshot()
	if _, err := host.OpenBroadcastSums(route, cts, upTo(10, 20, 30), 1); !errors.Is(err, ErrSumBound) {
		t.Fatalf("missing bound: got %v, want ErrSumBound", err)
	}
	if after := ctx.Costs.Snapshot(); after.CommMsgs != before.CommMsgs || after.HEOps != before.HEOps {
		t.Fatal("a request without a bound for every sum still packed or sent something")
	}

	// A value outside the bounds its sender proved is slot corruption: above
	// the upper one, below the lower one.
	if _, err := host.OpenBroadcastSums(route, cts, upTo(10, 20, 29, 40), 1); !errors.Is(err, ErrSlotCorrupt) {
		t.Fatalf("value above its bound: got %v, want ErrSlotCorrupt", err)
	}
	bounds := upTo(10, 20, 30, 40)
	bounds[1].Lo = 21
	if _, err := host.OpenBroadcastSums(route, cts, bounds, 1); !errors.Is(err, ErrSlotCorrupt) {
		t.Fatalf("value below its bound: got %v, want ErrSlotCorrupt", err)
	}
	bounds[1].Lo = 20
	if got, err := host.OpenBroadcastSums(route, cts, bounds, 1); err != nil || got[1] != 20 || got[2] != 30 {
		t.Fatalf("values at their bounds rejected: %v, %v", got, err)
	}

	// A signed sum opens as O + S, S in [−B⁻, B⁺]: one past either end of
	// SumBound's interval is slot corruption, each end itself is not.
	b, err := ctx.SumBound(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	maxQ := uint64(1)<<r - 1
	if b.Lo != ReturnOffset-3*maxQ || b.Hi != ReturnOffset+5*maxQ {
		t.Fatalf("SumBound(3, 5) = [%d, %d], want [O − 3M, O + 5M]", b.Lo, b.Hi)
	}
	edges, err := host.EncryptNats([]mpint.Nat{mpint.FromUint64(b.Lo - 1), mpint.FromUint64(b.Lo), mpint.FromUint64(b.Hi), mpint.FromUint64(b.Hi + 1)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []uint64{b.Lo - 1, b.Lo, b.Hi, b.Hi + 1} {
		got, err := host.OpenBroadcastSums(route, edges[i:i+1], []Bound{b}, 1)
		if inside := i == 1 || i == 2; inside && (err != nil || got[0] != v) || !inside && !errors.Is(err, ErrSlotCorrupt) {
			t.Fatalf("opened %d against [%d, %d]: %v, %v", v, b.Lo, b.Hi, got, err)
		}
	}

	// A plaintext wider than its declared slots — a sum that carried, or a
	// request that lies about its count — is slot corruption at the decryptor.
	wide, err := host.EncryptNats([]mpint.Nat{mpint.Lsh(mpint.One(), 64*2)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := ctx.layout(1)
	if _, err := arbiter.decryptSlots(wide, 2, l); !errors.Is(err, ErrSlotCorrupt) {
		t.Fatalf("stray bit above the declared slots: got %v, want ErrSlotCorrupt", err)
	}
	if got, err := arbiter.decryptSlots(wide, 3, l); err != nil || got[2] != 1 {
		t.Fatalf("three declared slots hold the same plaintext: %v, %v", got, err)
	}
	if _, err := arbiter.decryptSlots(wide, 4, l); !errors.Is(err, ErrSlotCorrupt) {
		t.Fatalf("count needing two plaintexts against one: got %v, want ErrSlotCorrupt", err)
	}
}

// FuzzSplitSlots drives the decryptor side of the return path with any
// plaintexts against any declared count and stride, under a packed key of any
// width up to 65,535 bits (which fixes the values a plaintext carries): it
// must reject with ErrSlotCorrupt — a stride the key cannot hold included —
// or return exactly the declared number of values, each the 64 bits at its
// block's target slot with the rest of that slot clear and nothing above the
// declared blocks (at stride 1 they re-pack to the input), and never allocate
// for a count the plaintexts cannot carry. The seed corpus is under
// testdata/fuzz/FuzzSplitSlots.
func FuzzSplitSlots(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2}, uint8(1), 2, 1, uint16(1024))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(1), 1, 1, uint16(128))
	f.Add([]byte{}, uint8(0), 0, 1, uint16(1024))
	f.Add([]byte{7}, uint8(3), 31, 1, uint16(1024))
	f.Add([]byte{7}, uint8(1), math.MaxInt, 1, uint16(1024))
	f.Add([]byte{7}, uint8(1), -1, 0, uint16(1024))
	f.Add([]byte{7}, uint8(1), 1, 5, uint16(1024))
	f.Add([]byte{7}, uint8(1), 1, math.MaxInt, uint16(2048))
	// The signed return's offset layout: targets at O ± a little, at 1 and at
	// 2^64 − 1, cross-term slots lifted by 2^63 under the least and the most
	// mask, one block a plaintext at s = 5 and three at s = 2.
	block := func(s int, target uint64, draw uint64) *big.Int {
		l, err := strideLayout(1023, s, true)
		if err != nil {
			f.Fatal(err)
		}
		return toBig(crossMask(nil, l, target, func() uint64 { return draw }))
	}
	f.Add(block(5, ReturnOffset+5, math.MaxUint64).Bytes(), uint8(1), 1, 5, uint16(1024))
	f.Add(block(5, ReturnOffset-7, 0).Bytes(), uint8(1), 1, 5, uint16(1024))
	three := new(big.Int)
	for b, target := range []uint64{ReturnOffset, math.MaxUint64, 1} {
		three.Or(three, new(big.Int).Lsh(block(2, target, uint64(b)*0x9E3779B97F4A7C15), uint(b*3*BroadcastSlotBits)))
	}
	f.Add(three.Bytes(), uint8(1), 3, 2, uint16(1024))
	f.Add(new(big.Int).Or(new(big.Int).Lsh(new(big.Int).SetUint64(ReturnOffset+3), 64), new(big.Int).SetUint64(ReturnOffset-3)).Bytes(), uint8(1), 2, 1, uint16(1024))
	f.Fuzz(func(t *testing.T, data []byte, nPts uint8, count, stride int, keyBits uint16) {
		// data is cut into nPts big-endian plaintexts of equal length.
		pts := make([]mpint.Nat, nPts)
		if nPts > 0 {
			each := len(data) / int(nPts)
			for i := range pts {
				pts[i] = mpint.FromBytes(data[i*each : (i+1)*each])
			}
		}
		l, err := strideLayout(int(keyBits)-1, stride, true)
		var got []uint64
		if err == nil {
			got, err = splitReturn(pts, count, l)
		}
		if err != nil {
			if !errors.Is(err, ErrSlotCorrupt) {
				t.Fatalf("untyped reject: %v", err)
			}
			return
		}
		if len(got) != count || cap(got) != count || count > len(pts)*l.Per() {
			t.Fatalf("%d values (cap %d) from %d plaintexts of %d values, declared %d", len(got), cap(got), len(pts), l.Per(), count)
		}
		block := l.Block()
		for g, pt := range pts {
			vals := got[g*l.Per() : min((g+1)*l.Per(), count)]
			if stride == 1 {
				if mpint.Cmp(mpint.FromWords(vals), pt) != 0 {
					t.Fatalf("plaintext %d does not re-pack from its values", g)
				}
				continue
			}
			if pt.BitLen() > block*len(vals) {
				t.Fatalf("plaintext %d: %d bits accepted in %d blocks of %d", g, pt.BitLen(), len(vals), block)
			}
			for b, v := range vals {
				target := mpint.Rsh(pt, uint(b*block+l.At()))
				lo, _ := target.Uint64()
				if rest := mpint.Rsh(target, returnSlotBits); v != lo || !rest.IsZero() && rest.TrailingZeroBits() < BroadcastSlotBits-returnSlotBits {
					t.Fatalf("plaintext %d, value %d: %d accepted from a target slot holding %v", g, b, v, target)
				}
			}
		}
	})
}

// FuzzReturnRequest feeds arbitrary bytes to the decryptor's read of a
// return-path request (parseRequest) under a key size, with batch compression
// on or off. It never panics and a reject is ErrSlotCorrupt; an accepted
// request names a stride in [1, maxStride], the layout built from it and a
// value count its batch's ciphertexts carry, and the batch is the bytes
// behind the header's two minimal uvarints.
func FuzzReturnRequest(f *testing.F) {
	request := func(s, count uint64, cts int) []byte {
		b := binary.AppendUvarint(binary.AppendUvarint(nil, s), count)
		nats := make([]mpint.Nat, cts)
		for i := range nats {
			nats[i] = mpint.FromUint64(uint64(i) + 1)
		}
		return flnet.AppendNats(b, nats)
	}
	f.Add(request(1, 3, 1), uint16(256), true)     // s = 1: three 64-bit slots a ciphertext
	f.Add(request(5, 8, 8), uint16(1024), true)    // s = 5: one 945-bit block a ciphertext
	f.Add(request(1, 3, 1)[:1], uint16(256), true) // a truncated header
	f.Add(request(0, 1, 1), uint16(1024), true)
	f.Add(request(uint64(maxStride(1023, true)+1), 1, 1), uint16(1024), true)
	f.Add(request(2, 1, 1), uint16(1024), false)                                  // a stride without batch compression
	f.Add(request(1, 4, 1), uint16(256), true)                                    // a count one ciphertext cannot carry
	f.Add(append([]byte{0x81, 0x00}, request(1, 1, 1)[1:]...), uint16(256), true) // a non-minimal stride
	f.Add(request(1, 1<<63, 1), uint16(256), true)                                // a count past any int32
	f.Fuzz(func(t *testing.T, b []byte, keyBits uint16, packed bool) {
		plainBits := int(keyBits) - 1
		l, count, body, err := parseRequest(b, plainBits, packed)
		if err != nil {
			if !errors.Is(err, ErrSlotCorrupt) {
				t.Fatalf("untyped reject: %v", err)
			}
			return
		}
		s, rest, _ := flnet.ReadUvarint(b)
		if s < 1 || s > uint64(maxStride(plainBits, packed)) {
			t.Fatalf("accepted a stride of %d in %d-bit plaintexts (batch compression %t)", s, plainBits, packed)
		}
		if want, _ := strideLayout(plainBits, int(s), packed); l != want {
			t.Fatalf("stride %d: layout %+v, want %+v", s, l, want)
		}
		n, rest, _ := flnet.ReadUvarint(rest)
		cts, _, _ := flnet.ReadUvarint(rest)
		if uint64(count) != n || count < 1 || uint64(l.Plaintexts(count)) != cts {
			t.Fatalf("accepted %d values for a batch of %d ciphertexts of %d", count, cts, l.Per())
		}
		if head := len(b) - len(rest); len(body) != len(rest) || &body[0] != &b[head] {
			t.Fatalf("the batch is not the %d bytes behind the header", len(rest))
		}
	})
}

// relabel rewrites the sender and kind of every frame it carries.
type relabel struct {
	flnet.Transport
	from, kind string
}

func (r relabel) Send(msg flnet.Message) error {
	msg.From, msg.Kind = r.from, r.kind
	return r.Transport.Send(msg)
}

// TestExchangeRejectsMisrouted: a vertical message its destination reads
// from another sender or of another kind is ErrMisrouted, never decoded; one
// to a party the transport does not know is the transport's error, charged
// nothing.
func TestExchangeRejectsMisrouted(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	arbiter := ctx.NewParty("arbiter")
	for _, r := range []relabel{{from: "guest", kind: "plain"}, {from: "arbiter", kind: "hist"}} {
		r.Transport = returnNet(ctx)
		if _, err := arbiter.SendValues(r, "host", "plain", []uint64{1, 2}); !errors.Is(err, ErrMisrouted) {
			t.Fatalf("a frame relabelled %q from %s: %v, want ErrMisrouted", r.kind, r.from, err)
		}
	}
	before := ctx.Costs.Snapshot()
	if _, err := arbiter.SendValues(returnNet(ctx), "nobody", "plain", []uint64{1}); err == nil {
		t.Fatal("a frame to an unknown party was delivered")
	}
	if after := ctx.Costs.Snapshot(); after.CommMsgs != before.CommMsgs || after.CommBytes != before.CommBytes {
		t.Fatalf("an undelivered frame was charged: %d messages, %d bytes", after.CommMsgs-before.CommMsgs, after.CommBytes-before.CommBytes)
	}
}
