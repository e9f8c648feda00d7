package fl

import (
	"errors"
	"math"
	"testing"

	"flbooster/internal/flnet"
	"flbooster/internal/ghe"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

func TestEncryptValuesUnpackedIgnoresPacker(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{-0.5, 0, 0.5, 0.999}
	cts, err := ctx.EncryptValuesUnpacked(vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(cts) != len(vals) {
		t.Fatalf("unpacked encryption produced %d ciphertexts for %d values", len(cts), len(vals))
	}
	// Round trip through DecryptRaw + manual dequantization.
	raws, err := ctx.DecryptRaw(cts)
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
	big := mpint.NewRNG(1).RandBits(100) // wider than 64 bits
	cts, err := ctx.EncryptNats([]mpint.Nat{big}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.DecryptRaw(cts); err == nil {
		t.Fatal("overflowing raw plaintext should be reported")
	}
}

func TestEncryptZero(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFATE))
	if err != nil {
		t.Fatal(err)
	}
	z, err := ctx.EncryptZero()
	if err != nil {
		t.Fatal(err)
	}
	raws, err := ctx.DecryptRaw([]paillier.Ciphertext{z})
	if err != nil {
		t.Fatal(err)
	}
	if raws[0] != 0 {
		t.Fatalf("E(0) decrypted to %d", raws[0])
	}
}

func TestReduceSum(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	// Sum 1..9 homomorphically.
	pts := make([]mpint.Nat, 9)
	for i := range pts {
		pts[i] = mpint.FromUint64(uint64(i + 1))
	}
	cts, err := ctx.EncryptNats(pts, int64(len(pts)))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ctx.ReduceSum(cts)
	if err != nil {
		t.Fatal(err)
	}
	raws, err := ctx.DecryptRaw([]paillier.Ciphertext{sum})
	if err != nil {
		t.Fatal(err)
	}
	if raws[0] != 45 {
		t.Fatalf("ReduceSum = %d, want 45", raws[0])
	}
	if _, err := ctx.ReduceSum(nil); err == nil {
		t.Fatal("empty reduce should fail")
	}
	// Single element passes through.
	one, err := ctx.ReduceSum(cts[:1])
	if err != nil {
		t.Fatal(err)
	}
	raws, err = ctx.DecryptRaw([]paillier.Ciphertext{one})
	if err != nil {
		t.Fatal(err)
	}
	if raws[0] != 1 {
		t.Fatalf("single-element reduce = %d", raws[0])
	}
}

func TestWeightedSum(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFATE))
	if err != nil {
		t.Fatal(err)
	}
	pts := []mpint.Nat{mpint.FromUint64(3), mpint.FromUint64(5), mpint.FromUint64(7), mpint.FromUint64(11)}
	cts, err := ctx.EncryptNats(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 2*3 + 0*5 + 1*7 + 10*11 = 123
	sum, err := ctx.WeightedSum(cts, []uint64{2, 0, 1, 10})
	if err != nil {
		t.Fatal(err)
	}
	raws, err := ctx.DecryptRaw([]paillier.Ciphertext{sum})
	if err != nil {
		t.Fatal(err)
	}
	if raws[0] != 123 {
		t.Fatalf("WeightedSum = %d, want 123", raws[0])
	}
	// All-zero scalars produce E(0).
	zero, err := ctx.WeightedSum(cts, []uint64{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	raws, err = ctx.DecryptRaw([]paillier.Ciphertext{zero})
	if err != nil {
		t.Fatal(err)
	}
	if raws[0] != 0 {
		t.Fatalf("zero-weight sum = %d", raws[0])
	}
	if _, err := ctx.WeightedSum(cts, []uint64{1}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

// returnWirings builds one context per HE substrate the return path runs on:
// the serial CPU backend, the bare one-attempt engine on one device, the
// checked engine every GPU profile uses over its default one-device set, and
// the same over a two-device fleet — all with batch compression on, so
// OpenSums packs.
func returnWirings(t *testing.T, keyBits int) map[string]*Context {
	t.Helper()
	build := func(sys System, devices int) *Context {
		p := testProfile(sys)
		p.KeyBits = keyBits
		p.Devices = devices
		ctx, err := NewContext(p)
		if err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	raw := build(SystemFLBooster, 0)
	eng, err := ghe.NewEngine(raw.Device)
	if err != nil {
		t.Fatal(err)
	}
	raw.Backend = paillier.MustGPUBackend(eng)
	return map[string]*Context{
		"cpu":           build(SystemNoGHE, 0),
		"single-device": raw,
		"checked":       build(SystemFLBooster, 0),
		"devices=2":     build(SystemFLBooster, 2),
	}
}

// boundedValues draws count (value, bound) pairs that exercise the slot
// edges: all-ones slots, values at their bound, zeros, and uniform draws.
func boundedValues(rng *mpint.RNG, count int) (vals, bounds []uint64) {
	vals, bounds = make([]uint64, count), make([]uint64, count)
	for i := range vals {
		bound := rng.Uint64()
		switch i % 4 {
		case 0:
			bound = math.MaxUint64
		case 1:
			bound >>= rng.Uint64() % 64
		}
		bounds[i] = bound
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
			all, err := ctx.EncryptNats(pts, int64(maxCount))
			if err != nil {
				t.Fatal(err)
			}
			net := flnet.NewSimTransport(ctx.Link, "host", "arbiter")
			route := ReturnRoute{Net: net, Party: "host", Decryptor: "arbiter", Kind: "sums", ReplyKind: "plain"}
			for _, k := range counts {
				want, err := ctx.DecryptRaw(all[:k])
				if err != nil {
					t.Fatal(err)
				}
				before := ctx.Costs.Snapshot()
				got, err := ctx.OpenSums(route, all[:k], bounds[:k])
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
				packed := (k + slots - 1) / slots
				request := flnet.Message{From: "host", To: "arbiter", Kind: "sums"}.WireSize() + ctx.CiphertextWireBytes(packed)
				if slots > 1 {
					request += 4
				}
				reply := flnet.Message{From: "arbiter", To: "host", Kind: "plain"}.WireSize() + int64(8*k)
				if msgs, bytes := after.CommMsgs-before.CommMsgs, after.CommBytes-before.CommBytes; msgs != 2 || bytes != request+reply {
					t.Fatalf("%s/%d bits/%d sums: %d messages of %d bytes, want 2 of %d", name, keyBits, k, msgs, bytes, request+reply)
				}
			}
			net.Close()
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
		if ctx.ReturnSlots() != 1 {
			t.Fatalf("%s: %d return slots without batch compression", sys, ctx.ReturnSlots())
		}
		vals, bounds := boundedValues(mpint.NewRNG(7), 5)
		pts := make([]mpint.Nat, len(vals))
		for i, v := range vals {
			pts[i] = mpint.FromUint64(v)
		}
		cts, err := ctx.EncryptNats(pts, int64(len(pts)))
		if err != nil {
			t.Fatal(err)
		}
		net := flnet.NewSimTransport(ctx.Link, "host", "guest")
		defer net.Close()
		before := ctx.Costs.Snapshot()
		got, err := ctx.OpenSums(ReturnRoute{Net: net, Party: "host", Decryptor: "guest", Kind: "hist"}, cts, bounds)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != vals[i] {
				t.Fatalf("%s: value %d opened to %d, want %d", sys, i, got[i], vals[i])
			}
		}
		after := ctx.Costs.Snapshot()
		want := flnet.Message{From: "host", To: "guest", Kind: "hist"}.WireSize() + ctx.CiphertextWireBytes(len(cts))
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
	net := flnet.NewSimTransport(ctx.Link, "host", "arbiter")
	defer net.Close()
	route := ReturnRoute{Net: net, Party: "host", Decryptor: "arbiter", Kind: "sums", ReplyKind: "plain"}

	// A bound that does not fit a slot fails where it is derived, before
	// anything is packed or sent.
	if _, err := ctx.SumBound(1 << (65 - ctx.Quant.RBits())); !errors.Is(err, ErrSumBound) {
		t.Fatalf("over-wide bound: got %v, want ErrSumBound", err)
	}
	if b, err := ctx.SumBound(1 << (64 - ctx.Quant.RBits())); err != nil || b == 0 {
		t.Fatalf("a bound one bit narrower rejected: %d, %v", b, err)
	}
	cts, err := ctx.EncryptNats([]mpint.Nat{mpint.FromUint64(10), mpint.FromUint64(20), mpint.FromUint64(30), mpint.FromUint64(40)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := ctx.Costs.Snapshot()
	if _, err := ctx.OpenSums(route, cts, []uint64{10, 20, 30}); !errors.Is(err, ErrSumBound) {
		t.Fatalf("missing bound: got %v, want ErrSumBound", err)
	}
	if after := ctx.Costs.Snapshot(); after.CommMsgs != before.CommMsgs || after.HEOps != before.HEOps {
		t.Fatal("a request without a bound for every sum still packed or sent something")
	}

	// A value above the bound its sender proved is slot corruption.
	if _, err := ctx.OpenSums(route, cts, []uint64{10, 20, 29, 40}); !errors.Is(err, ErrSlotCorrupt) {
		t.Fatalf("value above its bound: got %v, want ErrSlotCorrupt", err)
	}
	if got, err := ctx.OpenSums(route, cts, []uint64{10, 20, 30, 40}); err != nil || got[2] != 30 {
		t.Fatalf("values at their bounds rejected: %v, %v", got, err)
	}

	// A plaintext wider than its declared slots — a sum that carried, or a
	// request that lies about its count — is slot corruption at the decryptor.
	wide, err := ctx.EncryptNats([]mpint.Nat{mpint.Lsh(mpint.One(), 64*2)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.decryptSlots(wide, 2, ctx.ReturnSlots()); !errors.Is(err, ErrSlotCorrupt) {
		t.Fatalf("stray bit above the declared slots: got %v, want ErrSlotCorrupt", err)
	}
	if got, err := ctx.decryptSlots(wide, 3, ctx.ReturnSlots()); err != nil || got[2] != 1 {
		t.Fatalf("three declared slots hold the same plaintext: %v, %v", got, err)
	}
	if _, err := ctx.decryptSlots(wide, 4, ctx.ReturnSlots()); !errors.Is(err, ErrSlotCorrupt) {
		t.Fatalf("count needing two plaintexts against one: got %v, want ErrSlotCorrupt", err)
	}
}

// FuzzSplitSlots drives the decryptor side of the return path with any
// plaintexts against any declared count and slot width: it must reject with
// ErrSlotCorrupt or return exactly the declared number of values that
// re-pack to the input, and never allocate for a count the plaintexts cannot
// carry. The seed corpus is under testdata/fuzz/FuzzSplitSlots.
func FuzzSplitSlots(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2}, uint8(1), 2, 15)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(1), 1, 1)
	f.Add([]byte{}, uint8(0), 0, 15)
	f.Add([]byte{7}, uint8(3), 31, 15)
	f.Add([]byte{7}, uint8(1), math.MaxInt, 15)
	f.Add([]byte{7}, uint8(1), -1, 0)
	f.Fuzz(func(t *testing.T, data []byte, nPts uint8, count, slots int) {
		// data is cut into nPts big-endian plaintexts of equal length.
		pts := make([]mpint.Nat, nPts)
		if nPts > 0 {
			each := len(data) / int(nPts)
			for i := range pts {
				pts[i] = mpint.FromBytes(data[i*each : (i+1)*each])
			}
		}
		got, err := splitSlots(pts, count, slots)
		if err != nil {
			if !errors.Is(err, ErrSlotCorrupt) {
				t.Fatalf("untyped reject: %v", err)
			}
			return
		}
		if len(got) != count || cap(got) != count || count > len(pts)*slots {
			t.Fatalf("%d values (cap %d) from %d plaintexts of %d slots, declared %d", len(got), cap(got), len(pts), slots, count)
		}
		for g, pt := range pts {
			vals := got[g*slots : min((g+1)*slots, count)]
			if mpint.Cmp(mpint.FromWords(vals), pt) != 0 {
				t.Fatalf("plaintext %d does not re-pack from its values", g)
			}
		}
	})
}
