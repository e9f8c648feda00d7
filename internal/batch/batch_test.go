package batch

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"flbooster/internal/core"
	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
	"flbooster/internal/quant"
)

// mustNew is New for the parameters a test knows are good.
func mustNew(q *quant.Quantizer, keyBits int) *Packer {
	p, err := New(q, keyBits)
	if err != nil {
		panic(err)
	}
	return p
}

func testPacker(t testing.TB, rBits uint, parties, keyBits int) *Packer {
	t.Helper()
	return mustNew(quant.MustNew(rBits, parties), keyBits)
}

func TestSlotsMatchEq9(t *testing.T) {
	// r+b = 32 ⇒ ~32 slots at 1024-bit keys, ~64 at 2048, ~128 at 4096 — the
	// headline §IV-C numbers, minus the one slot the aggregation-overflow
	// safety bound costs when r+b divides k exactly (see New).
	q := quant.MustNew(30, 4) // r=30, b=2 ⇒ 32-bit slots
	for _, c := range []struct{ key, want int }{{1024, 31}, {2048, 63}, {4096, 127}} {
		p := mustNew(q, c.key)
		if p.Slots() != c.want {
			t.Errorf("Slots(k=%d) = %d, want %d", c.key, p.Slots(), c.want)
		}
	}
	// With a non-divisor slot width, the paper formula is already safe.
	q2 := quant.MustNew(28, 4) // 30-bit slots
	if p := mustNew(q2, 1024); p.Slots() != 1024/30 {
		t.Errorf("non-divisor Slots = %d, want %d", p.Slots(), 1024/30)
	}
}

func TestAggregatedPackingNeverExceedsModulusBits(t *testing.T) {
	// The invariant behind the safety bound: a p-fold aggregated packing
	// must stay below 2^(k−1) ≤ n for every slot geometry.
	for _, r := range []uint{14, 22, 30} {
		for _, key := range []int{128, 256, 512, 1024} {
			q := quant.MustNew(r, 4)
			p, err := New(q, key)
			if err != nil {
				continue
			}
			maxVal := uint64(1)<<r - 1
			vals := make([]uint64, p.Slots())
			for i := range vals {
				vals[i] = maxVal
			}
			packed, err := p.Pack(vals)
			if err != nil {
				t.Fatal(err)
			}
			// Worst case: four parties at the clamp value.
			agg := packed[0]
			for i := 0; i < 3; i++ {
				agg = mpint.Add(agg, packed[0])
			}
			if agg.BitLen() > key-1 {
				t.Fatalf("r=%d k=%d: aggregate needs %d bits, modulus only guarantees %d",
					r, key, agg.BitLen(), key-1)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 1024); err == nil {
		t.Error("nil quantizer should fail")
	}
	if _, err := New(quant.MustNew(40, 4), 16); err == nil {
		t.Error("key too small for one slot should fail")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	p := testPacker(t, 30, 4, 1024)
	r := mpint.NewRNG(1)
	for _, n := range []int{1, 31, 32, 33, 64, 100, 1000} {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = r.Uint64() & (1<<30 - 1)
		}
		packed, err := p.Pack(vals)
		if err != nil {
			t.Fatal(err)
		}
		if len(packed) != p.NumPlaintexts(n) {
			t.Fatalf("n=%d: %d plaintexts, want %d", n, len(packed), p.NumPlaintexts(n))
		}
		got, err := p.Unpack(packed, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("n=%d: slot %d = %d, want %d", n, i, got[i], vals[i])
			}
		}
	}
}

func TestPackRejectsOversizedValue(t *testing.T) {
	p := testPacker(t, 16, 2, 256)
	if _, err := p.Pack([]uint64{1 << 16}); err == nil {
		t.Fatal("value wider than r bits should be rejected")
	}
}

func TestUnpackValidation(t *testing.T) {
	p := testPacker(t, 16, 2, 256)
	packed, _ := p.Pack([]uint64{1, 2, 3})
	if _, err := p.Unpack(packed, -1); err == nil {
		t.Error("negative count should fail")
	}
	if _, err := p.Unpack(packed, 1000); err == nil {
		t.Error("count/plaintext mismatch should fail")
	}
}

// TestUnpackRejectsTooWide: a decrypted plaintext with a bit above the slots
// it carries is another party's input, so it rejects, typed — neither a panic
// on a region one word short nor its high bits silently dropped.
func TestUnpackRejectsTooWide(t *testing.T) {
	single, err := NewSingle(quant.MustNew(50, 4), 100) // one 52-bit slot, one word
	if err != nil || single.Slots() != 1 {
		t.Fatalf("one-slot packer at 100 bits: %v slots, %v", single, err)
	}
	for _, c := range []struct {
		name string
		p    *Packer
		pt   mpint.Nat
	}{
		{"2^70 in one 52-bit slot", single, mpint.Lsh(mpint.FromUint64(1), 70)},
		{"2^2040+5 in one used slot of 63", testPacker(t, 30, 4, 2048), mpint.Add(mpint.Lsh(mpint.FromUint64(1), 2040), mpint.FromUint64(5))},
	} {
		got, err := c.p.Unpack([]mpint.Nat{c.pt}, 1)
		if !errors.Is(err, ErrTooWide) || got != nil {
			t.Errorf("%s: unpacked to %v (%v), want ErrTooWide", c.name, got, err)
		}
	}
}

func TestPackedValueBelowModulusBound(t *testing.T) {
	// The top slot's guard bits are the packed integer's MSBs, so every
	// packed plaintext must have strictly fewer than keyBits bits.
	p := testPacker(t, 31, 2, 1024) // 32-bit slots, 31 slots after the bound
	vals := make([]uint64, p.Slots())
	for i := range vals {
		vals[i] = 1<<31 - 1 // max slot value
	}
	packed, err := p.Pack(vals)
	if err != nil {
		t.Fatal(err)
	}
	if got := packed[0].BitLen(); got >= 1024 {
		t.Fatalf("packed plaintext has %d bits, must stay under the key size", got)
	}
}

func TestHomomorphicAggregationThroughPacking(t *testing.T) {
	// The core §IV-C claim: pack, encrypt, homomorphically add p ciphertexts,
	// decrypt, unpack — slot sums are exact, guard bits absorb the carries.
	const parties = 4
	q := quant.MustNew(14, parties)
	st, err := core.NewStack(gpu.Config{}, false, 0, gpu.FaultConfig{}, ghe.CheckedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := st.GenerateKey(mpint.NewRNG(77), 128)
	if err != nil {
		t.Fatal(err)
	}
	p := mustNew(q, sk.KeyBits())
	r := mpint.NewRNG(2)
	rng := mpint.NewRNG(3)

	const n = 20
	wantSums := make([]uint64, n)
	var aggregate []paillier.Ciphertext
	for party := 0; party < parties; party++ {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = r.Uint64() & (1<<14 - 1)
			wantSums[i] += vals[i]
		}
		packed, err := p.Pack(vals)
		if err != nil {
			t.Fatal(err)
		}
		cts := make([]paillier.Ciphertext, len(packed))
		for i, pt := range packed {
			cts[i], err = sk.Encrypt(pt, rng)
			if err != nil {
				t.Fatal(err)
			}
		}
		if aggregate == nil {
			aggregate = cts
		} else {
			for i := range cts {
				aggregate[i] = sk.Add(aggregate[i], cts[i])
			}
		}
	}
	plain := make([]mpint.Nat, len(aggregate))
	for i, ct := range aggregate {
		m, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		plain[i] = m
	}
	got, err := p.Unpack(plain, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantSums {
		if got[i] != wantSums[i] {
			t.Fatalf("slot %d: aggregated %d, want %d", i, got[i], wantSums[i])
		}
	}
}

// TestEncodeGradientsRejectsNaN: a NaN gradient fails the batch with
// quant.ErrNaN instead of reaching Quantize's float-to-integer conversion
// (implementation-defined for NaN: +α on amd64); ±Inf clamps to ±α.
func TestEncodeGradientsRejectsNaN(t *testing.T) {
	q := quant.MustNew(20, 2)
	p := mustNew(q, 512)
	for _, grads := range [][]float64{{math.NaN()}, {0.1, -0.2, math.NaN(), 0.3}} {
		if _, err := p.EncodeGradientsInto(nil, grads); !errors.Is(err, quant.ErrNaN) {
			t.Errorf("EncodeGradientsInto(%v) = %v, want quant.ErrNaN", grads, err)
		}
	}
	inf := []float64{math.Inf(1), math.Inf(-1)}
	got, err := p.EncodeGradientsInto(nil, inf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Pack([]uint64{q.Quantize(quant.Alpha), q.Quantize(-quant.Alpha)})
	if err != nil || mpint.Cmp(got[0], want[0]) != 0 {
		t.Fatalf("±Inf packed as %v, want the ±α clamp %v (%v)", got, want, err)
	}
}

func TestEncodeDecodeGradients(t *testing.T) {
	const parties = 2
	q := quant.MustNew(20, parties)
	p := mustNew(q, 512)
	grads := []float64{-quant.Alpha, -0.5, 0, 0.25, 0.98, 0.0002, -0.6}

	packed, err := p.EncodeGradientsInto(nil, grads)
	if err != nil {
		t.Fatal(err)
	}
	// Two parties send identical gradients; sum plaintexts directly (the
	// crypto path is covered above).
	sums := make([]mpint.Nat, len(packed))
	for i := range packed {
		sums[i] = mpint.Add(packed[i], packed[i])
	}
	got, err := p.DecodeAggregated(sums, len(grads), parties)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range grads {
		want := 2 * g
		bound := 2 * q.MaxError()
		if d := got[i] - want; d > bound || d < -bound {
			t.Fatalf("gradient %d decoded to %v, want %v ± %v", i, got[i], want, bound)
		}
	}
	if _, err := p.DecodeAggregated(sums, 1000, parties); err == nil {
		t.Fatal("mismatched count should fail")
	}
}

// TestDecodeAggregatedIsUnpackThenDequantize: the one-pass decode equals
// Unpack followed by quant.DequantizeSum on each slot, bit for bit, over
// random widths, slot counts and sums — a slot past parties·(2^r−1), a
// parties count past the quantizer's capacity, and a plaintext with a bit
// above its slots (ErrTooWide) included, each reject with the same text.
func TestDecodeAggregatedIsUnpackThenDequantize(t *testing.T) {
	rng := mpint.NewRNG(58)
	var rejects, tooWide, decoded int
	for trial := range 2000 {
		capacity := 1 + rng.Intn(16)
		q := quant.MustNew(uint(2+rng.Intn(40)), capacity)
		keyBits := []int{128, 256, 512, 1024}[rng.Intn(4)]
		p, err := New(q, keyBits)
		if err != nil {
			continue // the key holds no slot of this width
		}
		parties := 1 + rng.Intn(capacity)
		sumBound := uint64(parties) * (1<<q.RBits() - 1)
		if rng.Intn(8) == 0 {
			parties = []int{0, capacity + 1}[rng.Intn(2)] // past the quantizer's capacity
		}
		slotBits := q.SlotBits()
		count := rng.Intn(3*p.Slots() + 1)
		pts := make([]mpint.Nat, p.NumPlaintexts(count))
		past, wide := -1, -1 // a slot past every party's sum, a too-wide plaintext
		if count > 0 && rng.Intn(4) == 0 {
			past = rng.Intn(count)
		}
		if len(pts) > 0 && rng.Intn(8) == 0 {
			wide = rng.Intn(len(pts))
		}
		for pi := range pts {
			words := make(mpint.Nat, (p.Slots()*int(slotBits)+mpint.WordBits-1)/mpint.WordBits)
			slotsHere := min(p.Slots(), count-pi*p.Slots())
			for s := range slotsHere {
				v := rng.Uint64() % (sumBound + 1)
				if pi*p.Slots()+s == past {
					v = 1<<slotBits - 1
				}
				mpint.OrField(words, s*int(slotBits), v)
			}
			pts[pi] = mpint.TakeWords(words)
			if pi == wide {
				pts[pi] = mpint.Add(pts[pi], mpint.Lsh(mpint.FromUint64(1), uint(slotsHere)*slotBits+uint(rng.Intn(8))))
			}
		}
		var want []float64
		sums, wantErr := p.Unpack(pts, count)
		if wantErr == nil {
			want = make([]float64, 0, len(sums))
			for i, sum := range sums {
				v, err := q.DequantizeSum(sum, parties)
				if err != nil {
					wantErr = fmt.Errorf("quant: element %d: %w", i, err)
					want = nil
					break
				}
				want = append(want, v)
			}
		}
		got, err := p.DecodeAggregated(pts, count, parties)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() ||
			errors.Is(err, ErrTooWide) != errors.Is(wantErr, ErrTooWide) {
			t.Fatalf("trial %d: error %v, want %v", trial, err, wantErr)
		}
		if len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("trial %d: %d values, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: value %d is %v, want %v", trial, i, got[i], want[i])
			}
		}
		switch {
		case errors.Is(err, ErrTooWide):
			tooWide++
		case err != nil:
			rejects++
		default:
			decoded++
		}
	}
	t.Logf("%d decoded, %d too wide, %d other rejects", decoded, tooWide, rejects)
	if tooWide == 0 || rejects == 0 || decoded == 0 {
		t.Fatalf("trials: %d decoded, %d too wide, %d other rejects; want some of each", decoded, tooWide, rejects)
	}
}

func TestSlotBoundaryBitPatterns(t *testing.T) {
	// Slot widths that do not divide 32 exercise the cross-word OR/extract
	// paths: every slot boundary lands at a different bit offset.
	for _, r := range []uint{7, 13, 17, 23, 29, 37, 45} {
		q := quant.MustNew(r, 3) // b=2
		p := mustNew(q, 512)
		n := p.Slots() * 3
		vals := make([]uint64, n)
		rng := mpint.NewRNG(uint64(r))
		for i := range vals {
			vals[i] = rng.Uint64() & (1<<r - 1)
		}
		packed, err := p.Pack(vals)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Unpack(packed, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("r=%d: slot %d = %d, want %d", r, i, got[i], vals[i])
			}
		}
	}
}

func BenchmarkPack1024Values(b *testing.B) {
	p := testPacker(b, 30, 4, 1024)
	vals := make([]uint64, 1024)
	r := mpint.NewRNG(9)
	for i := range vals {
		vals[i] = r.Uint64() & (1<<30 - 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Pack(vals); err != nil {
			b.Fatal(err)
		}
	}
}
