package batch

import (
	"testing"
	"testing/quick"

	"flbooster/internal/mpint"
	"flbooster/internal/quant"
)

// TestPropertyPackUnpackIdentity quantifies pack∘unpack = id over random
// value vectors and slot geometries.
func TestPropertyPackUnpackIdentity(t *testing.T) {
	f := func(seed uint32, rBitsRaw uint8, nRaw uint16) bool {
		r := uint(rBitsRaw)%30 + 4 // r ∈ [4, 33]
		q, err := quant.New(r, 4)
		if err != nil {
			return true // invalid geometry, skip
		}
		p, err := New(q, 512)
		if err != nil {
			return true
		}
		n := int(nRaw)%200 + 1
		local := mpint.NewRNG(uint64(seed))
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = local.Uint64() & (1<<r - 1)
		}
		packed, err := p.Pack(vals)
		if err != nil {
			return false
		}
		got, err := p.Unpack(packed, n)
		if err != nil {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPackedAdditionIsSlotwise: adding packed plaintexts as integers
// equals slot-wise addition of the values, for any sum that respects the
// guard bits — the algebraic fact batch compression rests on.
func TestPropertyPackedAdditionIsSlotwise(t *testing.T) {
	q := quant.MustNew(12, 8) // b = 3 guard bits: up to 8 addends
	p := mustNew(q, 256)
	rng := mpint.NewRNG(2)
	for trial := 0; trial < 100; trial++ {
		n := int(rng.Uint64()%60) + 1
		addends := int(rng.Uint64()%8) + 1
		sums := make([]uint64, n)
		var accum []mpint.Nat
		for a := 0; a < addends; a++ {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() & (1<<12 - 1)
				sums[i] += vals[i]
			}
			packed, err := p.Pack(vals)
			if err != nil {
				t.Fatal(err)
			}
			if accum == nil {
				accum = packed
			} else {
				for i := range accum {
					accum[i] = mpint.Add(accum[i], packed[i])
				}
			}
		}
		got, err := p.Unpack(accum, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sums {
			if got[i] != sums[i] {
				t.Fatalf("trial %d: slot %d = %d, want %d (addends %d)", trial, i, got[i], sums[i], addends)
			}
		}
	}
}

// TestPropertyEncodeGradientsIsPackOfQuantizeVec: the one-pass client path is
// Pack(QuantizeVec(g)) limb for limb — over random lengths (empty, one short of
// a plaintext, exactly one, one over), values inside the bound, on it, beyond
// it (clamped) and half a step either side of a rounding edge, and every quantization width a profile or a
// benchmark configures (30: the default; 16: cohort_tree_128 and the scale
// sweep; 14: fl's test profile), at the key sizes those run on.
func TestPropertyEncodeGradientsIsPackOfQuantizeVec(t *testing.T) {
	for _, g := range []struct {
		rBits            uint
		parties, keyBits int
	}{{30, 4, 2048}, {30, 4, 1024}, {30, 4, 256}, {16, 2048, 128}, {16, 100, 256}, {14, 8, 256}, {52, 2, 512}, {2, 1, 128}} {
		q := quant.MustNew(g.rBits, g.parties)
		p := mustNew(q, g.keyBits)
		rng := mpint.NewRNG(uint64(g.rBits)<<16 | uint64(g.keyBits))
		edge := []float64{0, quant.Alpha, -quant.Alpha, quant.Alpha + 1e-7, -quant.Alpha - 1e-7, 7, -7, q.Step() / 2, -q.Step() / 2, quant.Alpha - q.Step()/2}
		for _, n := range []int{0, 1, p.Slots() - 1, p.Slots(), p.Slots() + 1, 3*p.Slots() + 2, 1 + rng.Intn(500)} {
			grads := make([]float64, n)
			for i := range grads {
				if grads[i] = 2.4 * quant.Alpha * (rng.Float64() - 0.5); rng.Intn(4) == 0 {
					grads[i] = edge[rng.Intn(len(edge))]
				}
			}
			got, err := p.EncodeGradientsInto(nil, grads)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Pack(q.QuantizeVec(grads))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || len(got) != p.NumPlaintexts(n) {
				t.Fatalf("r=%d k=%d n=%d: %d plaintexts, Pack gives %d", g.rBits, g.keyBits, n, len(got), len(want))
			}
			for i := range want {
				if len(got[i]) != len(want[i]) || mpint.Cmp(got[i], want[i]) != 0 {
					t.Fatalf("r=%d k=%d n=%d: plaintext %d = %v, Pack(QuantizeVec) = %v", g.rBits, g.keyBits, n, i, got[i], want[i])
				}
				if l := len(got[i]); l > 0 && got[i][l-1] == 0 {
					t.Fatalf("r=%d k=%d n=%d: plaintext %d is not in canonical form", g.rBits, g.keyBits, n, i)
				}
			}
		}
	}
}

// TestEncodeAllocCeiling pins both packing paths at the plaintexts they return
// and the slice that holds them: no quantized vector, no staging limbs.
func TestEncodeAllocCeiling(t *testing.T) {
	q := quant.MustNew(30, 4)
	p := mustNew(q, 2048)
	grads := make([]float64, 2048)
	rng := mpint.NewRNG(9)
	for i := range grads {
		grads[i] = 2 * quant.Alpha * (rng.Float64() - 0.5)
	}
	vals := q.QuantizeVec(grads)
	ceiling := float64(p.NumPlaintexts(len(grads)) + 1)
	for name, fn := range map[string]func(){
		"EncodeGradients": func() { p.EncodeGradientsInto(make([]mpint.Nat, 0, p.NumPlaintexts(len(grads))), grads) },
		"Pack":            func() { p.Pack(vals) },
	} {
		if got := testing.AllocsPerRun(20, fn); got > ceiling {
			t.Errorf("%s: %.0f allocations for %.0f plaintexts and their slice", name, got, ceiling-1)
		}
	}
}
