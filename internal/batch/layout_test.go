package batch

import (
	"errors"
	"math/big"
	"slices"
	"testing"

	"flbooster/internal/mpint"
)

// FuzzLayout drives Split with any geometry NewLayout accepts, any
// plaintexts and any count. It must reject with a batch sentinel (ErrCount or
// ErrTooWide) or return exactly count values, each the value bits at its
// block's offset — math/big's Rsh and mask — with every guard clear and
// nothing above a plaintext's declared blocks; and whenever it accepts, Pack
// of the values must split back to them, and re-pack the plaintexts
// themselves where a value is its whole block. Seeds: the aggregation slot at
// 1,024 bits and r+b = 32 (31 a plaintext), the s = 1 return (15 64-bit
// values a plaintext) and the s = 5 return (one 945-bit block, the value at
// bit 420 under a 41-bit guard).
func FuzzLayout(f *testing.F) {
	seed := func(plainBits, block, at, bits, guard int, count int, value func(i int) uint64, above mpint.Nat) {
		l, err := NewLayout(plainBits, block, at, bits, guard)
		if err != nil {
			f.Fatal(err)
		}
		pts := l.Pack(nil, count, value)
		var data []byte
		for _, pt := range pts {
			data = append(data, mpint.Add(pt, above).Bytes()...)
		}
		f.Add(uint16(plainBits), uint16(block), uint16(at), uint8(bits), uint8(guard), data, uint8(len(pts)), count)
	}
	seed(1023, 32, 0, 32, 0, 31, func(i int) uint64 { return uint64(i) * 0x9E3779B9 & (1<<32 - 1) }, nil)
	seed(1023, 32, 0, 32, 0, 30, func(int) uint64 { return 1<<32 - 1 }, mpint.Lsh(mpint.One(), 30*32))
	seed(1023, 64, 0, 64, 0, 15, func(i int) uint64 { return 1<<63 + uint64(i) }, nil)
	seed(1023, 945, 420, 64, 41, 1, func(int) uint64 { return 1<<63 - 7 }, mpint.Sub(mpint.Lsh(mpint.One(), 420), mpint.One()))
	seed(1023, 945, 420, 64, 41, 1, func(int) uint64 { return 5 }, mpint.Lsh(mpint.One(), 484))
	f.Fuzz(func(t *testing.T, plainBits, block, at uint16, bits, guard uint8, data []byte, nPts uint8, count int) {
		l, err := NewLayout(int(plainBits), int(block), int(at), int(bits), int(guard))
		if err != nil {
			return
		}
		// data is cut into at most 8 big-endian plaintexts of equal length.
		pts := make([]mpint.Nat, nPts%9)
		if len(pts) > 0 {
			each := len(data) / len(pts)
			for i := range pts {
				pts[i] = mpint.FromBytes(data[i*each : (i+1)*each])
			}
		}
		got, err := Split(l, pts, count, Raw)
		if err != nil {
			if !errors.Is(err, ErrCount) && !errors.Is(err, ErrTooWide) || got != nil {
				t.Fatalf("untyped reject or a result with it: %v, %d values", err, len(got))
			}
			return
		}
		if len(got) != count || cap(got) != count {
			t.Fatalf("%d values (cap %d), declared %d", len(got), cap(got), count)
		}
		mask := func(n int) *big.Int { return new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(n)), big.NewInt(1)) }
		for g, pt := range pts {
			x := new(big.Int).SetBytes(pt.Bytes())
			k := min(l.Per(), count-g*l.Per())
			if x.BitLen() > k*int(block) {
				t.Fatalf("plaintext %d: %d bits accepted in %d blocks of %d", g, x.BitLen(), k, block)
			}
			for j := range k {
				v := new(big.Int).Rsh(x, uint(j*int(block)+int(at)))
				if want := new(big.Int).And(v, mask(int(bits))); !want.IsUint64() || want.Uint64() != got[g*l.Per()+j] {
					t.Fatalf("plaintext %d, value %d: %d, math/big reads %v", g, j, got[g*l.Per()+j], want)
				}
				if set := v.Rsh(v, uint(bits)).And(v, mask(int(guard))); set.Sign() != 0 {
					t.Fatalf("plaintext %d, value %d: accepted with guard %v", g, j, set)
				}
			}
		}
		packed := l.Pack(nil, count, func(i int) uint64 { return got[i] })
		again, err := Split(l, packed, count, Raw)
		if err != nil || !slices.Equal(again, got) {
			t.Fatalf("Pack of the values splits to %v (%v), want them back", again, err)
		}
		for g := range pts {
			if at == 0 && int(bits) == int(block) && mpint.Cmp(packed[g], pts[g]) != 0 {
				t.Fatalf("plaintext %d does not re-pack from its values", g)
			}
		}
	})
}
