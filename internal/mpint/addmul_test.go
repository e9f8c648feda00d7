package mpint

import (
	"encoding/binary"
	"math/big"
	"sync"
	"testing"
)

// forEachBody runs fn once under every kernel body this host can execute
// (eachAddMulBody: mulq, adx and ifma52+adx as far as CPUID goes on amd64, the
// Go loop elsewhere), then once more with one- and two-limb moduli on the rows
// instead of mul1/mul2 (useRegs), and names the body when fn fails. The
// differential suites call it so a kernel is held to the same corpora
// whichever body a box would have picked; what the host cannot run is logged
// once, not failed.
func forEachBody(t *testing.T, fn func()) {
	t.Helper()
	run := func(body string) {
		defer func() {
			if t.Failed() {
				t.Logf("kernel body: %s", body)
			}
		}()
		fn()
	}
	skipped := eachAddMulBody(run)
	defer func(regs bool) { useRegs = regs }(useRegs)
	useRegs = false
	run(KernelName() + " without mul1/mul2")
	if len(skipped) > 0 {
		logSkipped.Do(func() { t.Logf("this CPU cannot run, so no suite here covers: %v", skipped) })
	}
}

var logSkipped sync.Once

// limbsFrom reads n limbs out of data from byte offset off, wrapping around;
// no data reads as zero limbs.
func limbsFrom(data []byte, off, n int) []Word {
	out := make([]Word, n)
	if len(data) == 0 {
		return out
	}
	var b [8]byte
	for i := range out {
		for j := range b {
			b[j] = data[(off+8*i+j)%len(data)]
		}
		out[i] = binary.LittleEndian.Uint64(b[:])
	}
	return out
}

// checkAddMulVW holds z += x·w to math/big, through the Go loop and through
// every body of the kernel. The operands sit `lead` limbs into larger slabs
// whose limbs on both sides — and all of x — must come back untouched.
func checkAddMulVW(t *testing.T, z, x []Word, w Word, lead int) {
	t.Helper()
	const guard = 0xA5A5A5A5A5A5A5A5
	n := len(x)
	sum := new(big.Int).Mul(toBig(x), new(big.Int).SetUint64(w))
	sum.Add(sum, toBig(z))
	want := make([]Word, n+1)
	copy(want, fromBig(sum))

	got := append([]Word(nil), z...)
	if c := addMulVWGo(got, x, w); c != want[n] || Cmp(got, want[:n]) != 0 {
		t.Fatalf("addMulVWGo(%x, %x, %x) = %x carry %x, math/big says %x", z, x, w, got, c, want)
	}
	slab := func(v []Word) []Word {
		s := make([]Word, lead+n+3)
		for i := range s {
			s[i] = guard
		}
		copy(s[lead:], v)
		return s
	}
	forEachBody(t, func() {
		zs, xs := slab(z), slab(x)
		c := addMulVW(zs[lead:lead+n], xs[lead:lead+n], w)
		if c != want[n] || Cmp(zs[lead:lead+n], want[:n]) != 0 {
			t.Fatalf("addMulVW(%x, %x, %x) = %x carry %x, want %x", z, x, w, zs[lead:lead+n], c, want)
		}
		for i := range zs {
			if inside := i >= lead && i < lead+n; !inside && (zs[i] != guard || xs[i] != guard) || inside && xs[i] != x[i-lead] {
				t.Fatalf("addMulVW over %d limbs at offset %d wrote outside z (slab limb %d)", n, lead, i)
			}
		}
	})
}

// TestAddMulVW sweeps every length through the ×8 unroll and each of its
// tails, on all-zero, all-one and random limbs and the three multipliers a
// carry chain is most likely to get wrong, and says which body this CPU runs.
func TestAddMulVW(t *testing.T) {
	t.Logf("body selected on this host: %s", KernelName())
	r := NewRNG(0xADD)
	for n := 0; n <= 130; n++ {
		random := r.RandBits(64 * (2*n + 1)).Bytes()
		for _, data := range [][]byte{nil, {0xFF}, random} {
			for _, w := range []Word{0, 1, ^Word(0), r.Uint64()} {
				checkAddMulVW(t, limbsFrom(data, 0, n), limbsFrom(data, 8*n, n), w, n%3)
			}
		}
	}
}

func FuzzAddMulVW(f *testing.F) {
	for _, n := range []uint8{0, 1, 7, 8, 9, 16, 17, 64, 127, 130} {
		f.Add([]byte{0xFF}, ^uint64(0), n, n%5)
		f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 1, 0xFF}, uint64(1)<<63, n, uint8(1))
	}
	f.Add([]byte{}, uint64(3), uint8(12), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, w uint64, n, lead uint8) {
		limbs := int(n) % 131
		checkAddMulVW(t, limbsFrom(data, 0, limbs), limbsFrom(data, 8*limbs+3, limbs), w, int(lead)%8)
	})
}

func BenchmarkAddMulVW(b *testing.B) {
	r := NewRNG(42)
	for _, n := range []int{4, 8, 16, 32, 64} {
		z, x, w := limbsFrom(r.RandBits(64*n).Bytes(), 0, n), limbsFrom(r.RandBits(64*n).Bytes(), 0, n), r.Uint64()
		b.Run("go/"+FromUint64(uint64(n)).String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				addMulVWGo(z, x, w)
			}
		})
		eachAddMulBody(func(body string) {
			b.Run(body+"/"+FromUint64(uint64(n)).String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					addMulVW(z, x, w)
				}
			})
		})
	}
}
