package ghe

import (
	"fmt"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// ParMont executes the paper's Algorithm 2: a single Montgomery
// multiplication computed cooperatively by T threads of one block, each
// owning x = s/T contiguous limbs. Partial products accumulate into a
// shared-memory t vector; per-thread carry-outs propagate between segments
// via shared memory at block barriers — the "inter-thread communication" of
// §IV-A1 — and the conditional final subtraction runs after the last shift.
//
// The kernel computes on the paper's w = 32 words, whatever the host limb
// width: operands and modulus arrive through mpint's explicit 32-bit views,
// s is the modulus size in 32-bit words, and the Montgomery radix is
// R = 2^(32·s) — which is the host mpint.Mont's radix only when s is even.
//
// This path exists for fidelity (it is differentially tested against
// math/big at that radix); the throughput-oriented vector kernels in ops.go
// instead parallelize across independent ciphertexts, which is how both the
// paper's system and this reproduction spend nearly all device time.
type ParMont struct {
	dev     *gpu.Device
	mont    *mpint.Mont
	threads int
	s       int // 32-bit words per operand
	x       int // 32-bit words per thread
}

// NewParMont prepares a parallel context for the modulus behind m, with T
// threads per multiplication. T must divide the modulus size in 32-bit words.
func NewParMont(dev *gpu.Device, m *mpint.Mont, threads int) (*ParMont, error) {
	s := m.Limbs()
	if threads <= 0 || s%threads != 0 {
		return nil, fmt.Errorf("ghe: %d threads must evenly divide %d limbs", threads, s)
	}
	if threads > dev.Config().MaxThreadsPerSM {
		return nil, fmt.Errorf("ghe: %d threads exceed SM capacity %d", threads, dev.Config().MaxThreadsPerSM)
	}
	return &ParMont{dev: dev, mont: m, threads: threads, s: s, x: s / threads}, nil
}

// Shared memory layout for one block (sizes in 32-bit words):
//
//	[0 : s+2)          t, the running accumulator
//	[s+2 : s+2+T)      per-thread carry-outs
//	[s+2+T]            m_i, the reduction multiplier of the iteration
//	[s+2+T+1]          overflow flag for the final subtraction
const (
	tOff = 0
)

// MulVec computes a[i]*b[i]*R⁻¹ mod n with R = 2^(32·s) for each pair, one
// cooperative block per pair. Inputs must be < n. Use MulOne to run a single
// multiplication.
func (p *ParMont) MulVec(a, b []mpint.Nat) ([]mpint.Nat, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("ghe: ParMont.MulVec length mismatch %d vs %d", len(a), len(b))
	}
	s, T := p.s, p.threads
	carryOff := s + 2
	miOff := carryOff + T
	sharedWords := miOff + 2

	n := p.mont.N().Words32(s)
	n0inv := p.mont.N0Inv32()
	out := make([]mpint.Nat, len(a))

	aw := make([][]uint32, len(a))
	bw := make([][]uint32, len(b))
	for i := range a {
		aw[i] = a[i].Words32(s)
		bw[i] = b[i].Words32(s)
	}

	err := p.dev.LaunchCooperative("parmont_cios", len(a), T, sharedWords, func(tc *gpu.ThreadCtx) {
		item := tc.Block
		lo := tc.Thread * p.x
		hi := lo + p.x
		t := tc.Shared[tOff : tOff+s+2]
		carries := tc.Shared[carryOff : carryOff+T]

		// Zero the accumulator cooperatively.
		for w := lo; w < hi; w++ {
			t[w] = 0
		}
		if tc.Thread == 0 {
			t[s], t[s+1] = 0, 0
		}
		tc.SyncThreads()

		for i := 0; i < s; i++ {
			bi := uint64(bw[item][i])

			// Phase 1: t += a · b_i, per-segment with carry-out.
			var carry uint64
			for w := lo; w < hi; w++ {
				pr := uint64(aw[item][w])*bi + uint64(t[w]) + carry
				t[w] = uint32(pr)
				carry = pr >> 32
			}
			carries[tc.Thread] = uint32(carry)
			tc.SyncThreads()
			// Thread 0 ripples segment carry-outs upward (cheap: T ≪ s).
			if tc.Thread == 0 {
				rippleCarries(t, carries, p.x, s)
			}
			tc.SyncThreads()

			// Phase 2: m_i = t[0] · n'₀ mod 2³² (thread 0 broadcasts).
			if tc.Thread == 0 {
				tc.Shared[miOff] = t[0] * n0inv
			}
			tc.SyncThreads()
			mi := uint64(tc.Shared[miOff])

			// Phase 3: t += m_i · n.
			carry = 0
			for w := lo; w < hi; w++ {
				pr := mi*uint64(n[w]) + uint64(t[w]) + carry
				t[w] = uint32(pr)
				carry = pr >> 32
			}
			carries[tc.Thread] = uint32(carry)
			tc.SyncThreads()
			if tc.Thread == 0 {
				rippleCarries(t, carries, p.x, s)
			}
			tc.SyncThreads()

			// Phase 4: shift t one word right. Each thread stages its new
			// segment locally so the write-back cannot race the reads.
			local := make([]uint32, p.x)
			for w := lo; w < hi; w++ {
				local[w-lo] = t[w+1]
			}
			tc.SyncThreads()
			copy(t[lo:hi], local)
			if tc.Thread == T-1 {
				t[s] = t[s+1]
				t[s+1] = 0
			}
			tc.SyncThreads()
		}

		// Final conditional subtraction (thread 0; once per multiplication).
		if tc.Thread == 0 {
			z := mpint.FromWords32(t[:s])
			if t[s] != 0 || mpint.Cmp(z, p.mont.N()) >= 0 {
				zw := subModWords(t[:s], n)
				out[item] = mpint.FromWords32(zw)
			} else {
				out[item] = z
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MulOne runs a single cooperative Montgomery multiplication.
func (p *ParMont) MulOne(a, b mpint.Nat) (mpint.Nat, error) {
	res, err := p.MulVec([]mpint.Nat{a}, []mpint.Nat{b})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// rippleCarries adds each segment's carry-out at the next segment's first
// word, propagating any cascade, and folds the final carry into t[s]/t[s+1].
func rippleCarries(t []uint32, carries []uint32, x, s int) {
	for th, c := range carries {
		if c == 0 {
			continue
		}
		pos := (th + 1) * x
		carry := uint64(c)
		for pos < s+2 && carry != 0 {
			sum := uint64(t[pos]) + carry
			t[pos] = uint32(sum)
			carry = sum >> 32
			pos++
		}
		carries[th] = 0
	}
}

// subModWords computes t - n over s-limb little-endian word slices, with the
// borrow-out cancelled by the implicit overflow limb.
func subModWords(t, n []uint32) []uint32 {
	z := make([]uint32, len(t))
	var borrow uint64
	for i := range t {
		d := uint64(t[i]) - uint64(n[i]) - borrow
		z[i] = uint32(d)
		borrow = (d >> 32) & 1
	}
	return z
}
