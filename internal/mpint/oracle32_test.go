package mpint

// The host Montgomery kernel as it was before the move to 64-bit limbs: CIOS
// over uint32 words with a uint64 accumulator, R = 2^(32·k). It survives here
// for one PR as a differential oracle for the 64-bit kernel (ROADMAP item 3:
// deleted in the next one). The loop bodies are the old Mont.mulInto
// verbatim; only the operand plumbing (Words32/FromWords32) is new.

type mont32 struct {
	n     []uint32 // the modulus, exactly k words
	k     int      // R = 2^(32k)
	n0inv uint32   // -n[0]⁻¹ mod 2³²
	rr    []uint32 // R² mod n
}

func newMont32(n Nat) *mont32 {
	k := (n.BitLen() + 31) / 32
	m := &mont32{n: n.Words32(k), k: k}
	inv := m.n[0]
	for i := 0; i < 4; i++ {
		inv *= 2 - m.n[0]*inv
	}
	m.n0inv = -inv
	r := Mod(Lsh(One(), uint(32*k)), n)
	m.rr = Mod(Mul(r, r), n).Words32(k)
	return m
}

// mul returns a·b·R⁻¹ mod n over k-word operands.
func (m *mont32) mul(aw, bw []uint32) []uint32 {
	k := m.k
	t := make([]uint64, k+2)
	for i := 0; i < k; i++ {
		// t += a * b[i]
		var carry uint64
		bi := uint64(bw[i])
		for j := 0; j < k; j++ {
			s := t[j] + uint64(aw[j])*bi + carry
			t[j] = s & 0xFFFFFFFF
			carry = s >> 32
		}
		s := t[k] + carry
		t[k] = s & 0xFFFFFFFF
		t[k+1] += s >> 32

		// mi = t[0] * n' mod 2³²; t += mi * n; t >>= 32
		mi := uint64(uint32(t[0]) * m.n0inv)
		s = t[0] + mi*uint64(m.n[0])
		carry = s >> 32
		for j := 1; j < k; j++ {
			s = t[j] + mi*uint64(m.n[j]) + carry
			t[j-1] = s & 0xFFFFFFFF
			carry = s >> 32
		}
		s = t[k] + carry
		t[k-1] = s & 0xFFFFFFFF
		t[k] = t[k+1] + s>>32
		t[k+1] = 0
	}
	// Final conditional subtraction.
	z := make([]uint32, k)
	for i := 0; i < k; i++ {
		z[i] = uint32(t[i])
	}
	if t[k] != 0 || Cmp(FromWords32(z), FromWords32(m.n)) >= 0 {
		var borrow uint64
		for i := 0; i < k; i++ {
			d := uint64(z[i]) - uint64(m.n[i]) - borrow
			z[i] = uint32(d)
			borrow = (d >> 32) & 1
		}
	}
	return z
}

// montMul is the old Mont.Mul: a·b·2^(−32k) mod n.
func (m *mont32) montMul(a, b Nat) Nat {
	return FromWords32(m.mul(a.Words32(m.k), b.Words32(m.k)))
}

// modMul is a·b mod n by the old kernel alone: into Montgomery form, one
// multiply, out again. It is independent of the radix, so it is what the
// 64-bit kernel must agree with at every modulus width.
func (m *mont32) modMul(a, b Nat) Nat {
	one := make([]uint32, m.k)
	one[0] = 1
	am := m.mul(a.Words32(m.k), m.rr)
	bm := m.mul(b.Words32(m.k), m.rr)
	return FromWords32(m.mul(m.mul(am, bm), one))
}

// exp is base^e mod n by plain left-to-right square-and-multiply over the
// old kernel.
func (m *mont32) exp(base, e Nat) Nat {
	one := make([]uint32, m.k)
	one[0] = 1
	bm := m.mul(base.Words32(m.k), m.rr)
	acc := m.mul(one, m.rr)
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc = m.mul(acc, acc)
		if e.Bit(i) == 1 {
			acc = m.mul(acc, bm)
		}
	}
	return FromWords32(m.mul(acc, one))
}
