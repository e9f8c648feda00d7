// Package core is FLBooster's platform layer. It is the one constructor of the
// HE stack — checked executor and its devices, Paillier backend (NewStack) — which
// the federation's contexts (fl.NewContext, every profile) and the Table-I
// platform below are both built on, and it assembles that stack and the
// cryptosystems into the user-facing API surface of Table I: vectorized
// multi-precision arithmetic (add/sub/mul/div/mod), modular operations
// (mod_inv, mod_mul, mod_pow), and the Paillier/RSA operation families.
package core

import (
	"errors"
	"fmt"
	"slices"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
	"flbooster/internal/rsa"
)

// Stack is the GPU-HE stack of one party: the executor that owns a fleet of
// simulated devices and runs every vector op over it (launch → spot-check →
// retry/backoff → exclude-and-steal → host, DESIGN.md §7, §15), and the
// Paillier backend lowered onto that executor. A fleet of no device is the
// CPU profiles' stack: the host loop serves every op.
type Stack struct {
	Checked *ghe.CheckedEngine
	Backend *paillier.GPUBackend
}

// NewStack stands the stack up over `devices` ≥ 0 members of one configuration.
// With injection enabled each member gets its own injector, seeded apart from
// its peers', so a fault pattern does not kill the whole fleet in lockstep.
func NewStack(cfg gpu.Config, fineRM bool, devices int, inject gpu.FaultConfig, check ghe.CheckedConfig) (*Stack, error) {
	if err := inject.Validate(); err != nil {
		return nil, err
	}
	if err := check.Validate(); err != nil {
		return nil, err
	}
	checked, err := ghe.NewCheckedEngine(cfg, fineRM, devices, check)
	if err != nil {
		return nil, err
	}
	if inject.Enabled() {
		for i, d := range checked.Devices() {
			member := inject
			member.Seed += uint64(i) * 0x9e3779b97f4a7c15
			d.SetFaultInjector(gpu.NewFaultInjector(member))
		}
	}
	backend, err := paillier.NewGPUBackend(checked)
	if err != nil {
		return nil, err
	}
	return &Stack{Checked: checked, Backend: backend}, nil
}

// GenerateKey generates a party's Paillier key on the stack — the prime
// walk's Miller–Rabin rounds launched on the executor a window at a time — as
// set-up rather than as work: the members' fault injectors sit the search out,
// and every counter the executor and its devices keep is zeroed after it. A
// context built on the stack therefore starts from the device, executor and
// fault readings a host-generated key left, and an injected fault schedule —
// a seeded stream of dice, a launch to die at — meets the launches it did.
func (s *Stack) GenerateKey(rng *mpint.RNG, bits int) (*paillier.PrivateKey, error) {
	devs := s.Checked.Devices()
	injectors := make([]*gpu.FaultInjector, len(devs))
	for i, d := range devs {
		injectors[i] = d.Injector()
		d.SetFaultInjector(nil)
	}
	sk, err := s.Backend.GenerateKey(rng, bits)
	for i, d := range devs {
		d.SetFaultInjector(injectors[i])
	}
	s.Checked.ResetStats()
	return sk, err
}

// Platform is one FLBooster instance bound to a (simulated) GPU: the stack at
// one device, no injected faults and the default checking policy, plus the
// seed stream its keys and nonces are drawn from.
type Platform struct {
	st  *Stack
	rng *mpint.RNG
}

// New creates a platform over the given device configuration with the
// fine-grained resource manager. seed drives key generation and nonces;
// use a crypto-quality seed in production.
func New(cfg gpu.Config, seed uint64) (*Platform, error) {
	st, err := NewStack(cfg, true, 1, gpu.FaultConfig{}, ghe.CheckedConfig{})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Platform{st: st, rng: mpint.NewRNG(seed)}, nil
}

// Default creates a platform modelling the paper's RTX 3090 testbed.
func Default(seed uint64) *Platform {
	p, err := New(gpu.RTX3090(), seed)
	if err != nil {
		panic(err) // RTX3090 config is statically valid
	}
	return p
}

// Device exposes the underlying device for stats and utilization readings.
func (p *Platform) Device() *gpu.Device { return p.st.Checked.Devices()[0] }

// --- Table I: fundamental vector arithmetic --------------------------------

// Add computes values1[i] + values2[i] on the device.
func (p *Platform) Add(values1, values2 []mpint.Nat) ([]mpint.Nat, error) {
	return p.st.Checked.AddVec(values1, values2)
}

// Sub computes values1[i] − values2[i] on the device.
func (p *Platform) Sub(values1, values2 []mpint.Nat) ([]mpint.Nat, error) {
	return p.st.Checked.SubVec(values1, values2)
}

// Mul computes values1[i] · values2[i] on the device.
func (p *Platform) Mul(values1, values2 []mpint.Nat) ([]mpint.Nat, error) {
	return p.st.Checked.MulVec(values1, values2)
}

// Div computes values1[i] / values2[i] on the device.
func (p *Platform) Div(values1, values2 []mpint.Nat) ([]mpint.Nat, error) {
	return p.st.Checked.DivVec(values1, values2)
}

// Mod computes x[i] mod n on the device.
func (p *Platform) Mod(x []mpint.Nat, n mpint.Nat) ([]mpint.Nat, error) {
	return p.st.Checked.ModVec(x, n)
}

// --- Table I: modular operations --------------------------------------------

// ModInv computes x[i]⁻¹ mod n; every element must be invertible.
func (p *Platform) ModInv(x []mpint.Nat, n mpint.Nat) ([]mpint.Nat, error) {
	out := make([]mpint.Nat, len(x))
	for i, v := range x {
		inv, ok := mpint.ModInverse(v, n)
		if !ok {
			return nil, fmt.Errorf("core: element %d has no inverse mod n", i)
		}
		out[i] = inv
	}
	return out, nil
}

// ErrModulus rejects a modulus the Montgomery kernels of ModMul and ModPow have
// no context for: zero, even, or 1. The last is odd and not zero, and the only
// answer mod 1 is 0, but it is rejected with the others, before anything is
// stated: the zero vector would be the one result these two return without
// running their kernel — a case of its own on every engine — for a modulus no
// protocol produces and a caller almost certainly did not mean.
var ErrModulus = errors.New("modulus must be odd and at least 3")

// ModMul computes values1[i] · values2[i] mod n via the device's Montgomery
// kernel; n must be odd. Any naturals are accepted: an operand at or above n is
// reduced mod n on the host before the op is stated — the kernel multiplies
// residues, and uploads them at the width of n.
func (p *Platform) ModMul(values1, values2 []mpint.Nat, n mpint.Nat) ([]mpint.Nat, error) {
	if n.IsEven() || n.IsOne() {
		return nil, fmt.Errorf("core: ModMul: %w", ErrModulus)
	}
	return p.st.Checked.ModMulVec(residues(values1, n), residues(values2, n), mpint.NewMont(n))
}

// residues is xs with every element at or above n reduced mod n — xs itself
// when none is.
func residues(xs []mpint.Nat, n mpint.Nat) []mpint.Nat {
	var reduced []mpint.Nat
	for i, x := range xs {
		if mpint.Cmp(x, n) >= 0 {
			if reduced == nil {
				reduced = slices.Clone(xs)
			}
			reduced[i] = mpint.Mod(x, n)
		}
	}
	if reduced != nil {
		return reduced
	}
	return xs
}

// ModPow computes x[i]^e mod n via the device's sliding-window kernel;
// n must be odd. Any naturals are accepted, as for ModMul: a base at or above
// n is reduced mod n, here inside the kernel's lane.
func (p *Platform) ModPow(x []mpint.Nat, e, n mpint.Nat) ([]mpint.Nat, error) {
	if n.IsEven() || n.IsOne() {
		return nil, fmt.Errorf("core: ModPow: %w", ErrModulus)
	}
	return p.st.Checked.ModExpVec(x, e, mpint.NewMont(n))
}

// --- Table I: Paillier family ------------------------------------------------

// PaillierKeyGen generates a Paillier key pair with an n of exactly `bits`
// bits, its prime walk's Miller–Rabin rounds launched on the device a window at
// a time. The key is paillier.GenerateKey's on the platform's seed stream;
// sizes paillier.GenerateKey rejects reject here the same.
func (p *Platform) PaillierKeyGen(bits int) (*paillier.PrivateKey, error) {
	if err := paillier.CheckKeyBits(bits); err != nil {
		return nil, err
	}
	sk, err := p.st.Backend.GenerateKey(p.rng, bits)
	if err != nil {
		return nil, fmt.Errorf("core: PaillierKeyGen: %w", err)
	}
	return sk, nil
}

// PaillierEncrypt encrypts a batch of plaintexts on the device.
func (p *Platform) PaillierEncrypt(pub *paillier.PublicKey, plaintexts []mpint.Nat) ([]paillier.Ciphertext, error) {
	return p.st.Backend.EncryptVec(pub, plaintexts, p.rng.Uint64())
}

// PaillierDecrypt decrypts a batch of ciphertexts on the device.
func (p *Platform) PaillierDecrypt(priv *paillier.PrivateKey, cts []paillier.Ciphertext) ([]mpint.Nat, error) {
	return p.st.Backend.DecryptVec(priv, cts)
}

// PaillierAdd computes the homomorphic addition of two ciphertext batches.
func (p *Platform) PaillierAdd(pub *paillier.PublicKey, a, b []paillier.Ciphertext) ([]paillier.Ciphertext, error) {
	return p.st.Backend.AddVec(pub, a, b)
}

// --- Table I: RSA family ------------------------------------------------------

// RSAKeyGen generates an RSA key pair with an n of exactly `bits` bits, its
// primes walked as PaillierKeyGen's are: rsa.GenerateKeyWith's key on the
// platform's seed stream. Sizes rsa.CheckKeyBits rejects reject here the same.
func (p *Platform) RSAKeyGen(bits int) (*rsa.PrivateKey, error) {
	if err := rsa.CheckKeyBits(bits); err != nil {
		return nil, err
	}
	sk, err := rsa.GenerateKeyWith(p.st.Checked.PrimeSearch(), p.rng, bits)
	if err != nil {
		return nil, fmt.Errorf("core: RSAKeyGen: %w", err)
	}
	return sk, nil
}

// RSAEncrypt encrypts a plaintext batch (one modexp kernel).
func (p *Platform) RSAEncrypt(pub *rsa.PublicKey, plaintexts []mpint.Nat) ([]rsa.Ciphertext, error) {
	for i, m := range plaintexts {
		if mpint.Cmp(m, pub.N) >= 0 {
			return nil, fmt.Errorf("core: RSAEncrypt element %d exceeds modulus", i)
		}
	}
	pows, err := p.st.Checked.ModExpVec(plaintexts, pub.E, pub.Mont())
	if err != nil {
		return nil, err
	}
	out := make([]rsa.Ciphertext, len(pows))
	for i, c := range pows {
		out[i] = rsa.Ciphertext{C: c}
	}
	return out, nil
}

// RSADecrypt decrypts a ciphertext batch (one modexp kernel with the private
// exponent).
func (p *Platform) RSADecrypt(priv *rsa.PrivateKey, cts []rsa.Ciphertext) ([]mpint.Nat, error) {
	bases := make([]mpint.Nat, len(cts))
	for i, c := range cts {
		if mpint.Cmp(c.C, priv.N) >= 0 {
			return nil, fmt.Errorf("core: RSADecrypt element %d out of range", i)
		}
		bases[i] = c.C
	}
	return p.st.Checked.ModExpVec(bases, priv.D, priv.Mont())
}

// RSAMul computes the multiplicative homomorphism over two batches.
func (p *Platform) RSAMul(pub *rsa.PublicKey, a, b []rsa.Ciphertext) ([]rsa.Ciphertext, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("core: RSAMul length mismatch %d vs %d", len(a), len(b))
	}
	av := make([]mpint.Nat, len(a))
	bv := make([]mpint.Nat, len(b))
	for i := range a {
		av[i], bv[i] = a[i].C, b[i].C
	}
	prods, err := p.st.Checked.ModMulVec(av, bv, pub.Mont())
	if err != nil {
		return nil, err
	}
	out := make([]rsa.Ciphertext, len(prods))
	for i, c := range prods {
		out[i] = rsa.Ciphertext{C: c}
	}
	return out, nil
}
