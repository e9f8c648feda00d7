// Package ghe is the GPU-HE layer of FLBooster (§IV-A of the paper): it
// lowers multi-precision modular arithmetic onto the gpu substrate as
// data-parallel kernels (one work item per ciphertext). Algorithm 2's
// limb-parallel Montgomery multiplication is not a kernel of its own: the
// word-op counts below price it in 32-bit words, and on the host it runs as
// mpint's amm52 lanes.
package ghe

import "flbooster/internal/mpint"

// Cost model: kernel word-op counts charged to the simulated device clock
// (the β_gpu term of Eq. 10). One "word op" is a 32-bit multiply-add, and
// every k below is a modulus size in 32-bit words — mpint.Mont.Limbs(), the
// paper's w = 32 FRNS. This is the modelled device's unit and has nothing to
// do with the host: mpint computes the actual bits on 64-bit limbs, and a
// faster or slower host kernel must leave every number derived here
// unchanged (fl.TestSimInvariantUnderHostKernel).

// montMulWordOps approximates the CIOS inner-loop work for a k-limb modulus:
// k iterations, each with two k-limb multiply-accumulate passes.
func montMulWordOps(k int) int64 { return int64(2 * k * (k + 1)) }

// modExpWordOps approximates sliding-window exponentiation: about one
// squaring per exponent bit plus one multiply per window, with ~1.2 as the
// aggregate window factor, all in units of Montgomery multiplications.
func modExpWordOps(k, expBits int) int64 {
	if expBits < 1 {
		expBits = 1
	}
	return int64(float64(expBits)*1.2) * montMulWordOps(k)
}

// modInverseWordOps is one inverse mod a k-word modulus by a Lehmer walk:
// about k steps of a word each, every step a 2×2 matrix applied to the
// remainder pair and to the coefficient pair, eight k-word multiply-adds —
// 8k² word-ops, ≈4 Montgomery multiplies.
func modInverseWordOps(k int) int64 { return int64(8 * k * k) }

// montSetupWordOps is building the Montgomery context of a k-word modulus and
// the schedule of an exponent as long: R² mod n by long division, (k+1)·k
// multiply-subtracts, and a word-op a word for the recoding.
func montSetupWordOps(k int) int64 { return int64((k + 2) * k) }

// powNWordOps is the per-item cost of x ↦ xⁿ mod n² through the
// factorisation (mpint.CRT's noise-term chain), the chain a holder's
// encrypt_vec lane is built on: its four half-width exponentiations — mod p,
// p², q, q², each priced like any other sliding window — plus the glue
// between them: the two input reductions x mod p and x mod q (≈ kp·kq
// multiply-subtracts each), the two residues leaving Montgomery form, and
// Garner's step over p², q² (both prime-square results out of Montgomery
// form, the (q²)⁻¹ product mod p², and the plain q²·h product). At a
// 2048-bit key the stages are 2·1228·(2112 + 8320) ≈ 25.6 M word-ops and the
// glue 35 k, against modExpWordOps(128, 2048) = 81.1 M for the n² window.
func powNWordOps(st [4]mpint.CRTStage) int64 {
	kp, kp2, kq, kq2 := st[0].Limbs, st[1].Limbs, st[2].Limbs, st[3].Limbs
	ops := int64(2*kp*kq) + montMulWordOps(kp) + montMulWordOps(kq) +
		2*montMulWordOps(kp2) + montMulWordOps(kq2) + int64(kp2*kq2)
	for _, s := range st {
		ops += modExpWordOps(s.Limbs, s.ExpBits)
	}
	return ops
}

// nonceWordOps is the draw of one nonce below a kn-word n, as the stand-alone
// nonce kernel was priced.
func nonceWordOps(kn int) int64 { return int64(4 * kn) }

// encryptWordOps is the per-item cost of encrypt_vec for a party that knows
// only n (kn words; n² is k): the nonce draw, the n² window over the nBits of
// n, the plain product m·n of gᵐ = 1 + m·n (kn·kn multiply-adds), and the one
// Montgomery multiply that folds gᵐ in and leaves Montgomery form. The three
// launches it replaces charged the draw, the window and three n² multiplies.
func encryptWordOps(kn, k, nBits int) int64 {
	return nonceWordOps(kn) + modExpWordOps(k, nBits) + int64(kn*kn) + montMulWordOps(k)
}

// encryptCRTWordOps is the per-item cost of encrypt_vec for the key's holder
// (a lane of mpint.CRT.EncryptDrawVec): the nonce draw and powNWordOps' chain
// — whose two ways out of Montgomery form are now the multiplies by g_p and
// g_q, the same count — plus, a prime, the reduction of the plaintext mod the
// prime's square (a multiply-subtract over the square's words for every word
// the plaintext is longer than it, and one more) and the Montgomery product
// that takes it to m·n. At a 2048-bit key that is 256 + 25.6 M + 16.8 k word-ops, against the
// 256 + 25.6 M + 99.1 k of the three launches it replaces, whose combine ran
// three multiplies at the width of n².
func encryptCRTWordOps(kn int, st [4]mpint.CRTStage) int64 {
	ops := nonceWordOps(kn) + powNWordOps(st)
	for _, k2 := range []int{st[1].Limbs, st[3].Limbs} {
		ops += int64((max(kn-k2, 0)+1)*k2) + montMulWordOps(k2)
	}
	return ops
}

// decryptCRTWordOps is the per-item cost of decrypt_crt_vec
// (mpint.CRT.Decrypt) for a key of kn words: a prime s, the reduction of the
// ciphertext — 2·kn words — mod s² (a multiply-subtract over the square's words
// for every word the ciphertext is longer than it, and one more), the window
// over s² under the exponent s−1 (as long as s, the stage's own exponent), the
// multiply that leaves Montgomery form, the division of L_s (the square's words
// by the prime's) and the Montgomery product by h; then Garner's step over
// (p, q): a reduction, a product mod p and the plain q·h. At a 2048-bit key the
// two windows are 2·1228·8320 ≈ 20.4 M word-ops — what the two mod_exp_vec
// launches this replaces charged — and the rest 40 k, which used to run on the
// host, unpriced.
func decryptCRTWordOps(kn int, st [4]mpint.CRTStage) int64 {
	ops := int64(2*st[0].Limbs*st[2].Limbs) + montMulWordOps(st[0].Limbs)
	for i := 0; i < 4; i += 2 {
		k1, k2 := st[i].Limbs, st[i+1].Limbs
		ops += int64((max(2*kn-k2, 0)+1)*k2) + modExpWordOps(k2, st[i+1].ExpBits) +
			montMulWordOps(k2) + int64(k1*k2) + montMulWordOps(k1)
	}
	return ops
}

// regsForLimbs models a kernel's per-thread register demand as a function of
// operand size: the working set of CIOS holds the accumulator row plus
// pointers and carries. Larger keys need more registers, which is what
// degrades SM occupancy at 4096-bit keys in Fig. 6.
func regsForLimbs(k int) int {
	r := 24 + k
	if r > 255 {
		r = 255
	}
	return r
}
