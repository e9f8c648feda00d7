package mpint

// useADX selects the body addMulVW runs: eight limbs a pass through
// MULX/ADCX/ADOX when the CPU has BMI2 and ADX, else a MULQ/ADCQ loop. useIFMA
// says the radix-2⁵² chain kernel (amm52) can run here at all; ifmaMinLimbs
// decides per modulus whether it does. Both are set once, here, from what the
// CPU and the OS report; the in-package tests flip them to run the
// differential suites over every body.
var useADX, useIFMA = selectBodies(cpuProbe())

// cpuProbe returns the raw words the selection reads: CPUID.1:ECX,
// CPUID.(7,0):EBX, and the low half of XCR0 when ECX says XGETBV exists
// (else 0).
func cpuProbe() (ecx1, ebx7, xcr0 uint32)

// selectBodies is the whole selection rule. MULX/ADCX/ADOX work on general
// registers, so CPUID alone answers for them; ZMM code also needs the OS to
// save the registers it uses — XCR0 bits 1, 2 (SSE, AVX) and 5–7 (opmask, the
// high halves of ZMM0–15, ZMM16–31) — or it faults on a kernel or hypervisor
// that has not enabled AVX-512 state, whatever CPUID says. amm52's scalar
// look-ahead is written with MULX, hence BMI2 there too.
func selectBodies(ecx1, ebx7, xcr0 uint32) (adx, ifma bool) {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX
		bmi2     = 1 << 8  // CPUID.(7,0):EBX
		avx512f  = 1 << 16
		adxBit   = 1 << 19
		ifmaBit  = 1 << 21
		zmmState = 0xE6 // XCR0
	)
	adx = ebx7&(bmi2|adxBit) == bmi2|adxBit
	ifma = ecx1&osxsave != 0 && xcr0&zmmState == zmmState &&
		ebx7&(bmi2|avx512f|ifmaBit) == bmi2|avx512f|ifmaBit
	return adx, ifma
}

// KernelName says which bodies this host's arithmetic runs on: "adx" or
// "mulq" for the addMulVW row, prefixed "ifma52+" where exponentiation chains
// over long moduli run on the AVX-512 IFMA kernel. Read-only: nothing selects
// a body but the probe above.
func KernelName() string {
	name := "mulq"
	if useADX {
		name = "adx"
	}
	if useIFMA {
		name = "ifma52+" + name
	}
	return name
}

// addMulVW sets z += x·w over len(x) limbs and returns the carry-out limb:
// the one row every multiply in this package is made of (addmul_amd64.s).
// len(z) must be at least len(x) — the assembly does not check — and z must
// not overlap x.
//
//go:noescape
func addMulVW(z, x []Word, w Word) (carry Word)

// amm52 sets z = a·b·2^(−52d) mod n up to one extra n, on operands of len(n)
// 52-bit digits (amm52_amd64.s; mont52.go owns the representation and every
// precondition).
//
//go:noescape
func amm52(z, a, b, n []Word, d int, k0 Word)

// amm52x8 is amm52 eight lanes wide: eight independent multiplies on
// operands transposed into rows of eight digits (amm52x8_amd64.s;
// mont52x8.go owns the layout and every precondition).
//
//go:noescape
func amm52x8(z, a, b, n, t []Word, k0 *[8]Word, d int)
