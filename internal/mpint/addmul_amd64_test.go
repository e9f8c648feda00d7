package mpint

import "testing"

// eachAddMulBody runs fn under every body this host can execute — the MULQ
// row, the MULX row, and the MULX row with chains over long moduli on amm52 —
// then puts back what init selected. It returns the bodies the host lacks.
func eachAddMulBody(fn func(body string)) (skipped []string) {
	defer func(adx, ifma bool) { useADX, useIFMA = adx, ifma }(useADX, useIFMA)
	hasADX, hasIFMA := selectBodies(cpuProbe())
	useADX, useIFMA = false, false
	fn(KernelName())
	if useADX = hasADX; hasADX {
		fn(KernelName())
	} else {
		skipped = append(skipped, "adx")
	}
	if useIFMA = hasIFMA; hasIFMA {
		fn(KernelName())
	} else {
		skipped = append(skipped, "ifma52")
	}
	return skipped
}

// TestSelectBodies pins the selection rule on synthetic CPUID and XCR0 words,
// so it is held on machines that have none of the features: the IFMA chain
// needs the CPU bits (BMI2 for its scalar MULX, AVX512F, AVX512IFMA) and the
// OS's word that it saves opmask and ZMM state; the MULX row needs CPUID only.
func TestSelectBodies(t *testing.T) {
	const (
		osxsave = 1 << 27
		bmi2    = 1 << 8
		avx512f = 1 << 16
		adx     = 1 << 19
		ifma    = 1 << 21
		zmm     = 0xE6
		all7    = bmi2 | avx512f | adx | ifma
	)
	for _, tc := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		adx, ifma        bool
	}{
		{"everything", osxsave, all7, zmm | 1, true, true},
		{"nothing", 0, 0, 0, false, false},
		{"IFMA bit set, XCR0 without ZMM state", osxsave, all7, 0x07, true, false},
		{"IFMA bit set, XCR0 without the upper 16 registers", osxsave, all7, zmm &^ 0x80, true, false},
		{"IFMA bit set, XCR0 without opmask state", osxsave, all7, zmm &^ 0x20, true, false},
		{"no OSXSAVE, whatever XCR0 reads", 0, all7, zmm, true, false},
		{"AVX512F without IFMA (Skylake-X)", osxsave, all7 &^ ifma, zmm, true, false},
		{"IFMA without AVX512F", osxsave, all7 &^ avx512f, zmm, true, false},
		{"no BMI2: the MULQ loop, and no MULX for the chain's look-ahead", osxsave, all7 &^ bmi2, zmm, false, false},
		{"BMI2 without ADX (Haswell)", osxsave, bmi2, 0x07, false, false},
		{"ADX and BMI2 only (Broadwell)", osxsave, bmi2 | adx, 0x07, true, false},
	} {
		if a, i := selectBodies(tc.ecx1, tc.ebx7, tc.xcr0); a != tc.adx || i != tc.ifma {
			t.Errorf("%s: selectBodies(%#x, %#x, %#x) = adx %v ifma %v, want %v %v",
				tc.name, tc.ecx1, tc.ebx7, tc.xcr0, a, i, tc.adx, tc.ifma)
		}
	}
	ecx1, ebx7, xcr0 := cpuProbe()
	t.Logf("this host: CPUID.1:ECX %#x, CPUID.7:EBX %#x, XCR0 %#x: %s", ecx1, ebx7, xcr0, KernelName())
}
