#include "textflag.h"

// STEP is one limb of the MULX row: x[off/8]·w comes back as out:R9, the low
// half picks up the previous product's high half on the CF chain and the old
// z limb on the OF chain. The two chains never touch each other's flag, so
// consecutive steps overlap instead of serialising on one carry.
#define STEP(off, in, out) \
	MULXQ off(SI), R9, out; \
	ADCXQ in, R9;           \
	ADOXQ off(DI), R9;      \
	MOVQ  R9, off(DI)

// func addMulVW(z, x []Word, w Word) (carry Word)
//
// z += x·w over len(x) limbs. With ·useADX set the limbs go eight at a time
// through the MULX/ADCX/ADOX steps and the 0–7 left over through the MULQ
// loop; without it the MULQ loop is the whole body.
TEXT ·addMulVW(SB), NOSPLIT, $0-64
	MOVQ z_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ w+48(FP), R11
	XORQ R8, R8               // the carry limb between steps and blocks
	CMPB ·useADX(SB), $0
	JEQ  tail
	MOVQ R11, DX              // MULX multiplies by DX
	SUBQ $8, CX
	JLT  rest

block:
	XORQ  AX, AX              // AX = 0 and CF = OF = 0
	STEP(0, R8, R10)
	STEP(8, R10, R8)
	STEP(16, R8, R10)
	STEP(24, R10, R8)
	STEP(32, R8, R10)
	STEP(40, R10, R8)
	STEP(48, R8, R10)
	STEP(56, R10, R8)
	ADCXQ AX, R8              // the last high half takes both chains' carries;
	ADOXQ AX, R8              // z + x·w < 2⁶⁴ᵏ⁺⁶⁴, so it cannot wrap
	LEAQ  64(SI), SI
	LEAQ  64(DI), DI
	SUBQ  $8, CX
	JGE   block

rest:
	ADDQ $8, CX

tail:
	TESTQ CX, CX
	JEQ   done

limb:
	MOVQ (SI), AX
	MULQ R11                  // DX:AX = x[i]·w
	ADDQ (DI), AX
	ADCQ $0, DX
	ADDQ R8, AX
	ADCQ $0, DX
	MOVQ AX, (DI)
	MOVQ DX, R8
	LEAQ 8(SI), SI
	LEAQ 8(DI), DI
	DECQ CX
	JNE  limb

done:
	MOVQ R8, carry+56(FP)
	RET

// func cpuProbe() (ecx1, ebx7, xcr0 uint32)
//
// The raw words selectBodies decides over, zero where the CPU cannot be asked:
// CPUID leaf 1 ECX (bit 27 OSXSAVE), leaf 7 sub-leaf 0 EBX (BMI2, ADX,
// AVX512F, AVX512IFMA), and XCR0 — which state components the OS saves —
// through XGETBV, which only exists where OSXSAVE is set.
TEXT ·cpuProbe(SB), NOSPLIT, $0-12
	MOVL $0, ecx1+0(FP)
	MOVL $0, ebx7+4(FP)
	MOVL $0, xcr0+8(FP)
	XORL AX, AX
	CPUID
	MOVL AX, R8               // highest basic leaf
	CMPL R8, $1
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R9
	MOVL CX, ecx1+0(FP)
	CMPL R8, $7
	JLT  xcr
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, ebx7+4(FP)

xcr:
	BTL  $27, R9              // OSXSAVE: XGETBV is there to be asked
	JCC  done
	XORL CX, CX
	XGETBV
	MOVL AX, xcr0+8(FP)

done:
	RET
