#include "textflag.h"

// The accumulator of a product lives in Z0..Z25, eight 52-bit digits a
// register, low chunk in Z0; the register above the top chunk is never written
// and stays zero. G gathers one pass's digit products for one chunk; BLO/YLO
// hold this row's b digit and reduction digit y in every lane, BHI/YHI the row
// before's.
#define G   Z27
#define BLO Z28
#define YLO Z29
#define BHI Z30
#define YHI Z31

// CHUNK is one pass over chunk c of the accumulator (U, with UN the chunk
// above): the high halves of the row before and the low halves of this row
// land on the same digits, so they gather in G from zero — four multiplies
// that do not wait for the accumulator — while the accumulator shifts down one
// digit, and one add joins them. It leaves the pass when c is the top chunk.
#define CHUNK(c, U, UN) \
	VPXORQ      G, G, G;          \
	VPMADD52HUQ (64*c)(SI), BHI, G; \
	VPMADD52HUQ (64*c)(DI), YHI, G; \
	VPMADD52LUQ (64*c)(SI), BLO, G; \
	VPMADD52LUQ (64*c)(DI), YLO, G; \
	VALIGNQ     $1, U, UN, U;     \
	VPADDQ      G, U, U;          \
	CMPQ        CX, $(c+1);       \
	JEQ         passend

#define STORE(c, U) \
	VMOVDQU64 U, (64*c)(AX); \
	CMPQ      CX, $(c+1);    \
	JEQ       stored

// func amm52(z, a, b, n []Word, d int, k0 Word)
//
// z = a·b·2^(−52d) mod n, almost: the result is below 2n when a and b are and
// 2^(52d) ≥ 4n. Operands are len(n) digits of 52 bits, one a word, len(n) a
// multiple of 8 between 16 and 208 and at least d; k0 = −n⁻¹ mod 2⁵². z may
// alias a or b: nothing is stored before the last pass has read them.
//
// Row i adds a·b[i] + n·y to the accumulator and drops its low digit, which y
// makes zero. A 52×52-bit product has a low half (VPMADD52LUQ) on its own
// digit and a high half (VPMADD52HUQ) one digit up — the digit the low halves
// of row i+1 land on after the drop. So pass i adds the high halves of row
// i−1 and the low halves of row i (CHUNK), and one more pass after the last
// row adds its high halves. Lanes are 64 bits wide and never normalised
// between passes — a lane gains under 4·2⁵² a pass, so 209 passes stay under
// 2⁶² — which is Algorithm 2's deferred carry.
//
// Only digit 0 needs its carries, to produce y, and waiting for it to come
// back out of the vector unit would serialise the passes on that round trip.
// So the scalar unit keeps digit 0 itself (R12 = t0, with its carries) and
// computes the next one a row ahead of the vectors,
//
//	s  = t0 + lo(a0·b)            y = s·k0 mod 2⁵²
//	t0 = t1 + lo(a1·b) + hi(a0·b) + lo(n1·y) + hi(n0·y) + carry
//
// where carry = (s + lo(n0·y)) >> 52 = (s >> 52) + (s mod 2⁵² ≠ 0), since the
// low 52 bits of that sum are zero by the choice of y. t1, digit 1 before this
// row, is the one value read back from the vectors, a pass late and through
// the stack: lane 2 as the pass before left it, plus the high halves
// hi(a1·b) + hi(n1·y) of the row before, which that pass did not hold yet
// (R9). With a0, a1, n0, n1 pre-shifted left by 12 one MULX yields both halves
// of a product: hi in its high word, lo in the top 52 bits of its low word.
// Lane 0 of Z0 itself never sees a carry and is dead: R12 overwrites it at the
// end.
//
// Frame: 0(SP) lanes 0–3 of Z0 after each pass, 32(SP) a1<<12, 40(SP) n1<<12.
TEXT ·amm52(SB), NOSPLIT, $48-112
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ n_base+72(FP), DI
	MOVQ n_len+80(FP), CX
	SHRQ $3, CX               // chunks
	MOVQ d+96(FP), R8         // rows to go
	MOVQ $0xFFFFFFFFFFFFF, R10
	MOVQ (SI), R11
	SHLQ $12, R11             // a0 << 12
	MOVQ (DI), R13
	SHLQ $12, R13             // n0 << 12
	MOVQ 8(SI), AX
	SHLQ $12, AX
	MOVQ AX, 32(SP)           // a1 << 12
	MOVQ 8(DI), AX
	SHLQ $12, AX
	MOVQ AX, 40(SP)           // n1 << 12
	XORQ R12, R12             // t0
	XORQ R9, R9               // high halves owed to digit 1

	VPXORQ    Z0, Z0, Z0
	VMOVDQA64 Z0, Z1
	VMOVDQA64 Z0, Z2
	VMOVDQA64 Z0, Z3
	VMOVDQA64 Z0, Z4
	VMOVDQA64 Z0, Z5
	VMOVDQA64 Z0, Z6
	VMOVDQA64 Z0, Z7
	VMOVDQA64 Z0, Z8
	VMOVDQA64 Z0, Z9
	VMOVDQA64 Z0, Z10
	VMOVDQA64 Z0, Z11
	VMOVDQA64 Z0, Z12
	VMOVDQA64 Z0, Z13
	VMOVDQA64 Z0, Z14
	VMOVDQA64 Z0, Z15
	VMOVDQA64 Z0, Z16
	VMOVDQA64 Z0, Z17
	VMOVDQA64 Z0, Z18
	VMOVDQA64 Z0, Z19
	VMOVDQA64 Z0, Z20
	VMOVDQA64 Z0, Z21
	VMOVDQA64 Z0, Z22
	VMOVDQA64 Z0, Z23
	VMOVDQA64 Z0, Z24
	VMOVDQA64 Z0, Z25
	VMOVDQA64 Z0, Z26
	VMOVDQA64 Z0, BHI
	VMOVDQA64 Z0, YHI
	VMOVDQU   Y0, 0(SP)

row:
	VPBROADCASTQ (BX), BLO
	MOVQ         (BX), DX
	MULXQ        R11, AX, R14 // R14 = hi(a0·b)
	SHRQ         $12, AX
	ADDQ         AX, R12      // s = t0 + lo(a0·b)
	ADDQ         R9, R14
	MULXQ        32(SP), AX, R9 // R9 = hi(a1·b)
	SHRQ         $12, AX
	ADDQ         AX, R14      // + lo(a1·b)
	ADDQ         16(SP), R14  // + lane 2 of the pass before: t1 and this row's share of it
	MOVQ         R12, DX
	IMULQ        k0+104(FP), DX
	ANDQ         R10, DX      // y
	VPBROADCASTQ DX, YLO
	MOVQ         R12, AX
	SHRQ         $52, R12
	ANDQ         R10, AX
	NEGQ         AX           // CF = (s mod 2⁵² ≠ 0)
	ADCQ         R14, R12
	MULXQ        R13, AX, R14 // R14 = hi(n0·y)
	ADDQ         R14, R12
	MULXQ        40(SP), AX, R14 // R14 = hi(n1·y)
	SHRQ         $12, AX
	ADDQ         AX, R12      // + lo(n1·y): the next row's t0
	ADDQ         R14, R9      // what the next t1 is owed

pass:
	CHUNK(0, Z0, Z1)
	VMOVDQU Y0, 0(SP)
	CHUNK(1, Z1, Z2)
	CHUNK(2, Z2, Z3)
	CHUNK(3, Z3, Z4)
	CHUNK(4, Z4, Z5)
	CHUNK(5, Z5, Z6)
	CHUNK(6, Z6, Z7)
	CHUNK(7, Z7, Z8)
	CHUNK(8, Z8, Z9)
	CHUNK(9, Z9, Z10)
	CHUNK(10, Z10, Z11)
	CHUNK(11, Z11, Z12)
	CHUNK(12, Z12, Z13)
	CHUNK(13, Z13, Z14)
	CHUNK(14, Z14, Z15)
	CHUNK(15, Z15, Z16)
	CHUNK(16, Z16, Z17)
	CHUNK(17, Z17, Z18)
	CHUNK(18, Z18, Z19)
	CHUNK(19, Z19, Z20)
	CHUNK(20, Z20, Z21)
	CHUNK(21, Z21, Z22)
	CHUNK(22, Z22, Z23)
	CHUNK(23, Z23, Z24)
	CHUNK(24, Z24, Z25)
	CHUNK(25, Z25, Z26)

passend:
	VMOVDQA64 BLO, BHI
	VMOVDQA64 YLO, YHI
	ADDQ      $8, BX
	DECQ      R8
	JGT       row
	JLT       done
	VPXORQ    BLO, BLO, BLO   // the pass after the last row has no low halves
	VPXORQ    YLO, YLO, YLO
	JMP       pass

done:
	MOVQ z_base+0(FP), AX
	VMOVDQU64 Z0, (AX)
	STORE(1, Z1)
	STORE(2, Z2)
	STORE(3, Z3)
	STORE(4, Z4)
	STORE(5, Z5)
	STORE(6, Z6)
	STORE(7, Z7)
	STORE(8, Z8)
	STORE(9, Z9)
	STORE(10, Z10)
	STORE(11, Z11)
	STORE(12, Z12)
	STORE(13, Z13)
	STORE(14, Z14)
	STORE(15, Z15)
	STORE(16, Z16)
	STORE(17, Z17)
	STORE(18, Z18)
	STORE(19, Z19)
	STORE(20, Z20)
	STORE(21, Z21)
	STORE(22, Z22)
	STORE(23, Z23)
	STORE(24, Z24)
	STORE(25, Z25)

stored:
	VZEROUPPER
	MOVQ R12, (AX)            // digit 0 with its carries
	MOVQ d+96(FP), CX
	XORQ DX, DX

	// Every lane keeps its low 52 bits and hands the rest up. The value is
	// below 2^(52d) and no lane is negative, so the lanes from d up hold zero
	// already and lane d−1 hands up nothing.
norm:
	ADDQ (AX), DX
	MOVQ DX, R12
	ANDQ R10, R12
	MOVQ R12, (AX)
	SHRQ $52, DX
	ADDQ $8, AX
	DECQ CX
	JNE  norm
	RET
