#include "textflag.h"

// func amm52x8(z, a, b, n, t []Word, k0 *[8]Word, d int)
//
// Eight independent Montgomery multiplies, one a lane: lane l of z is
// a_l·b_l·2^(−52d) mod n_l, almost — below 2n_l when a_l and b_l are and
// 2^(52d) ≥ 4n_l. Operands are transposed: word 8j+l of a, b, n and z is
// digit j of lane l's value, 52 bits a word, d rows. k0[l] = −n_l⁻¹ mod 2⁵².
// t is scratch of 16d words. z may alias a or b: it is written last.
//
// Row i adds a·b_i + n·y_i to the accumulator, lane by lane, and drops its
// low digit, which y_i makes zero. Every lane has its own b_i and its own y_i,
// so a row is plain vector code: no broadcast, no digit shift across lanes, no
// scalar chain. The accumulator lives in t, a row of eight lanes per digit,
// and moves up one row per row of the product instead of shifting down. A
// 52×52-bit product has a low half (VPMADD52LUQ) on its digit and a high half
// (VPMADD52HUQ) one digit up, so position j of row i takes the low halves of
// a_j·b_i and n_j·y_i and the high halves of a_{j−1}·b_i and n_{j−1}·y_i —
// 4d multiplies a row with y_i's. Lanes are 64 bits and never normalised
// between rows: a position gains under 4·2⁵² and a carry a row, so d ≤ 208
// rows stay below 2⁶².
//
// y_i = (P₀·k0) mod 2⁵² from the low position P₀, and what P₀ + lo(n₀·y_i)
// hands up is (P₀ >> 52) + (P₀ mod 2⁵² ≠ 0), since the low 52 bits of that sum
// are zero by the choice of y_i: the carry needs no multiply and does not wait
// for y_i.
TEXT ·amm52x8(SB), NOSPLIT, $0-136
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ n_base+72(FP), DI
	MOVQ t_base+96(FP), R8
	MOVQ k0+120(FP), AX
	MOVQ d+128(FP), CX
	VMOVDQU64    (AX), Z31        // k0, a lane each
	MOVQ         $0xFFFFFFFFFFFFF, AX
	VPBROADCASTQ AX, Z30          // 2⁵² − 1
	VPTERNLOGQ   $0xFF, Z29, Z29, Z29 // −1
	VMOVDQU64    (SI), Z20        // a₀, n₀, a₁, n₁: every row's first two positions
	VMOVDQU64    (DI), Z21
	VMOVDQU64    64(SI), Z22
	VMOVDQU64    64(DI), Z23

	// The accumulator's 2d rows start at zero, and so does P₀.
	VPXORQ Z1, Z1, Z1
	MOVQ   CX, DX
	SHLQ   $1, DX
	MOVQ   R8, R10

zero:
	VMOVDQU64 Z1, (R10)
	ADDQ      $64, R10
	DECQ      DX
	JNZ       zero

	MOVQ CX, R9 // rows to go

row:
	VMOVDQU64   (BX), Z0 // b_i
	VPXORQ      Z7, Z7, Z7
	VPMADD52LUQ Z20, Z0, Z7 // lo(a₀·b_i), not waiting for P₀
	VPADDQ      Z7, Z1, Z1
	VPXORQ      Z4, Z4, Z4
	VPMADD52LUQ Z31, Z1, Z4 // y_i
	VPTESTMQ    Z30, Z1, K1
	VPSRLQ      $52, Z1, Z8
	VPSUBQ      Z29, Z8, K1, Z8 // the carry out of position 0

	// Position 1 is the next row's P₀: it stays in Z1, and its two products
	// by y_i go to separate registers, so that y_{i+1} is two multiplies and
	// two adds behind y_i.
	VMOVDQU64   64(R8), Z5
	VPMADD52HUQ Z20, Z0, Z5
	VPMADD52LUQ Z22, Z0, Z5
	VPMADD52HUQ Z21, Z4, Z8
	VPMADD52LUQ Z23, Z4, Z5
	VPADDQ      Z8, Z5, Z1
	VMOVDQU64   Z1, 64(R8) // read back only after the last row

	// Position 2 takes the high halves of a₁ and n₁.
	VMOVDQU64   128(R8), Z5
	VPMADD52HUQ Z22, Z0, Z5
	VPMADD52HUQ Z23, Z4, Z5
	LEAQ        128(SI), R11
	LEAQ        128(DI), R12
	LEAQ        128(R8), R10
	MOVQ        CX, DX
	SUBQ        $2, DX // positions 2 … d−1 to go
	CMPQ        DX, $4
	JLT         tail

	// Position j takes the low halves of a_j·b_i and n_j·y_i and is stored;
	// position j+1 is loaded and takes their high halves. Four positions a
	// pass, the current one in Z5 and Z6 by turns: a position's four
	// multiplies are one chain, and the positions of a pass are independent.
quad:
	VMOVDQU64   (R11), Z2
	VMOVDQU64   (R12), Z3
	VMOVDQU64   64(R10), Z6
	VPMADD52LUQ Z2, Z0, Z5
	VPMADD52LUQ Z3, Z4, Z5
	VPMADD52HUQ Z2, Z0, Z6
	VPMADD52HUQ Z3, Z4, Z6
	VMOVDQU64   Z5, (R10)
	VMOVDQU64   64(R11), Z9
	VMOVDQU64   64(R12), Z10
	VMOVDQU64   128(R10), Z5
	VPMADD52LUQ Z9, Z0, Z6
	VPMADD52LUQ Z10, Z4, Z6
	VPMADD52HUQ Z9, Z0, Z5
	VPMADD52HUQ Z10, Z4, Z5
	VMOVDQU64   Z6, 64(R10)
	VMOVDQU64   128(R11), Z11
	VMOVDQU64   128(R12), Z12
	VMOVDQU64   192(R10), Z6
	VPMADD52LUQ Z11, Z0, Z5
	VPMADD52LUQ Z12, Z4, Z5
	VPMADD52HUQ Z11, Z0, Z6
	VPMADD52HUQ Z12, Z4, Z6
	VMOVDQU64   Z5, 128(R10)
	VMOVDQU64   192(R11), Z13
	VMOVDQU64   192(R12), Z14
	VMOVDQU64   256(R10), Z5
	VPMADD52LUQ Z13, Z0, Z6
	VPMADD52LUQ Z14, Z4, Z6
	VPMADD52HUQ Z13, Z0, Z5
	VPMADD52HUQ Z14, Z4, Z5
	VMOVDQU64   Z6, 192(R10)
	ADDQ $256, R10
	ADDQ $256, R11
	ADDQ $256, R12
	SUBQ $4, DX
	CMPQ DX, $4
	JGE  quad

	// The last one to three of them, then position d, which is stored whole.
tail:
	TESTQ DX, DX
	JZ    top0
	VMOVDQU64   (R11), Z2
	VMOVDQU64   (R12), Z3
	VMOVDQU64   64(R10), Z6
	VPMADD52LUQ Z2, Z0, Z5
	VPMADD52LUQ Z3, Z4, Z5
	VPMADD52HUQ Z2, Z0, Z6
	VPMADD52HUQ Z3, Z4, Z6
	VMOVDQU64   Z5, (R10)
	DECQ  DX
	JZ    top1
	VMOVDQU64   64(R11), Z9
	VMOVDQU64   64(R12), Z10
	VMOVDQU64   128(R10), Z5
	VPMADD52LUQ Z9, Z0, Z6
	VPMADD52LUQ Z10, Z4, Z6
	VPMADD52HUQ Z9, Z0, Z5
	VPMADD52HUQ Z10, Z4, Z5
	VMOVDQU64   Z6, 64(R10)
	DECQ  DX
	JZ    top2
	VMOVDQU64   128(R11), Z11
	VMOVDQU64   128(R12), Z12
	VMOVDQU64   192(R10), Z6
	VPMADD52LUQ Z11, Z0, Z5
	VPMADD52LUQ Z12, Z4, Z5
	VPMADD52HUQ Z11, Z0, Z6
	VPMADD52HUQ Z12, Z4, Z6
	VMOVDQU64   Z5, 128(R10)
	VMOVDQU64 Z6, 192(R10)
	JMP       next

top0:
	VMOVDQU64 Z5, (R10)
	JMP       next

top1:
	VMOVDQU64 Z6, 64(R10)
	JMP       next

top2:
	VMOVDQU64 Z5, 128(R10)

next:
	ADDQ $64, R8
	ADDQ $64, BX
	DECQ R9
	JNZ  row

	// The product is rows d … 2d−1 of t: normalise them into z, lane by lane.
	MOVQ   z_base+0(FP), AX
	VPXORQ Z1, Z1, Z1
	MOVQ   CX, DX

norm:
	VPADDQ    (R8), Z1, Z1
	VPANDQ    Z30, Z1, Z2
	VPSRLQ    $52, Z1, Z1
	VMOVDQU64 Z2, (AX)
	ADDQ      $64, R8
	ADDQ      $64, AX
	DECQ      DX
	JNZ       norm
	VZEROUPPER
	RET
