#include "go_asm.h"
#include "textflag.h"

// FINISH applies LinkHashFinish to each word of x; tmp is scratch and
// Z30, Z31 hold the two multipliers.
#define FINISH(x, tmp) \
	VPSRLQ  $30, x, tmp; \
	VPXORQ  tmp, x, x;   \
	VPMULLQ Z30, x, x;   \
	VPSRLQ  $27, x, tmp; \
	VPXORQ  tmp, x, x;   \
	VPMULLQ Z31, x, x;   \
	VPSRLQ  $31, x, tmp; \
	VPXORQ  tmp, x, x

// APPEND puts the 8 verdict bits of mask k at bit BX of acc.
#define APPEND(k, acc) \
	KMOVB k, AX;       \
	SHLXQ BX, AX, AX;  \
	ORQ   AX, acc

// func linkHashAVX512(t *hashTable, key uint64) (drop, k1, k2 uint64)
//
// Each family's loop builds a compact mask — bit i for entry i, whole
// groups of 8 — and PDEP deposits it onto the family's lanes, dropping
// the bits of entries past its count.
TEXT ·linkHashAVX512(SB), NOSPLIT, $0-40
	MOVQ         t+0(FP), DI
	VPBROADCASTQ key+8(FP), Z0
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z30
	MOVQ         $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z31
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z29
	MOVQ         $2, AX
	VPBROADCASTQ AX, Z28
	MOVL         $0xaaaaaaab, AX
	VPBROADCASTQ AX, Z27
	MOVL         $0xffffffff, AX
	VPBROADCASTQ AX, Z26

	// Omission: R8 bit i = h_i < threshold_i (unsigned).
	XORQ R8, R8
	XORQ BX, BX
	MOVQ hashTable_omitN(DI), CX

omit:
	CMPQ    BX, CX
	JGE     odd0
	VPXORQ  hashTable_omitSeed(DI)(BX*8), Z0, Z1
	FINISH(Z1, Z2)
	VPCMPUQ $1, hashTable_omitThr(DI)(BX*8), Z1, K1
	APPEND(K1, R8)
	ADDQ    $8, BX
	JMP     omit

	// d = 1: R9 bit i = h_i & 1.
odd0:
	PDEPQ hashTable_omitLanes(DI), R8, R8
	XORQ  R9, R9
	XORQ  BX, BX
	MOVQ  hashTable_oddN(DI), CX

odd:
	CMPQ     BX, CX
	JGE      mod30
	VPXORQ   hashTable_oddSeed(DI)(BX*8), Z0, Z1
	FINISH(Z1, Z2)
	VPTESTMQ Z29, Z1, K1
	APPEND(K1, R9)
	ADDQ     $8, BX
	JMP      odd

	// d = 2: R10 bit i = (h_i % 3 == 1), R11 bit i = (h_i % 3 == 2).
	// 2^32 ≡ 1 (mod 3), so h ≡ hi32 + lo32 < 2^33, folded again to
	// b < 2^32; then b / 3 = b * 0xaaaaaaab >> 33 exactly.
mod30:
	PDEPQ hashTable_oddLanes(DI), R9, R9
	XORQ  R10, R10
	XORQ  R11, R11
	XORQ  BX, BX
	MOVQ  hashTable_mod3N(DI), CX

mod3:
	CMPQ     BX, CX
	JGE      done
	VPXORQ   hashTable_mod3Seed(DI)(BX*8), Z0, Z1
	FINISH(Z1, Z2)
	VPSRLQ   $32, Z1, Z2
	VPANDQ   Z26, Z1, Z1
	VPADDQ   Z2, Z1, Z1
	VPSRLQ   $32, Z1, Z2
	VPANDQ   Z26, Z1, Z1
	VPADDQ   Z2, Z1, Z1
	VPMULUDQ Z27, Z1, Z2
	VPSRLQ   $33, Z2, Z2
	VPADDQ   Z2, Z2, Z3
	VPADDQ   Z3, Z2, Z2
	VPSUBQ   Z2, Z1, Z1
	VPCMPEQQ Z29, Z1, K1
	VPCMPEQQ Z28, Z1, K2
	APPEND(K1, R10)
	APPEND(K2, R11)
	ADDQ     $8, BX
	JMP      mod3

done:
	MOVQ  hashTable_mod3Lanes(DI), DX
	PDEPQ DX, R10, R10
	PDEPQ DX, R11, R11
	ORQ   R10, R9
	VZEROUPPER
	MOVQ  R8, drop+16(FP)
	MOVQ  R9, k1+24(FP)
	MOVQ  R11, k2+32(FP)
	RET
