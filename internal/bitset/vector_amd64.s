#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mergeMaskedAVX512(dst, src []uint64, eff uint64) (grew, full uint64)
//
// Z0 = eff in every word, Z1 = grew, Z2 = full, Z3 = src&eff, Z4 = dst.
TEXT ·mergeMaskedAVX512(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VPBROADCASTQ eff+48(FP), Z0
	VPXORQ       Z1, Z1, Z1
	VPTERNLOGQ   $0xff, Z2, Z2, Z2

loop:
	CMPQ      CX, $8
	JB        tail
	VPANDQ    (SI), Z0, Z3
	VMOVDQU64 (DI), Z4
	VPANDNQ   Z3, Z4, Z5
	VPORQ     Z5, Z1, Z1
	VPORQ     Z3, Z4, Z4
	VMOVDQU64 Z4, (DI)
	VPANDQ    Z4, Z2, Z2
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JMP       loop

tail:
	// The last 1–7 words under mask K1: src loads zero outside it and
	// dst loads all ones, so those words add nothing to grew or full,
	// and nothing outside K1 is read or written.
	TESTQ       CX, CX
	JZ          reduce
	MOVQ        $1, AX
	SHLQ        CX, AX
	DECQ        AX
	KMOVB       AX, K1
	VMOVDQU64.Z (SI), K1, Z3
	VPANDQ      Z0, Z3, Z3
	VPTERNLOGQ  $0xff, Z4, Z4, Z4
	VMOVDQU64   (DI), K1, Z4
	VPANDNQ     Z3, Z4, Z5
	VPORQ       Z5, Z1, Z1
	VPORQ       Z3, Z4, Z4
	VMOVDQU64   Z4, K1, (DI)
	VPANDQ      Z4, Z2, Z2

reduce:
	VEXTRACTI64X4 $1, Z1, Y3
	VPORQ         Y3, Y1, Y1
	VEXTRACTI64X2 $1, Y1, X3
	VPORQ         X3, X1, X1
	VPSHUFD       $0x4e, X1, X3
	VPORQ         X3, X1, X1
	VMOVQ         X1, AX
	VEXTRACTI64X4 $1, Z2, Y3
	VPANDQ        Y3, Y2, Y2
	VEXTRACTI64X2 $1, Y2, X3
	VPANDQ        X3, X2, X2
	VPSHUFD       $0x4e, X2, X3
	VPANDQ        X3, X2, X2
	VMOVQ         X2, BX
	VZEROUPPER
	MOVQ          AX, grew+56(FP)
	MOVQ          BX, full+64(FP)
	RET
