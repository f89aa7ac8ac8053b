#include "textflag.h"

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX          // XCR0: SSE (bit 1) and AVX (bit 2) state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $5, BX          // AVX2
	JCC  no
	MOVB $1, ret+0(FP)

no:
	RET

// func laplace4(blk *[12]float64, src []Point, q []float64, sum *[4]float64)
//
// Y0-Y2 hold the four targets' x, y, z; Y3 the four sums; Y15 zero.
// Every operation keeps the operand order the scalar loop compiles to.
TEXT ·laplace4(SB), NOSPLIT, $0-64
	MOVQ blk+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ q_base+32(FP), DI
	MOVQ sum+56(FP), DX
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y15, Y15, Y15
	TESTQ   CX, CX
	JZ      done

loop:
	VBROADCASTSD 0(SI), Y4
	VBROADCASTSD 8(SI), Y5
	VBROADCASTSD 16(SI), Y6
	VSUBPD       Y4, Y0, Y4          // dx = tx - x
	VSUBPD       Y5, Y1, Y5          // dy = ty - y
	VSUBPD       Y6, Y2, Y6          // dz = tz - z
	VMULPD       Y4, Y4, Y4
	VMULPD       Y5, Y5, Y5
	VMULPD       Y6, Y6, Y6
	VADDPD       Y5, Y4, Y4          // dx² + dy²
	VADDPD       Y6, Y4, Y4          // r² = dx² + dy² + dz²
	VCMPPD       $0x1e, Y15, Y4, Y7  // r² > 0 (GT_OQ: false for NaN)
	VSQRTPD      Y4, Y4
	VBROADCASTSD (DI), Y8
	VDIVPD       Y4, Y8, Y8          // q / √r²
	VANDPD       Y7, Y8, Y8          // +0 where r² is not > 0
	VADDPD       Y8, Y3, Y3          // s += term
	ADDQ         $24, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          loop

done:
	VMOVUPD    Y3, 0(DX)
	VZEROUPPER
	RET
