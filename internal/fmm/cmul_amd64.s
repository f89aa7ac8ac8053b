#include "textflag.h"

// func cmulAcc4(acc, g, s []complex128)
//
// Per 16-byte lane pair, with g = gr+gi·i and s = sr+si·i:
//   Y4 = (gr, gr) · (sr, si) = (gr·sr, gr·si)
//   Y5 = (gi, gi) · (si, sr) = (gi·si, gi·sr)
//   VADDSUBPD: (gr·sr − gi·si, gr·si + gi·sr), the scalar product's
//   real and imaginary parts, then VADDPD adds it to acc.
TEXT ·cmulAcc4(SB), NOSPLIT, $0-72
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ s_base+48(FP), DX
	SHRQ $2, CX
	JZ   done

loop:
	VMOVUPD   0(SI), Y0
	VMOVUPD   32(SI), Y1
	VMOVUPD   0(DX), Y2
	VMOVUPD   32(DX), Y3
	VMOVDDUP  Y0, Y4           // (gr, gr) per complex
	VPERMILPD $0xf, Y0, Y5     // (gi, gi)
	VPERMILPD $0x5, Y2, Y6     // (si, sr)
	VMULPD    Y2, Y4, Y4       // (gr·sr, gr·si)
	VMULPD    Y6, Y5, Y5       // (gi·si, gi·sr)
	VADDSUBPD Y5, Y4, Y4       // (gr·sr − gi·si, gr·si + gi·sr)
	VADDPD    0(DI), Y4, Y4    // acc + product
	VMOVUPD   Y4, 0(DI)
	VMOVDDUP  Y1, Y7
	VPERMILPD $0xf, Y1, Y8
	VPERMILPD $0x5, Y3, Y9
	VMULPD    Y3, Y7, Y7
	VMULPD    Y9, Y8, Y8
	VADDSUBPD Y8, Y7, Y7
	VADDPD    32(DI), Y7, Y7
	VMOVUPD   Y7, 32(DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, DI
	DECQ      CX
	JNZ       loop

done:
	VZEROUPPER
	RET
