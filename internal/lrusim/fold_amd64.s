//go:build amd64

#include "textflag.h"

// Emission layout: Gap float64 at +0, Lo int32 at +8, Hi int32 at +12;
// 16 bytes per record. Both kernels iterate the emission log in order:
// per candidate the updates therefore land chronologically, which is the
// bit-identity contract (see fold.go).

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	// Max CPUID leaf must reach 7.
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	// CPUID.1: OSXSAVE (ECX bit 27) and AVX (ECX bit 28).
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<27 | 1<<28), R8
	CMPL R8, $(1<<27 | 1<<28)
	JNE  no
	// XCR0 bits 1 and 2: OS saves xmm and ymm state.
	MOVL   $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// CPUID.7.0: AVX2 (EBX bit 5).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $(1 << 5), BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func foldEmitsAVX2(emits []Emission, sum, min []float64)
//
// For each emission: sum[i] += gap and min[i] = min(min[i], gap) over
// [Lo, Hi). Each lane is an independent accumulator, so vector width
// never reorders a candidate's additions; MINPD with gap as the first
// source returns min[i] on ties, matching `if gap < min { min = gap }`.
TEXT ·foldEmitsAVX2(SB), NOSPLIT, $0-72
	MOVQ  emits_base+0(FP), SI
	MOVQ  emits_len+8(FP), CX
	MOVQ  sum_base+24(FP), R8
	MOVQ  min_base+48(FP), R9
	TESTQ CX, CX
	JZ    folddone

foldemit:
	VBROADCASTSD 0(SI), Y0       // gap in every lane (X0 = low half)
	MOVLQSX      8(SI), AX       // lo
	MOVLQSX      12(SI), BX      // hi
	LEAQ         (R8)(AX*8), R10 // &sum[lo]
	LEAQ         (R9)(AX*8), R11 // &min[lo]
	SUBQ         AX, BX          // n = hi - lo

foldvec:
	CMPQ    BX, $4
	JL      foldtail
	VMOVUPD (R10), Y1
	VADDPD  Y0, Y1, Y1           // sum += gap
	VMOVUPD Y1, (R10)
	VMOVUPD (R11), Y2
	VMINPD  Y2, Y0, Y3           // (gap < min) ? gap : min
	VMOVUPD Y3, (R11)
	ADDQ    $32, R10
	ADDQ    $32, R11
	SUBQ    $4, BX
	JMP     foldvec

foldtail:
	TESTQ BX, BX
	JZ    foldnext

foldscalar:
	VMOVSD (R10), X1
	VADDSD X0, X1, X1
	VMOVSD X1, (R10)
	VMOVSD (R11), X2
	VMINSD X2, X0, X3
	VMOVSD X3, (R11)
	ADDQ   $8, R10
	ADDQ   $8, R11
	DECQ   BX
	JNZ    foldscalar

foldnext:
	ADDQ $16, SI
	DECQ CX
	JNZ  foldemit

folddone:
	VZEROUPPER
	RET

// func tailEmitsAVX2(emits []Emission, to, ts []float64, h []int64)
//
// For each emission and candidate: d = gap - to[i]; where d > 0,
// ts[i] += d and h[i]++. The compare mask (GT_OQ against zero) is
// all-ones per true lane, so ANDing it with d adds either d or +0.0
// (exact), and subtracting it from h adds either 1 or 0.
TEXT ·tailEmitsAVX2(SB), NOSPLIT, $0-96
	MOVQ   emits_base+0(FP), SI
	MOVQ   emits_len+8(FP), CX
	MOVQ   to_base+24(FP), R8
	MOVQ   ts_base+48(FP), R9
	MOVQ   h_base+72(FP), R10
	TESTQ  CX, CX
	JZ     taildone
	VXORPD Y15, Y15, Y15         // zero (X15 = low half)

tailemit:
	VBROADCASTSD 0(SI), Y0
	MOVLQSX      8(SI), AX
	MOVLQSX      12(SI), BX
	LEAQ         (R8)(AX*8), R11  // &to[lo]
	LEAQ         (R9)(AX*8), R12  // &ts[lo]
	LEAQ         (R10)(AX*8), R13 // &h[lo]
	SUBQ         AX, BX

tailvec:
	CMPQ    BX, $4
	JL      tailrem
	VMOVUPD (R11), Y1
	VSUBPD  Y1, Y0, Y2           // d = gap - to
	VCMPPD  $30, Y15, Y2, Y3     // mask = d > 0 (GT_OQ)
	VANDPD  Y2, Y3, Y4           // d where true, +0.0 where false
	VMOVUPD (R12), Y5
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (R12)
	VMOVDQU (R13), Y6
	VPSUBQ  Y3, Y6, Y6           // h -= mask (-1 per true lane)
	VMOVDQU Y6, (R13)
	ADDQ    $32, R11
	ADDQ    $32, R12
	ADDQ    $32, R13
	SUBQ    $4, BX
	JMP     tailvec

tailrem:
	TESTQ BX, BX
	JZ    tailnext

tailscalar:
	VMOVSD (R11), X1
	VSUBSD X1, X0, X2
	VCMPSD $30, X15, X2, X3
	VANDPD X2, X3, X4
	VMOVSD (R12), X5
	VADDSD X4, X5, X5
	VMOVSD X5, (R12)
	VMOVQ  (R13), X6
	VPSUBQ X3, X6, X6
	VMOVQ  X6, (R13)
	ADDQ   $8, R11
	ADDQ   $8, R12
	ADDQ   $8, R13
	DECQ   BX
	JNZ    tailscalar

tailnext:
	ADDQ $16, SI
	DECQ CX
	JNZ  tailemit

taildone:
	VZEROUPPER
	RET

// func hasAVX512() bool
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	// Max CPUID leaf must reach 7.
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no512
	// CPUID.1: OSXSAVE (ECX bit 27).
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $(1 << 27), CX
	JZ   no512
	// XCR0: xmm/ymm (bits 1,2) plus opmask and the extended vector
	// register state (bits 5,6,7) — ymm16..31 live in the hi16_zmm
	// component.
	MOVL   $0, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no512
	// CPUID.7.0 EBX: AVX512F (16), AVX512DQ (17), AVX512VL (31).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	MOVL BX, R8
	ANDL $(1<<16 | 1<<17 | 1<<31), R8
	CMPL R8, $(1<<16 | 1<<17 | 1<<31)
	JNE  no512
	MOVB $1, ret+0(FP)
	RET
no512:
	MOVB $0, ret+0(FP)
	RET

// func foldGapsAVX512(gaps []Emission, bound []int32, cnt []int64, sum, min []float64)
//
// Register-resident remap fold: the 32 per-candidate accumulators (count,
// sum, min — four 8-lane zmm blocks each) stay in registers across the
// whole gap log. Per emission the range [Lo, Hi) maps through the bound
// table to the block's lane range, which becomes the bit mask
// (1<<bound[Hi]) − (1<<bound[Lo]); successive 8-bit chunks drive
// merge-masked VADDPD/VMINPD/VPSUBQ so uncovered candidates are untouched
// (not even a +0.0 is added). Each lane is an independent accumulator fed
// in log order, so every candidate's reduction is bit-identical to
// folding its own chronological interval list. Emissions that miss the
// block entirely (mask 0) skip the vector work, as does the upper half
// when the mask has no bits >= 16.
TEXT ·foldGapsAVX512(SB), NOSPLIT, $0-120
	MOVQ  gaps_base+0(FP), SI
	MOVQ  gaps_len+8(FP), CX
	MOVQ  bound_base+24(FP), DX
	MOVQ  cnt_base+48(FP), R8
	MOVQ  sum_base+72(FP), R9
	MOVQ  min_base+96(FP), R10
	TESTQ CX, CX
	JZ    gfdone

	VPTERNLOGD $0xFF, Z1, Z1, Z1 // all-ones: VPSUBQ by -1 increments
	VMOVUPD    (R9), Z4          // sum accumulators, lanes 0..31
	VMOVUPD    64(R9), Z5
	VMOVUPD    128(R9), Z6
	VMOVUPD    192(R9), Z7
	VMOVUPD    (R10), Z8         // min accumulators
	VMOVUPD    64(R10), Z9
	VMOVUPD    128(R10), Z10
	VMOVUPD    192(R10), Z11
	VMOVDQU64  (R8), Z12         // count accumulators
	VMOVDQU64  64(R8), Z13
	VMOVDQU64  128(R8), Z14
	VMOVDQU64  192(R8), Z15

gfemit:
	MOVLQSX 8(SI), AX            // lo threshold
	MOVLQSX 12(SI), BX           // hi threshold
	MOVLQSX (DX)(AX*4), AX       // rl = bound[lo]
	MOVLQSX (DX)(BX*4), BX       // rh = bound[hi]
	MOVL    $1, R11
	MOVL    $1, R12
	SHLXQ   AX, R11, R11         // 1 << rl
	SHLXQ   BX, R12, R12         // 1 << rh
	SUBQ    R11, R12             // lane mask for [rl, rh)
	JZ      gfnext               // emission misses the slate

	VBROADCASTSD 0(SI), Z0
	KMOVB        R12, K1
	VADDPD       Z0, Z4, K1, Z4
	VMINPD       Z8, Z0, K1, Z8  // (gap < min) ? gap : min, merge-masked
	VPSUBQ       Z1, Z12, K1, Z12
	SHRQ         $8, R12
	KMOVB        R12, K2
	VADDPD       Z0, Z5, K2, Z5
	VMINPD       Z9, Z0, K2, Z9
	VPSUBQ       Z1, Z13, K2, Z13
	SHRQ         $8, R12
	JZ           gfnext          // no covered lane above 15

	KMOVB  R12, K3
	VADDPD Z0, Z6, K3, Z6
	VMINPD Z10, Z0, K3, Z10
	VPSUBQ Z1, Z14, K3, Z14
	SHRQ   $8, R12
	KMOVB  R12, K4
	VADDPD Z0, Z7, K4, Z7
	VMINPD Z11, Z0, K4, Z11
	VPSUBQ Z1, Z15, K4, Z15

gfnext:
	ADDQ $16, SI
	DECQ CX
	JNZ  gfemit

	VMOVUPD   Z4, (R9)
	VMOVUPD   Z5, 64(R9)
	VMOVUPD   Z6, 128(R9)
	VMOVUPD   Z7, 192(R9)
	VMOVUPD   Z8, (R10)
	VMOVUPD   Z9, 64(R10)
	VMOVUPD   Z10, 128(R10)
	VMOVUPD   Z11, 192(R10)
	VMOVDQU64 Z12, (R8)
	VMOVDQU64 Z13, 64(R8)
	VMOVDQU64 Z14, 128(R8)
	VMOVDQU64 Z15, 192(R8)

gfdone:
	VZEROUPPER
	RET

// func tailGapsAVX512(gaps []Emission, bound []int32, to, ts []float64, h []int64)
//
// Register-resident remap tail: per emission and covered candidate,
// d = gap − to; where d > 0, ts += d and h++. The range mask K1 feeds a
// masked compare producing K2 = K1 & (d > 0), so both the coverage and
// the threshold test are branch-free and lanes outside either mask are
// left untouched. Same 4×8-lane layout and mask-skip structure as
// foldGapsAVX512.
TEXT ·tailGapsAVX512(SB), NOSPLIT, $0-120
	MOVQ  gaps_base+0(FP), SI
	MOVQ  gaps_len+8(FP), CX
	MOVQ  bound_base+24(FP), DX
	MOVQ  to_base+48(FP), R8
	MOVQ  ts_base+72(FP), R9
	MOVQ  h_base+96(FP), R10
	TESTQ CX, CX
	JZ    gtdone

	VPTERNLOGD $0xFF, Z1, Z1, Z1
	VXORPD     X2, X2, X2
	VMOVUPD    (R8), Z4          // timeouts (read-only)
	VMOVUPD    64(R8), Z5
	VMOVUPD    128(R8), Z6
	VMOVUPD    192(R8), Z7
	VMOVUPD    (R9), Z8          // tail-excess accumulators
	VMOVUPD    64(R9), Z9
	VMOVUPD    128(R9), Z10
	VMOVUPD    192(R9), Z11
	VMOVDQU64  (R10), Z12        // exceed-count accumulators
	VMOVDQU64  64(R10), Z13
	VMOVDQU64  128(R10), Z14
	VMOVDQU64  192(R10), Z15

gtemit:
	MOVLQSX 8(SI), AX
	MOVLQSX 12(SI), BX
	MOVLQSX (DX)(AX*4), AX
	MOVLQSX (DX)(BX*4), BX
	MOVL    $1, R11
	MOVL    $1, R12
	SHLXQ   AX, R11, R11
	SHLXQ   BX, R12, R12
	SUBQ    R11, R12
	JZ      gtnext

	VBROADCASTSD 0(SI), Z0
	KMOVB        R12, K1
	VSUBPD       Z4, Z0, Z3      // d = gap - to
	VCMPPD       $30, Z2, Z3, K1, K2 // K2 = K1 & (d > 0), GT_OQ
	VADDPD       Z3, Z8, K2, Z8
	VPSUBQ       Z1, Z12, K2, Z12
	SHRQ         $8, R12
	KMOVB        R12, K1
	VSUBPD       Z5, Z0, Z3
	VCMPPD       $30, Z2, Z3, K1, K2
	VADDPD       Z3, Z9, K2, Z9
	VPSUBQ       Z1, Z13, K2, Z13
	SHRQ         $8, R12
	JZ           gtnext

	KMOVB  R12, K1
	VSUBPD Z6, Z0, Z3
	VCMPPD $30, Z2, Z3, K1, K2
	VADDPD Z3, Z10, K2, Z10
	VPSUBQ Z1, Z14, K2, Z14
	SHRQ   $8, R12
	KMOVB  R12, K1
	VSUBPD Z7, Z0, Z3
	VCMPPD $30, Z2, Z3, K1, K2
	VADDPD Z3, Z11, K2, Z11
	VPSUBQ Z1, Z15, K2, Z15

gtnext:
	ADDQ $16, SI
	DECQ CX
	JNZ  gtemit

	VMOVUPD   Z8, (R9)
	VMOVUPD   Z9, 64(R9)
	VMOVUPD   Z10, 128(R9)
	VMOVUPD   Z11, 192(R9)
	VMOVDQU64 Z12, (R10)
	VMOVDQU64 Z13, 64(R10)
	VMOVDQU64 Z14, 128(R10)
	VMOVDQU64 Z15, 192(R10)

gtdone:
	VZEROUPPER
	RET
