//go:build amd64

package lrusim

// foldAsm gates the vector kernels on runtime AVX2 support (including OS
// xsave state for the ymm registers); without it the generic forms run.
var foldAsm = hasAVX2()

// hasAVX2 reports CPU and OS support for AVX2. Implemented in
// fold_amd64.s via CPUID/XGETBV.
func hasAVX2() bool

// foldEmitsAVX2 is foldEmitsGeneric with the per-range inner loop
// vectorised 4 doubles wide. Implemented in fold_amd64.s.
//
//go:noescape
func foldEmitsAVX2(emits []Emission, sum, min []float64)

// tailEmitsAVX2 is tailEmitsGeneric with the guarded accumulation
// replaced by branchless masked vector arithmetic. Implemented in
// fold_amd64.s.
//
//go:noescape
func tailEmitsAVX2(emits []Emission, to, ts []float64, h []int64)

// gapAsm additionally requires AVX512 F+DQ+VL (masked ymm arithmetic and
// byte mask moves) plus OS state support for the opmask and extended
// vector registers; the gap kernels keep all 32 candidate accumulators
// register-resident across the whole log.
var gapAsm = hasAVX512()

// hasAVX512 reports CPU and OS support for the AVX512 subsets the gap
// kernels use. Implemented in fold_amd64.s via CPUID/XGETBV.
func hasAVX512() bool

// foldGapsAVX512 folds an emission log into per-candidate (count, sum,
// min) through a remap table from emission bounds to lanes; EventSweeper
// passes a slate-space log and one 32-lane block's clamp table. The
// accumulators need capacity ≥ 32 (whole blocks are loaded and stored).
// Implemented in fold_amd64.s.
//
//go:noescape
func foldGapsAVX512(gaps []Emission, bound []int32, cnt []int64, sum, min []float64)

// tailGapsAVX512 is the conditional tail reduction over an emission log:
// for candidates in each emission's remapped range with gap > to,
// ts += gap − to and h++. Same table and capacity contract as
// foldGapsAVX512; to is read-only. Implemented in fold_amd64.s.
//
//go:noescape
func tailGapsAVX512(gaps []Emission, bound []int32, to, ts []float64, h []int64)
