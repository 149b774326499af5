package lrusim

// The emission fold kernels. Both walk the emission log linearly and
// apply a per-candidate reduction over each emission's [Lo, Hi) range;
// per candidate the updates land in emission-log order, which is
// chronological — the property that keeps every result bit-identical to
// a pass over that candidate's own interval list. On amd64 with AVX2 the
// kernels run vectorised (see fold_amd64.s); the generic forms below are
// the reference semantics and the fallback everywhere else. They fold
// slate-space logs, which is all EventSweeper keeps: on AVX-512 machines
// SweepGaps and TailStats hand the same logs to the register-resident
// gap kernels instead.
//
// Exactness of the vector forms:
//
//   - sum[i] += gap is an independent accumulator per lane, so lane
//     width never reorders any candidate's additions;
//   - min(min[i], gap) is order-free;
//   - the tail reduction's guarded form `if gap > to[i]` is equivalent
//     to accumulating d := gap − to[i] masked by d > 0: IEEE subtraction
//     of distinct doubles never rounds to zero, +Inf timeouts give
//     d = −Inf, and adding a masked-out +0.0 cannot change an
//     accumulator that is never −0.0.

// foldEmits applies sum[i] += gap and min[i] = min(min[i], gap) over
// each emission's candidate range. Emission ranges must lie within
// [0, len(sum)); len(min) must equal len(sum).
func foldEmits(emits []Emission, sum, min []float64) {
	if foldAsm && len(emits) > 0 {
		foldEmitsAVX2(emits, sum, min)
		return
	}
	foldEmitsGeneric(emits, sum, min)
}

// tailEmits applies the conditional tail reduction: for each emission
// with gap > to[i], ts[i] += gap − to[i] and h[i]++. Emission ranges
// must lie within [0, len(to)); ts and h must be at least as long.
func tailEmits(emits []Emission, to, ts []float64, h []int64) {
	if foldAsm && len(emits) > 0 {
		tailEmitsAVX2(emits, to, ts, h)
		return
	}
	tailEmitsGeneric(emits, to, ts, h)
}

func foldEmitsGeneric(emits []Emission, sum, min []float64) {
	for _, e := range emits {
		gap := e.Gap
		sm := sum[e.Lo:e.Hi]
		mn := min[e.Lo:e.Hi]
		mn = mn[:len(sm)]
		for i := range sm {
			sm[i] += gap
			if gap < mn[i] {
				mn[i] = gap
			}
		}
	}
}

func tailEmitsGeneric(emits []Emission, to, ts []float64, h []int64) {
	for _, e := range emits {
		gap := e.Gap
		tv := to[e.Lo:e.Hi]
		tsv := ts[e.Lo:e.Hi]
		hv := h[e.Lo:e.Hi]
		tsv = tsv[:len(tv)]
		hv = hv[:len(tv)]
		for j := range tv {
			if d := gap - tv[j]; d > 0 {
				tsv[j] += d
				hv[j]++
			}
		}
	}
}
