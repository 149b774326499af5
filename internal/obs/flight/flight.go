// Package flight is the per-shard flight recorder: a fixed-size ring
// buffer of per-period lifecycle records (span timings plus an
// energy-attribution ledger) kept in memory by a live daemon and
// queryable over /debug/periods, jointpmctl, or a SIGQUIT dump.
//
// Like the rest of the obs layer every type is nil-safe: methods on a
// nil *Recorder are no-ops (reads return zero values), so instrumented
// code carries a plain pointer it never guards and the disabled
// configuration costs one nil check per period boundary — nothing on
// the per-request path.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"jointpm/internal/obs"
)

// Ledger splits one period's energy between the two managed subsystems.
// Priced ledgers (from the manager's candidate arithmetic) account
// energy relative to the disk's standby floor, so DiskStandbyJ is zero
// there; measured ledgers (from the simulator's energy integrals) fill
// every component. DelayS is the delayed-request latency cost in
// seconds — a performance currency, deliberately excluded from TotalJ.
type Ledger struct {
	MemActiveJ     float64 `json:"mem_active_j"`
	MemNapJ        float64 `json:"mem_nap_j"`
	MemTransitionJ float64 `json:"mem_transition_j"`
	DiskActiveJ    float64 `json:"disk_active_j"`
	DiskStandbyJ   float64 `json:"disk_standby_j"`
	DiskSpinJ      float64 `json:"disk_spin_j"`
	DelayS         float64 `json:"delay_s"`
}

// MemJ is the memory subsystem's share.
func (l Ledger) MemJ() float64 {
	return l.MemActiveJ + l.MemNapJ + l.MemTransitionJ
}

// DiskJ is the disk subsystem's share.
func (l Ledger) DiskJ() float64 {
	return l.DiskActiveJ + l.DiskStandbyJ + l.DiskSpinJ
}

// TotalJ is the period's total attributed energy (excludes DelayS,
// which is seconds, not joules).
func (l Ledger) TotalJ() float64 {
	return l.MemJ() + l.DiskJ()
}

// Add accumulates o into l component-wise.
func (l *Ledger) Add(o Ledger) {
	l.MemActiveJ += o.MemActiveJ
	l.MemNapJ += o.MemNapJ
	l.MemTransitionJ += o.MemTransitionJ
	l.DiskActiveJ += o.DiskActiveJ
	l.DiskStandbyJ += o.DiskStandbyJ
	l.DiskSpinJ += o.DiskSpinJ
	l.DelayS += o.DelayS
}

// PeriodRecord is one period's lifecycle: what the shard ingested, how
// long each stage took, what was decided, and where the energy went.
// Span timings are wall-clock nanoseconds; stream times are seconds.
// TimeoutS marshals +Inf (spin-down disabled) as JSON null, matching
// the decision-journal convention.
type PeriodRecord struct {
	Disk         string    `json:"disk,omitempty"`
	Period       int64     `json:"period"`
	Mode         string    `json:"mode,omitempty"` // "incremental" or "batch"
	StartS       obs.Float `json:"start_s"`
	EndS         obs.Float `json:"end_s"`
	Refs         int64     `json:"refs"`
	IngestNs     int64     `json:"ingest_ns"`     // summed ingest span over the period
	DecideNs     int64     `json:"decide_ns"`     // Decide wall time at the boundary
	EmitNs       int64     `json:"emit_ns"`       // decision emit (journal + callback)
	CheckpointNs int64     `json:"checkpoint_ns"` // 0 when no checkpoint followed
	Banks        int       `json:"banks"`
	TimeoutS     obs.Float `json:"timeout_s"` // null: spin-down disabled
	Fallback     bool      `json:"fallback,omitempty"`
	Warmup       bool      `json:"warmup,omitempty"`
	Energy       Ledger    `json:"energy"`

	// Fleet power-cap accounting, all zero (and omitted from JSON) when
	// no coordinator is attached, so uncapped dumps stay byte-identical.
	// PowerW is the decision's priced total power; BudgetW the shard's
	// budget when the period closed; OverBudget marks the graceful
	// fallback where no candidate fit the budget.
	PowerW     float64 `json:"power_w,omitempty"`
	BudgetW    float64 `json:"budget_w,omitempty"`
	OverBudget bool    `json:"over_budget,omitempty"`
}

// IngestNsPerRef is the per-reference ingest cost, zero when no
// references arrived.
func (p PeriodRecord) IngestNsPerRef() float64 {
	if p.Refs == 0 {
		return 0
	}
	return float64(p.IngestNs) / float64(p.Refs)
}

// DefaultDepth is the ring capacity used when New is given n ≤ 0.
const DefaultDepth = 64

// Recorder is a fixed-size ring of the last N period records plus a
// cumulative energy ledger, safe for concurrent use. A nil *Recorder
// is a valid disabled recorder.
type Recorder struct {
	mu    sync.Mutex
	ring  []PeriodRecord
	next  int   // ring index the next Record lands in
	total int64 // records ever written
	sum   Ledger
}

// New returns a recorder holding the last n periods (DefaultDepth when
// n ≤ 0).
func New(n int) *Recorder {
	if n <= 0 {
		n = DefaultDepth
	}
	return &Recorder{ring: make([]PeriodRecord, 0, n)}
}

// Enabled reports whether the recorder is live (non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Record appends one period record, evicting the oldest when the ring
// is full, and folds its energy into the cumulative ledger. No-op on a
// nil receiver.
func (r *Recorder) Record(rec PeriodRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, rec)
	} else {
		r.ring[r.next] = rec
	}
	r.next = (r.next + 1) % cap(r.ring)
	r.total++
	r.sum.Add(rec.Energy)
	r.mu.Unlock()
}

// AmendCheckpoint attaches a checkpoint wall time to the most recent
// record for disk (checkpoints are written after the period record is
// cut, outside the shard lock). No-op when the record has rotated out
// or on a nil receiver.
func (r *Recorder) AmendCheckpoint(disk string, period int64, ns int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for i := range r.ring {
		if r.ring[i].Disk == disk && r.ring[i].Period == period {
			r.ring[i].CheckpointNs = ns
			break
		}
	}
	r.mu.Unlock()
}

// Last returns up to n records, oldest first, newest last. n ≤ 0 means
// everything retained. Nil receiver returns nil.
func (r *Recorder) Last(n int) []PeriodRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ln := len(r.ring)
	if n <= 0 || n > ln {
		n = ln
	}
	out := make([]PeriodRecord, 0, n)
	// Oldest retained record sits at next when the ring has wrapped,
	// at 0 otherwise.
	start := 0
	if ln == cap(r.ring) {
		start = r.next
	}
	for i := ln - n; i < ln; i++ {
		out = append(out, r.ring[(start+i)%ln])
	}
	return out
}

// Total returns how many records were ever written (≥ len(Last(0))).
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Sum returns the cumulative energy ledger over every record ever
// written, including rotated-out ones.
func (r *Recorder) Sum() Ledger {
	if r == nil {
		return Ledger{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sum
}

// Depth returns the ring capacity; zero on a nil receiver.
func (r *Recorder) Depth() int {
	if r == nil {
		return 0
	}
	// Record rewrites the ring's slice header on every append, so even
	// its capacity is read under the lock.
	r.mu.Lock()
	defer r.mu.Unlock()
	return cap(r.ring)
}

// DecideNsQuantile returns the q-quantile (0 ≤ q ≤ 1) of DecideNs over
// the retained records, zero when empty. Nearest-rank on the retained
// window — post-mortem precision, not statistics.
func (r *Recorder) DecideNsQuantile(q float64) int64 {
	recs := r.Last(0)
	if len(recs) == 0 {
		return 0
	}
	ns := make([]int64, len(recs))
	for i, rec := range recs {
		ns[i] = rec.DecideNs
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	i := int(q*float64(len(ns))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ns) {
		i = len(ns) - 1
	}
	return ns[i]
}

// WriteDump writes the retained records as JSON lines, oldest first —
// the SIGQUIT post-mortem format. Nil receiver writes nothing.
func (r *Recorder) WriteDump(w io.Writer) error {
	for _, rec := range r.Last(0) {
		b, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("flight: marshal period %d: %w", rec.Period, err)
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}
