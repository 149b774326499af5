// Package mem implements the RDRAM bank-granularity memory power model of
// the paper (Fig. 1(a) and the Section V-A derivations). Memory energy is
// split into:
//
//   - static energy: enabled banks idle in the nap mode (0.656 mW/MB);
//     under the timeout-power-down policy a bank drops to 30% of nap
//     power after its 129 µs break-even timeout; under timeout-disable a
//     bank is switched off (losing data) after its 732 s break-even
//     timeout;
//   - dynamic energy: 0.809 mJ/MB moved on every access;
//   - transition energy: the nap↔attention transition is negligible and
//     ignored (paper Section III); the power-down exit is charged at the
//     chip's peak power over the exit latency.
//
// Banks are metered lazily: each bank records when it was last touched,
// and the elapsed gap is decomposed into nap/power-down/off spans when
// the bank is next touched (or at a settlement point such as a period
// boundary or the end of simulation).
package mem

import (
	"fmt"
	"math"

	"jointpm/internal/simtime"
)

// Spec holds the memory power parameters, normalised per MB so bank size
// is a free parameter (Table V varies it).
type Spec struct {
	BankSize simtime.Bytes // power-management granularity

	NapPowerPerMB  simtime.Watts   // static power of an enabled bank, nap mode
	PowerDownFrac  float64         // power-down power as a fraction of nap power
	DynamicPerMB   simtime.Joules  // energy to move 1 MB
	PDExitEnergy   simtime.Joules  // energy of one power-down→attention exit, per bank
	PDTimeout      simtime.Seconds // 2-competitive timeout to enter power-down
	DisableTimeout simtime.Seconds // 2-competitive timeout to disable a bank
}

// RDRAM returns the 128-Mb RDRAM parameters the paper derives in
// Section V-A for the given bank size:
//
//	static (nap)      10.5 mW per 16 MB chip  → 0.656 mW/MB
//	power-down        3.5 mW per chip         → 30% of nap (with rounding)
//	dynamic           1325 mW at 1.6 GB/s     → 0.809 mJ/MB
//	PD timeout        (1325·30)/(312−3.5) µs  → 129 µs
//	disable timeout   7.7 J / 10.5 mW         → 732 s
func RDRAM(bankSize simtime.Bytes) Spec {
	return Spec{
		BankSize:       bankSize,
		NapPowerPerMB:  10.5e-3 / 16,
		PowerDownFrac:  3.5 / 10.5,
		DynamicPerMB:   1.325 / (1.6 * 1024), // 1325 mW / 1.6 GB/s ≈ 0.809 mJ/MB
		PDExitEnergy:   1.325 * 30e-6,        // peak power over the 30 µs exit
		PDTimeout:      129e-6,
		DisableTimeout: 732,
	}
}

// NapPower returns the static nap power of one bank.
func (s Spec) NapPower() simtime.Watts {
	return s.NapPowerPerMB * simtime.Watts(s.BankSize.MBValue())
}

// PDPower returns the power-down power of one bank.
func (s Spec) PDPower() simtime.Watts {
	return s.NapPower() * simtime.Watts(s.PowerDownFrac)
}

// DynamicEnergy returns the dynamic energy to move the given bytes.
func (s Spec) DynamicEnergy(b simtime.Bytes) simtime.Joules {
	return s.DynamicPerMB * simtime.Joules(b.MBValue())
}

// BankPolicy selects how an enabled, idle bank behaves.
type BankPolicy int

// Bank power-management policies.
const (
	// AlwaysNap: enabled banks stay in nap between accesses (the paper's
	// baseline and the behaviour of the fixed-size and joint methods).
	AlwaysNap BankPolicy = iota
	// TimeoutPowerDown: a bank enters the power-down mode after PDTimeout
	// of idleness; data is retained.
	TimeoutPowerDown
	// TimeoutDisable: a bank is disabled after DisableTimeout of
	// idleness; data is lost, so the cache must invalidate its frames.
	TimeoutDisable
)

func (p BankPolicy) String() string {
	switch p {
	case AlwaysNap:
		return "nap"
	case TimeoutPowerDown:
		return "power-down"
	case TimeoutDisable:
		return "disable"
	default:
		return "unknown"
	}
}

// Energy is the memory's energy breakdown.
type Energy struct {
	Static     simtime.Joules // nap + power-down residency of enabled banks
	Dynamic    simtime.Joules // data movement
	Transition simtime.Joules // power-down exits
}

// Total returns the sum of all components.
func (e Energy) Total() simtime.Joules { return e.Static + e.Dynamic + e.Transition }

// Sub returns the component-wise difference e − o.
func (e Energy) Sub(o Energy) Energy {
	return Energy{Static: e.Static - o.Static, Dynamic: e.Dynamic - o.Dynamic, Transition: e.Transition - o.Transition}
}

// FaultInjector injects deterministic bank power-transition failures
// (see internal/fault). A nil injector is the fault-free memory. It is
// consulted once per attempted enable/disable inside SetEnabledBanks;
// a failed transition leaves the bank in its previous state (a bank
// that refused to disable keeps consuming nap power; a bank that
// failed to enable stays dark and the caller must not place data in
// it).
type FaultInjector interface {
	BankTransitionFails(bank int, enable bool, t simtime.Seconds) bool
}

type bankState struct {
	enabled    bool
	lastTouch  simtime.Seconds // when the bank was last accessed
	settledTo  simtime.Seconds // energy accounted through this time
	disabledAt simtime.Seconds // valid when dead under TimeoutDisable
	deadByIdle bool            // disabled by the idle timeout (vs. by resize)
}

// Memory meters a set of banks under one policy.
type Memory struct {
	spec    Spec
	policy  BankPolicy
	banks   []bankState
	enabled int // banks with enabled set
	energy  Energy
	faults  FaultInjector

	// Per-access constants, computed once: spec.NapPower(),
	// spec.PDPower(), and spec.DynamicEnergy(dynBytes) for the last
	// transfer size AddDynamic saw (callers pass one page size).
	nap, pd  simtime.Watts
	dynBytes simtime.Bytes
	dynE     simtime.Joules
}

// New creates a memory with the given number of banks, all enabled and
// freshly touched at time 0.
func New(spec Spec, banks int, policy BankPolicy) *Memory {
	if banks <= 0 {
		panic("mem: need at least one bank")
	}
	m := &Memory{spec: spec, nap: spec.NapPower(), pd: spec.PDPower(),
		dynE: spec.DynamicEnergy(0), policy: policy, banks: make([]bankState, banks), enabled: banks}
	for i := range m.banks {
		m.banks[i].enabled = true
	}
	return m
}

// Spec returns the memory parameters.
func (m *Memory) Spec() Spec { return m.spec }

// SetFaults attaches a fault injector (nil detaches it and restores the
// fault-free memory).
func (m *Memory) SetFaults(f FaultInjector) { m.faults = f }

// Banks returns the number of banks.
func (m *Memory) Banks() int { return len(m.banks) }

// EnabledBanks returns how many banks are currently enabled.
func (m *Memory) EnabledBanks() int { return m.enabled }

// settle accounts bank b's static energy from settledTo through t, using
// the policy to decompose the idle gap.
func (m *Memory) settle(b int, t simtime.Seconds) {
	s := &m.banks[b]
	if t <= s.settledTo {
		return
	}
	if !s.enabled {
		s.settledTo = t
		return
	}
	switch m.policy {
	case AlwaysNap:
		m.energy.Static += simtime.Energy(m.nap, t-s.settledTo)
	case TimeoutPowerDown:
		// From the last touch the bank naps for PDTimeout, then powers
		// down until the next touch. The segment [settledTo, t) may fall
		// anywhere in that profile.
		m.energy.Static += m.profileEnergy(s, t, m.spec.PDTimeout, m.pd)
	case TimeoutDisable:
		// Same profile with the disable timeout and zero floor. Data loss
		// is handled by IdleDisabledAt/DisableIdleBanks, not here.
		m.energy.Static += m.profileEnergy(s, t, m.spec.DisableTimeout, 0)
	}
	s.settledTo = t
}

// profileEnergy integrates the two-level power profile (nap until
// lastTouch+timeout, then floor) over [settledTo, t).
func (m *Memory) profileEnergy(s *bankState, t, timeout simtime.Seconds, floor simtime.Watts) simtime.Joules {
	knee := s.lastTouch + timeout
	lo, hi := s.settledTo, t
	var e simtime.Joules
	if lo < knee {
		span := minSeconds(hi, knee) - lo
		e += simtime.Energy(m.nap, span)
	}
	if hi > knee {
		span := hi - maxSeconds(lo, knee)
		e += simtime.Energy(floor, span)
	}
	return e
}

// Touch records an access to bank b at time t: settles static energy,
// charges a power-down exit if the bank had entered power-down, and
// restarts the bank's idle clock.
func (m *Memory) Touch(b int, t simtime.Seconds) {
	s := &m.banks[b]
	m.settle(b, t)
	if !s.enabled {
		// Re-enable on demand (resize growth or disable-policy refill).
		s.enabled = true
		m.enabled++
		s.deadByIdle = false
	} else if m.policy == TimeoutPowerDown && t-s.lastTouch > m.spec.PDTimeout {
		m.energy.Transition += m.spec.PDExitEnergy
	}
	s.lastTouch = t
}

// AddDynamic charges dynamic energy for moving the given bytes.
func (m *Memory) AddDynamic(b simtime.Bytes) {
	if b != m.dynBytes {
		m.dynBytes, m.dynE = b, m.spec.DynamicEnergy(b)
	}
	m.energy.Dynamic += m.dynE
}

// AddDynamicN charges dynamic energy for n transfers of the given bytes.
// The total is the exact float that n successive AddDynamic(b) calls
// produce, at a cost that grows with the binades the total crosses, not
// with n (see addRepeated).
func (m *Memory) AddDynamicN(b simtime.Bytes, n int64) {
	if n <= 0 {
		return
	}
	if b != m.dynBytes {
		m.dynBytes, m.dynE = b, m.spec.DynamicEnergy(b)
	}
	m.energy.Dynamic = simtime.Joules(addRepeated(float64(m.energy.Dynamic), float64(m.dynE), n))
}

// addRepeated returns the float64 that n successive additions acc += e
// produce under round-to-nearest-even.
//
// While acc stays in one binade it is M·u for an integer significand M
// in [2^52, 2^53) and the binade's ulp u (below 2^-1021 the subnormals
// and the first normal binade share u = 2^-1074, with M in [0, 2^53)).
// Adding an e no larger than the binade rounds the exact M + e/u to an
// integer, and where e/u sits between two integers that rounding is the
// same step every time. On a tie (e/u ends in exactly one half) the step
// is the one that makes M even, which is also the same step every time
// once M is even. So each binade is crossed in one integer step
// M += t·step, and only the addition that leaves a binade, the one that
// makes M even, and any e larger than acc's binade are done one at a
// time. Non-finite or negative operands are added one at a time too;
// an addition that leaves acc unchanged ends the loop, since every later
// one would as well.
func addRepeated(acc, e float64, n int64) float64 {
	const (
		fracBits = 52
		expInf   = 0x7ff // biased exponent of Inf and NaN; the sign bit sits above it
		sigEnd   = 1 << (fracBits + 1)
	)
	for n > 0 {
		ab, eb := math.Float64bits(acc), math.Float64bits(e)
		ae, ee := max(ab>>fracBits, 1), max(eb>>fracBits, 1)
		if ab>>fracBits < expInf && eb>>fracBits < expInf && eb != 0 && ee <= ae {
			// acc = m·2^(ae−1075) and e = em·2^(ee−1075), so e/u = em/2^sh.
			m := ab - (ae-1)<<fracBits
			em := eb - (ee-1)<<fracBits
			sh := ae - ee
			step, tie := em, false
			if sh >= 64 {
				step = 0 // e < u/2: no addition moves acc
			} else if sh > 0 {
				rem, half := em&(1<<sh-1), uint64(1)<<(sh-1)
				step = em >> sh
				if rem > half {
					step++
				}
				tie = rem == half
			}
			if !tie || m&1 == 0 {
				if tie {
					step += step & 1 // the even multiple keeps M even
				}
				if step == 0 {
					return acc
				}
				if k := (sigEnd - 1 - m) / step; k > 0 {
					t := min(uint64(n), k)
					m += t * step
					n -= int64(t)
					acc = math.Float64frombits((ae-1)<<fracBits + m)
					continue
				}
			}
		}
		next := acc + e
		n--
		if math.Float64bits(next) == math.Float64bits(acc) {
			return acc
		}
		acc = next
	}
	return acc
}

// SetEnabledBanks enables banks [0, n) and disables the rest at time t,
// the resize primitive used by the fixed-size and joint methods.
// Disabled banks consume nothing and lose data (the caller invalidates
// the cache accordingly).
//
// It returns the usable contiguous enabled prefix that was actually
// achieved. Without a fault injector this always equals the clamped n;
// with one, a bank that fails to enable truncates the prefix there (the
// caller must size the cache to the return value, never to its request),
// while a bank that fails to disable keeps burning nap power outside the
// prefix — wasteful but harmless, and retried at the next resize.
func (m *Memory) SetEnabledBanks(t simtime.Seconds, n int) int {
	if n < 1 {
		n = 1
	}
	if n > len(m.banks) {
		n = len(m.banks)
	}
	for b := range m.banks {
		s := &m.banks[b]
		want := b < n
		if s.enabled == want {
			continue
		}
		if m.faults != nil && m.faults.BankTransitionFails(b, want, t) {
			continue // transition failed: the bank keeps its previous state
		}
		m.settle(b, t)
		s.enabled = want
		if want {
			m.enabled++
			s.lastTouch = t
		} else {
			m.enabled--
			s.disabledAt = t
			s.deadByIdle = false
		}
	}
	achieved := 0
	for achieved < len(m.banks) && m.banks[achieved].enabled {
		achieved++
	}
	if achieved > n {
		achieved = n // banks that refused to disable are not usable space
	}
	return achieved
}

// IdleDisabledAt reports whether bank b has crossed the disable timeout
// by time t under the TimeoutDisable policy, and when it did. The caller
// uses this lazily: before trusting a cache hit in bank b, check whether
// the bank's data already expired.
func (m *Memory) IdleDisabledAt(b int, t simtime.Seconds) (simtime.Seconds, bool) {
	if m.policy != TimeoutDisable {
		return 0, false
	}
	s := &m.banks[b]
	if !s.enabled {
		return s.disabledAt, true
	}
	expiry := s.lastTouch + m.spec.DisableTimeout
	if expiry <= t {
		return expiry, true
	}
	return 0, false
}

// MarkIdleDisabled settles and disables bank b after the caller confirmed
// (via IdleDisabledAt) that its timeout expired; t is the current time.
func (m *Memory) MarkIdleDisabled(b int, t simtime.Seconds) {
	s := &m.banks[b]
	if !s.enabled {
		return
	}
	m.settle(b, t)
	s.enabled = false
	m.enabled--
	s.deadByIdle = true
	expiry := s.lastTouch + m.spec.DisableTimeout
	if expiry < t {
		s.disabledAt = expiry
	} else {
		s.disabledAt = t
	}
}

// SweepIdleDisabled returns all enabled banks whose disable timeout has
// expired by t. The caller invalidates their cache frames and then calls
// MarkIdleDisabled for each.
func (m *Memory) SweepIdleDisabled(t simtime.Seconds) []int {
	if m.policy != TimeoutDisable {
		return nil
	}
	var out []int
	for b := range m.banks {
		s := &m.banks[b]
		if s.enabled && s.lastTouch+m.spec.DisableTimeout <= t {
			out = append(out, b)
		}
	}
	return out
}

// FinishTo settles every bank's static energy through t. Under
// AlwaysNap the banks are settled in one pass into a local accumulator:
// the same additions in the same bank order as settle makes.
func (m *Memory) FinishTo(t simtime.Seconds) {
	if m.policy != AlwaysNap {
		for b := range m.banks {
			m.settle(b, t)
		}
		return
	}
	static := m.energy.Static
	for b := range m.banks {
		s := &m.banks[b]
		if t <= s.settledTo {
			continue
		}
		if s.enabled {
			static += simtime.Energy(m.nap, t-s.settledTo)
		}
		s.settledTo = t
	}
	m.energy.Static = static
}

// Energy returns the cumulative energy breakdown. Call FinishTo first to
// include trailing residency.
func (m *Memory) Energy() Energy { return m.energy }

// String summarises the memory state.
func (m *Memory) String() string {
	return fmt.Sprintf("mem{banks=%d enabled=%d policy=%v}", len(m.banks), m.EnabledBanks(), m.policy)
}

func minSeconds(a, b simtime.Seconds) simtime.Seconds {
	if a < b {
		return a
	}
	return b
}

func maxSeconds(a, b simtime.Seconds) simtime.Seconds {
	if a > b {
		return a
	}
	return b
}
