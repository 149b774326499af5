package mem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"jointpm/internal/simtime"
)

// addLoop is the reference addRepeated must reproduce: n additions.
func addLoop(acc, e float64, n int64) float64 {
	for ; n > 0; n-- {
		acc += e
	}
	return acc
}

// ulpOf returns the spacing of float64s at x (x > 0, finite).
func ulpOf(x float64) float64 { return math.Nextafter(x, math.Inf(1)) - x }

// accrualCases are accumulator/addend pairs chosen to hit each branch of
// addRepeated: a zero or subnormal accumulator, an addend above the
// accumulator's binade, ties at odd and even multiples of the ulp (from
// even and odd accumulators), addends that cannot move the accumulator,
// and accumulators just below a binade edge.
func accrualCases() []struct {
	name   string
	acc, e float64
} {
	one, u := 1.0, ulpOf(1.0)
	odd := 1 + u // significand ends in 1
	quick := RDRAM(64 * simtime.KB)
	quick.DynamicPerMB *= 256
	page := float64(quick.DynamicEnergy(16 * simtime.KB))
	return []struct {
		name   string
		acc, e float64
	}{
		{"zero acc, page energy", 0, page},
		{"negative zero acc", math.Copysign(0, -1), page},
		{"page energy on a running total", 12.5, page},
		{"paper-scale page", 3.75, float64(RDRAM(16 * simtime.MB).DynamicEnergy(4 * simtime.KB))},
		{"e above acc", 1e-9, 0.75},
		{"e equal acc", page, page},
		{"subnormal acc, subnormal e", 3 * math.SmallestNonzeroFloat64, 7 * math.SmallestNonzeroFloat64},
		{"subnormal acc, normal e", 1e-310, 2.5e-308},
		{"subnormal acc near the first normal binade", 0x1p-1022 - 5*math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64},
		{"tie at an odd multiple, even acc", one, 3.5 * u},
		{"tie at an even multiple, even acc", one, 2.5 * u},
		{"tie at an odd multiple, odd acc", odd, 3.5 * u},
		{"tie at an even multiple, odd acc", odd, 2.5 * u},
		{"half-ulp tie, even acc", one, u / 2},
		{"half-ulp tie, odd acc", odd, u / 2},
		{"tie across a wide exponent gap", 1 << 40, 0x1p-12 + 0x1p-13},
		{"rounds up", one, 2.75 * u},
		{"rounds down", one, 2.25 * u},
		{"too small to move acc", one, 0x1p-80},
		{"e below 2^-64 ulp", one, 0x1p-120},
		{"just below a binade edge", math.Nextafter(2, 0), 1.25 * u},
		{"a few steps below a binade edge", 2 - 7*u, 1.5 * u},
		{"near the top of the range", math.MaxFloat64 / 2, 1e300},
	}
}

// TestAddDynamicNMatchesLoop: addRepeated, and AddDynamicN through a
// Memory, return the same bits as n one-at-a-time additions, for every
// n ≤ 10^5 tried, on the hand-picked cases and on random ones.
func TestAddDynamicNMatchesLoop(t *testing.T) {
	ns := []int64{0, 1, 2, 3, 5, 64, 1000, 4097, 65537, 100000}
	check := func(name string, acc, e float64, n int64) {
		t.Helper()
		got, want := addRepeated(acc, e, n), addLoop(acc, e, n)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: acc %x e %x n %d: got %x (%g), loop %x (%g)", name, acc, e, n,
				math.Float64bits(got), got, math.Float64bits(want), want)
		}
	}
	for _, c := range accrualCases() {
		for _, n := range ns {
			check(c.name, c.acc, c.e, n)
		}
	}
	// Operands off the closed form's domain go one addition at a time
	// (too slowly for the split test's n).
	for _, c := range []struct {
		name   string
		acc, e float64
	}{
		{"negative e", 5, -0.25},
		{"negative acc", -3, 0.125},
		{"infinite acc", math.Inf(1), 0.5},
		{"overflow to infinity", math.MaxFloat64, math.MaxFloat64 / 4},
	} {
		for _, n := range ns {
			check(c.name, c.acc, c.e, n)
		}
	}

	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 3000; i++ {
		acc := math.Ldexp(rng.Float64(), rng.Intn(80)-40)
		var e float64
		switch rng.Intn(4) {
		case 0: // a tie: an odd or even multiple of the ulp plus one half
			e = (float64(rng.Intn(64)) + 0.5) * ulpOf(math.Max(acc, 0x1p-1022))
		case 1: // an addend above the accumulator
			e = acc * (1 + rng.Float64()*8)
		default:
			e = math.Ldexp(1+rng.Float64(), -rng.Intn(60)) * math.Max(acc, 1e-12)
		}
		check(fmt.Sprintf("random %d", i), acc, e, rng.Int63n(100001))
	}

	// Through the memory model: periods of AddDynamicN against the
	// per-access AddDynamic calls, including a transfer-size change.
	quick := RDRAM(64 * simtime.KB)
	quick.DynamicPerMB *= 256
	batched, single := New(quick, 4, AlwaysNap), New(quick, 4, AlwaysNap)
	for p := 0; p < 40; p++ {
		size := 16 * simtime.KB
		if p%9 == 8 {
			size = 4 * simtime.KB
		}
		n := rng.Int63n(100001)
		batched.AddDynamicN(size, n)
		for i := int64(0); i < n; i++ {
			single.AddDynamic(size)
		}
		if g, w := batched.Energy().Dynamic, single.Energy().Dynamic; math.Float64bits(float64(g)) != math.Float64bits(float64(w)) {
			t.Fatalf("period %d: AddDynamicN total %v, AddDynamic loop %v", p, g, w)
		}
	}
}

// TestAddDynamicNSplitInvariance: charging n transfers in two calls of
// any split equals one call of n, for n up to 2^40, where the loop
// reference is out of reach.
func TestAddDynamicNSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, c := range accrualCases() {
		for i := 0; i < 40; i++ {
			n := rng.Int63n(1<<40) + 1
			if i%4 == 0 {
				n = 1 << 40
			}
			a := rng.Int63n(n + 1)
			whole := addRepeated(c.acc, c.e, n)
			split := addRepeated(addRepeated(c.acc, c.e, a), c.e, n-a)
			if math.Float64bits(whole) != math.Float64bits(split) {
				t.Fatalf("%s: n %d split at %d: %x vs whole %x", c.name, n, a,
					math.Float64bits(split), math.Float64bits(whole))
			}
		}
	}
}

// TestFinishToMatchesSettle: FinishTo leaves the same energy and bank
// state, bit for bit, as settling each bank in order, under all three
// bank policies, after random touches, resizes and idle disables; and
// EnabledBanks keeps counting the enabled banks through all of them.
func TestFinishToMatchesSettle(t *testing.T) {
	spec := RDRAM(64 * simtime.KB)
	spec.NapPowerPerMB *= 256
	for _, pol := range []BankPolicy{AlwaysNap, TimeoutPowerDown, TimeoutDisable} {
		t.Run(pol.String(), func(t *testing.T) {
			const banks = 300
			rng := rand.New(rand.NewSource(int64(pol) + 1))
			fin, ref := New(spec, banks, pol), New(spec, banks, pol)
			both := func(f func(m *Memory)) { f(fin); f(ref) }
			now := simtime.Seconds(0)
			for period := 1; period <= 30; period++ {
				end := simtime.Seconds(period) * 300
				for now < end {
					now += simtime.Seconds(rng.ExpFloat64() * 2)
					if now >= end {
						break
					}
					b := rng.Intn(banks)
					switch {
					case rng.Intn(50) == 0:
						n := 1 + rng.Intn(banks)
						both(func(m *Memory) { m.SetEnabledBanks(now, n) })
					case pol == TimeoutDisable && rng.Intn(10) == 0:
						for _, d := range ref.SweepIdleDisabled(now) {
							both(func(m *Memory) { m.MarkIdleDisabled(d, now) })
						}
					default:
						both(func(m *Memory) { m.Touch(b, now) })
					}
				}
				fin.FinishTo(end)
				for b := range ref.banks {
					ref.settle(b, end)
				}
				if fin.Energy() != ref.Energy() {
					t.Fatalf("period %d: FinishTo energy %+v, per-bank settle %+v", period, fin.Energy(), ref.Energy())
				}
				enabled := 0
				for b := range ref.banks {
					if fin.banks[b] != ref.banks[b] {
						t.Fatalf("period %d bank %d: FinishTo state %+v, settle %+v", period, b, fin.banks[b], ref.banks[b])
					}
					if fin.banks[b].enabled {
						enabled++
					}
				}
				if got := fin.EnabledBanks(); got != enabled {
					t.Fatalf("period %d: EnabledBanks = %d, %d banks enabled", period, got, enabled)
				}
			}
		})
	}
}
