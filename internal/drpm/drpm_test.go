package drpm

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"jointpm/internal/disk"
	"jointpm/internal/simtime"
	"jointpm/internal/workload"
)

func drpmSpec() Spec {
	return DeriveLevels(disk.Barracuda(), 12000, 4)
}

func drpmWorkload(t testing.TB, rate float64) Config {
	t.Helper()
	tr, err := workload.Generate(workload.Config{
		DataSetBytes: 64 * simtime.MB,
		PageSize:     16 * simtime.KB,
		Rate:         rate,
		Popularity:   0.1,
		Duration:     3600,
		Seed:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Trace:    tr,
		Spec:     drpmSpec(),
		MemBytes: 128 * simtime.MB,
		BankSize: simtime.MB,
		Period:   300,
	}
}

func TestDeriveLevels(t *testing.T) {
	s := drpmSpec()
	if len(s.Levels) != 4 {
		t.Fatalf("levels = %d", len(s.Levels))
	}
	if s.Levels[0].RPM != 12000 || s.Levels[3].RPM != 6000 {
		t.Errorf("RPM ladder: %d..%d", s.Levels[0].RPM, s.Levels[3].RPM)
	}
	for i := 1; i < len(s.Levels); i++ {
		if s.Levels[i].IdlePower >= s.Levels[i-1].IdlePower {
			t.Error("idle power not decreasing with speed")
		}
		if s.Levels[i].TransferRate >= s.Levels[i-1].TransferRate {
			t.Error("transfer rate not decreasing with speed")
		}
		if s.Levels[i].RotLatency <= s.Levels[i-1].RotLatency {
			t.Error("rotational latency not increasing as speed drops")
		}
	}
	// Half speed = quarter idle power.
	ratio := float64(s.Levels[3].IdlePower) / float64(s.Levels[0].IdlePower)
	if ratio < 0.24 || ratio > 0.26 {
		t.Errorf("half-speed power ratio = %g, want ~0.25", ratio)
	}
	// Service is slower at lower levels.
	if s.ServiceTime(3, simtime.MB) <= s.ServiceTime(0, simtime.MB) {
		t.Error("service not slower at low speed")
	}
	if s.TransitionTime(0, 3) <= 0 || s.TransitionTime(2, 2) != 0 {
		t.Error("transition times wrong")
	}
}

func TestFullSpeedBaseline(t *testing.T) {
	cfg := drpmWorkload(t, 256*float64(simtime.KB))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transitions != 0 {
		t.Errorf("full-speed made %d transitions", res.Transitions)
	}
	for l := 1; l < len(res.LevelTime); l++ {
		if res.LevelTime[l] != 0 {
			t.Errorf("full-speed spent time at level %d", l)
		}
	}
	if res.TotalEnergy() <= 0 || res.Requests == 0 {
		t.Fatal("empty result")
	}
}

func TestAdaptiveDropsSpeedWhenQuiet(t *testing.T) {
	cfg := drpmWorkload(t, 64*float64(simtime.KB)) // light load
	cfg.Policy = Adaptive
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	low := res.LevelTime[len(res.LevelTime)-1]
	if low <= 0 {
		t.Error("adaptive never reached the lowest speed on a light load")
	}
	if res.Transitions == 0 {
		t.Error("adaptive made no transitions")
	}
}

func TestAdaptiveSavesEnergyCostsLatency(t *testing.T) {
	full := drpmWorkload(t, 128*float64(simtime.KB))
	fres, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	ad := drpmWorkload(t, 128*float64(simtime.KB))
	ad.Policy = Adaptive
	ares, err := Run(ad)
	if err != nil {
		t.Fatal(err)
	}
	if ares.DiskEnergy >= fres.DiskEnergy {
		t.Errorf("adaptive disk energy %v not below full-speed %v", ares.DiskEnergy, fres.DiskEnergy)
	}
	if ares.MeanLatency() < fres.MeanLatency() {
		t.Errorf("adaptive latency %v below full-speed %v (slower platters cannot be faster)",
			ares.MeanLatency(), fres.MeanLatency())
	}
	// Identical cache behaviour: speed does not change misses.
	if ares.DiskAccesses != fres.DiskAccesses {
		t.Errorf("miss counts differ: %d vs %d", ares.DiskAccesses, fres.DiskAccesses)
	}
}

func TestRunValidation(t *testing.T) {
	bad := []Config{
		{},
		{Trace: drpmWorkload(t, 1000).Trace}, // no levels
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

// TestRejectsMemoryPastFrameLimit: a memory of 2^31 or more pages is
// refused with an error naming the page cache's limit instead of
// reaching the cache constructor's panic.
func TestRejectsMemoryPastFrameLimit(t *testing.T) {
	cfg := drpmWorkload(t, 1000)
	cfg.MemBytes, cfg.BankSize = 32768*simtime.GB, 16*simtime.MB
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "at most 2147483647") {
		t.Errorf("err = %v, want the frame limit", err)
	}
}

// TestDeriveTransitionRate pins the TransitionPerRPM derivation: it must
// come from the base drive's spin-up characteristics, not the old
// hardcoded 0.4/12000, with the documented constant kept only as the
// fallback for specs without a spin-up time.
func TestDeriveTransitionRate(t *testing.T) {
	base := disk.Barracuda()
	s := DeriveLevels(base, 12000, 4)
	want := simtime.Seconds(speedTransitionFrac * float64(base.SpinUpTime) / 12000)
	if s.TransitionPerRPM != want {
		t.Errorf("TransitionPerRPM = %v, want %v derived from SpinUpTime", s.TransitionPerRPM, want)
	}
	// A drive with twice the spin-up time re-accelerates proportionally
	// slower — the rate cannot be a constant.
	slow := base
	slow.SpinUpTime *= 2
	if got := DeriveLevels(slow, 12000, 4).TransitionPerRPM; got != 2*want {
		t.Errorf("doubled spin-up: TransitionPerRPM = %v, want %v", got, 2*want)
	}
	// No spin-up characteristics: the documented DRPM-paper fallback.
	bare := base
	bare.SpinUpTime = 0
	if got := DeriveLevels(bare, 12000, 4).TransitionPerRPM; got != fallbackTransitionPerRPM {
		t.Errorf("fallback TransitionPerRPM = %v, want %v", got, fallbackTransitionPerRPM)
	}
}

// TestDeriveFullRPMFromSpec checks the fullRPM ≤ 0 path: the spindle
// speed comes from the base drive's rotational latency (half a
// revolution), with 7200 as the last-resort default.
func TestDeriveFullRPMFromSpec(t *testing.T) {
	base := disk.Barracuda()
	s := DeriveLevels(base, 0, 2)
	want := int(math.Round(60 / (2 * float64(base.RotationalLatency))))
	if s.Levels[0].RPM != want {
		t.Errorf("derived RPM = %d, want %d from rotational latency", s.Levels[0].RPM, want)
	}
	bare := base
	bare.RotationalLatency = 0
	if got := DeriveLevels(bare, 0, 2).Levels[0].RPM; got != 7200 {
		t.Errorf("default RPM = %d, want 7200", got)
	}
}

// TestLevelZeroVerbatim pins the bit-identity precondition the joint
// slate depends on: a ladder's full-speed level must copy the base
// drive's constants exactly, not reconstruct them through the ratio
// arithmetic (1.0 multiplications are FP-exact, but the contract should
// not depend on that).
func TestLevelZeroVerbatim(t *testing.T) {
	base := disk.Barracuda()
	l := DeriveLevels(base, 12000, 4).Levels[0]
	if l.IdlePower != base.IdlePower || l.ActivePower != base.ActivePower ||
		l.TransferRate != base.TransferRate || l.RotLatency != base.RotationalLatency {
		t.Errorf("level 0 not a verbatim copy of the base spec: %+v vs %+v", l, base)
	}
}

// TestSpecClampsLevelIndices covers the bugfix for the unchecked
// Levels[lvl] indexing: out-of-range and empty-ladder queries must
// answer sanely instead of panicking.
func TestSpecClampsLevelIndices(t *testing.T) {
	s := drpmSpec()
	if got, want := s.ServiceTime(-5, simtime.MB), s.ServiceTime(0, simtime.MB); got != want {
		t.Errorf("ServiceTime(-5) = %v, want clamped %v", got, want)
	}
	if got, want := s.ServiceTime(99, simtime.MB), s.ServiceTime(3, simtime.MB); got != want {
		t.Errorf("ServiceTime(99) = %v, want clamped %v", got, want)
	}
	if got, want := s.TransitionTime(-1, 99), s.TransitionTime(0, 3); got != want {
		t.Errorf("TransitionTime(-1, 99) = %v, want clamped %v", got, want)
	}
	if s.ServiceTime(0, -1) != s.ServiceTime(0, 0) {
		t.Error("negative size not clamped")
	}

	var empty Spec
	if empty.ServiceTime(0, simtime.MB) != 0 || empty.TransitionTime(0, 1) != 0 {
		t.Error("empty ladder did not answer zero")
	}
	if err := empty.Validate(); err == nil {
		t.Error("empty ladder validated")
	}
	cfg := Config{Spec: Spec{SeekTime: 1}}
	if cfg.SpecSeekRot(3) != 1 {
		t.Error("SpecSeekRot on empty ladder must fall back to seek time")
	}
}

// TestSpecValidate tables the structural ladder errors.
func TestSpecValidate(t *testing.T) {
	mut := []func(*Spec){
		func(s *Spec) { s.Levels = nil },
		func(s *Spec) { s.TransitionPerRPM = -1 },
		func(s *Spec) { s.TransitionPerRPM = simtime.Seconds(math.NaN()) },
		func(s *Spec) { s.Levels[1].TransferRate = 0 },
		func(s *Spec) { s.Levels[2].RotLatency = -1 },
		func(s *Spec) { s.Levels[0].IdlePower = -1 },
		func(s *Spec) { s.Levels[3].ActivePower = s.Levels[3].IdlePower - 1 },
	}
	for i, m := range mut {
		s := drpmSpec()
		s.Levels = append([]Level(nil), s.Levels...)
		m(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec validated", i)
		}
	}
	if err := drpmSpec().Validate(); err != nil {
		t.Errorf("derived spec invalid: %v", err)
	}
}

// TestRunSanitizesUtilCap covers the UtilCap bugfix: zero and NaN caps
// must behave like the documented 0.5 default instead of silently
// pinning full speed (NaN fails every `<=` comparison), and caps above 1
// clamp to fully-busy.
func TestRunSanitizesUtilCap(t *testing.T) {
	run := func(cap float64) *Result {
		cfg := drpmWorkload(t, 64*float64(simtime.KB))
		cfg.Policy = Adaptive
		cfg.UtilCap = cap
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(0.5)
	for _, cap := range []float64{0, math.NaN()} {
		got := run(cap)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("UtilCap %v: result differs from the 0.5 default", cap)
		}
	}
	if got := run(math.NaN()); got.Transitions == 0 {
		t.Error("NaN cap pinned full speed on a light load")
	}
	if got, clamped := run(5), run(1); !reflect.DeepEqual(got, clamped) {
		t.Error("UtilCap above 1 not clamped to 1")
	}
}
