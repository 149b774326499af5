package qmodel

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMM1Wait(t *testing.T) {
	// λ = 0.5, E[S] = 1 → ρ = 0.5 → Wq = 1.
	w, err := MM1Wait(0.5, 1)
	if err != nil || !almost(w, 1, 1e-12) {
		t.Errorf("Wq = %g, %v", w, err)
	}
	// Unloaded queue waits nothing.
	if w, _ := MM1Wait(0, 1); w != 0 {
		t.Errorf("empty queue Wq = %g", w)
	}
	// Saturation.
	if _, err := MM1Wait(1, 1); !errors.Is(err, ErrUnstable) {
		t.Error("saturated queue accepted")
	}
}

func TestMG1SpecialisesToMM1(t *testing.T) {
	// Exponential service: E[S²] = 2E[S]² → P-K reduces to M/M/1.
	lambda, es := 0.7, 1.0
	mm1, _ := MM1Wait(lambda, es)
	mg1, _ := MG1Wait(lambda, es, 2*es*es)
	if !almost(mm1, mg1, 1e-12) {
		t.Errorf("M/G/1 with exp service %g != M/M/1 %g", mg1, mm1)
	}
	viaSCV, _ := MG1WaitSCV(lambda, es, 1)
	if !almost(viaSCV, mm1, 1e-12) {
		t.Errorf("SCV=1 form %g != M/M/1 %g", viaSCV, mm1)
	}
}

func TestMD1HalvesMM1(t *testing.T) {
	// Deterministic service waits exactly half the exponential wait.
	lambda, es := 0.6, 1.0
	mm1, _ := MM1Wait(lambda, es)
	md1, _ := MG1WaitSCV(lambda, es, 0)
	if !almost(md1, mm1/2, 1e-12) {
		t.Errorf("M/D/1 %g != M/M/1/2 %g", md1, mm1/2)
	}
}

func TestMM1QueueLength(t *testing.T) {
	l, err := MM1QueueLength(0.5)
	if err != nil || !almost(l, 1, 1e-12) {
		t.Errorf("L = %g, %v", l, err)
	}
	if _, err := MM1QueueLength(1.0); !errors.Is(err, ErrUnstable) {
		t.Error("ρ=1 accepted")
	}
	if l, _ := MM1QueueLength(-1); l != 0 {
		t.Error("negative rho not clamped")
	}
}

// TestMM1AgainstSimulation validates the formula against a small
// discrete-event M/M/1 simulation.
func TestMM1AgainstSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lambda, es := 0.6, 1.0
	var clock, busyUntil, totalWait float64
	const n = 400000
	for i := 0; i < n; i++ {
		clock += rng.ExpFloat64() / lambda
		start := clock
		if busyUntil > start {
			start = busyUntil
		}
		totalWait += start - clock
		busyUntil = start + rng.ExpFloat64()*es
	}
	simWait := totalWait / n
	want, _ := MM1Wait(lambda, es)
	if math.Abs(simWait-want)/want > 0.05 {
		t.Errorf("simulated Wq %g vs formula %g", simWait, want)
	}
}

func TestMoments(t *testing.T) {
	var m Moments
	for _, x := range []float64{1, 2, 3, 4} {
		m.Add(x)
	}
	if m.N() != 4 || !almost(m.Mean(), 2.5, 1e-12) {
		t.Errorf("mean = %g", m.Mean())
	}
	if !almost(m.SecondMoment(), 7.5, 1e-12) {
		t.Errorf("E[X²] = %g", m.SecondMoment())
	}
	// Var = 1.25 → SCV = 0.2.
	if !almost(m.SCV(), 0.2, 1e-12) {
		t.Errorf("SCV = %g", m.SCV())
	}
	var empty Moments
	if empty.Mean() != 0 || empty.SCV() != 0 {
		t.Error("empty moments not zero")
	}
}

// TestMG1WaitSCVPredictorPaths walks every branch of the M/G/1 form the
// joint manager's predicted wait rides (MG1WaitSCV): degenerate zero
// traffic, negative-SCV clamping, saturation, and the analytic interior.
func TestMG1WaitSCVPredictorPaths(t *testing.T) {
	cases := []struct {
		name            string
		lambda, es, scv float64
		want            float64
		wantErr         bool
	}{
		// Zero traffic is a prediction of zero wait, not an error: an
		// idle shard's summary must not read as saturated.
		{"zero arrivals", 0, 0.01, 1, 0, false},
		{"negative arrivals", -3, 0.01, 1, 0, false},
		{"zero service", 0.5, 0, 1, 0, false},
		{"negative service", 0.5, -0.01, 1, 0, false},
		{"both zero", 0, 0, 1, 0, false},
		// A negative SCV clamps to deterministic service (M/D/1).
		{"scv clamped to M/D/1", 0.6, 1, -5, 0.75, false},
		{"scv exactly zero", 0.6, 1, 0, 0.75, false},
		// SCV=1 is exponential service: ρ·E[S]/(1−ρ) = M/M/1.
		{"scv one is M/M/1", 0.5, 1, 1, 1, false},
		// Heavier-tailed service waits proportionally longer.
		{"scv three", 0.5, 1, 3, 2, false},
		// At and beyond saturation no stationary queue exists.
		{"saturated", 1, 1, 1, math.Inf(1), true},
		{"oversaturated", 2, 1, 1, math.Inf(1), true},
		// Saturation wins over a degenerate SCV.
		{"saturated with bad scv", 1.5, 1, -1, math.Inf(1), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := MG1WaitSCV(tc.lambda, tc.es, tc.scv)
			if tc.wantErr {
				if !errors.Is(err, ErrUnstable) {
					t.Fatalf("MG1WaitSCV(%g, %g, %g) err = %v, want ErrUnstable",
						tc.lambda, tc.es, tc.scv, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("MG1WaitSCV(%g, %g, %g) unexpected error %v",
					tc.lambda, tc.es, tc.scv, err)
			}
			if !almost(w, tc.want, 1e-12) {
				t.Fatalf("MG1WaitSCV(%g, %g, %g) = %g, want %g",
					tc.lambda, tc.es, tc.scv, w, tc.want)
			}
		})
	}
}

// TestMomentsDegenerate pins the zero-traffic corners of the online
// moment accumulator feeding empirical SCVs into the predictor.
func TestMomentsDegenerate(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		mean    float64
		scv     float64
	}{
		{"no samples", nil, 0, 0},
		{"single sample", []float64{3}, 3, 0},
		{"all zero samples", []float64{0, 0, 0}, 0, 0},
		{"constant service", []float64{2, 2, 2, 2}, 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m Moments
			for _, x := range tc.samples {
				m.Add(x)
			}
			if !almost(m.Mean(), tc.mean, 1e-12) || !almost(m.SCV(), tc.scv, 1e-12) {
				t.Fatalf("mean %g scv %g, want %g and %g", m.Mean(), m.SCV(), tc.mean, tc.scv)
			}
		})
	}
}

// Property: wait is monotone in utilization and diverges near saturation.
func TestQuickWaitMonotone(t *testing.T) {
	f := func(a, b uint8) bool {
		r1 := 0.01 + 0.97*float64(a)/255
		r2 := 0.01 + 0.97*float64(b)/255
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		w1, err1 := MM1Wait(r1, 1)
		w2, err2 := MM1Wait(r2, 1)
		if err1 != nil || err2 != nil {
			return false
		}
		return w1 <= w2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
