package experiments

import (
	"runtime"
	"strings"
	"testing"
)

func TestOmitBarRule(t *testing.T) {
	cases := []struct {
		util float64
		want bool
	}{
		{0, false},
		{0.5, false},
		{0.97, false},
		{OmitUtilization, false}, // exactly at the threshold stays on the figure
		{0.981, true},
		{1.0, true},
		{1.5, true}, // over-committed disk from a too-small cache
	}
	for _, c := range cases {
		if got := OmitBar(c.util); got != c.want {
			t.Errorf("OmitBar(%g) = %v, want %v", c.util, got, c.want)
		}
	}
}

func TestRunnerParallelismEnv(t *testing.T) {
	clamp := func(ceiling int) int {
		n := runtime.NumCPU()
		if n > ceiling {
			n = ceiling
		}
		if n < 1 {
			n = 1
		}
		return n
	}
	cases := []struct {
		env   string
		units int
		want  int
	}{
		{"", 0, clamp(8)},
		{"", 4, clamp(8)},   // small fan-out keeps the historical ceiling
		{"", 16, clamp(18)}, // large fan-out raises it to units+2
		{"3", 0, 3},
		{"1", 16, 1}, // env override is absolute, ignores fan-out
		{"64", 0, 64},
		{"0", 0, clamp(8)},     // non-positive falls back
		{"-2", 0, clamp(8)},    // non-positive falls back
		{"bogus", 0, clamp(8)}, // non-numeric falls back
	}
	for _, c := range cases {
		t.Setenv(ParallelismEnv, c.env)
		if got := runnerParallelism(c.units); got != c.want {
			t.Errorf("JOINTPM_PAR=%q units=%d: parallelism = %d, want %d", c.env, c.units, got, c.want)
		}
	}
}

// TestExtArrayIndependentOfParallelism renders the multi-disk matrix one
// run at a time and six at a time: the table must be byte-identical, rows
// in matrix order. Under -race it also checks that concurrent multidisk
// runs share no mutable state (the trace is read by all twelve).
func TestExtArrayIndependentOfParallelism(t *testing.T) {
	render := func(par string) string {
		t.Setenv(ParallelismEnv, par)
		var b strings.Builder
		if err := ExtArray(quick(), 5, &b); err != nil {
			t.Fatalf("%s=%s: %v", ParallelismEnv, par, err)
		}
		return b.String()
	}
	serial, parallel := render("1"), render("6")
	if serial != parallel {
		t.Errorf("extarray table differs between %s=1 and 6\n1:\n%s\n6:\n%s", ParallelismEnv, serial, parallel)
	}
	if n := strings.Count(serial, "/4"); n != 12 {
		t.Errorf("extarray table has %d rows, want 12:\n%s", n, serial)
	}
}
