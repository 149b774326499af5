package workload

import (
	"math"
	"testing"

	"jointpm/internal/simtime"
	"jointpm/internal/stats"
)

func smallConfig() Config {
	return Config{
		DataSetBytes: 64 * simtime.MB,
		PageSize:     64 * simtime.KB,
		Rate:         4 * float64(simtime.MB), // 4 MB/s
		Popularity:   0.1,
		Duration:     300,
		Classes:      SPECWeb99Classes(16),
		Seed:         1,
	}
}

func TestGenerateValidTrace(t *testing.T) {
	tr, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) == 0 {
		t.Fatal("no requests generated")
	}
	if tr.DataSetPages <= 0 || tr.Files <= 0 {
		t.Fatal("bad metadata")
	}
}

func TestGenerateHitsTargetRate(t *testing.T) {
	cfg := smallConfig()
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.MeanRate()
	if math.Abs(got-cfg.Rate)/cfg.Rate > 0.15 {
		t.Errorf("mean rate %g, want within 15%% of %g", got, cfg.Rate)
	}
}

// TestGenerateSizesRequestsTightly checks requestCount against the
// counts Generate draws, across seeds, skews and a hot set covering the
// whole data set: every count lies within four standard deviations of the
// predicted mean, and the returned slice has no spare capacity.
func TestGenerateSizesRequestsTightly(t *testing.T) {
	for _, pop := range []float64{0.05, 0.1, 0.6, 1} {
		for seed := int64(1); seed <= 16; seed++ {
			cfg := smallConfig()
			cfg.Popularity, cfg.Seed = pop, seed
			tr, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := len(tr.Requests)
			if cap(tr.Requests) != n {
				t.Fatalf("popularity %g seed %d: cap %d for %d requests", pop, seed, cap(tr.Requests), n)
			}
			c, _ := cfg.withDefaults()
			rng := stats.NewRNG(c.Seed)
			fs := buildFileSet(c, rng.Split())
			var hot *stats.Zipf
			if fs.nHot > 1 {
				hot = stats.NewZipf(rng.Split(), fs.nHot, c.ZipfS)
			}
			if mean, sd := requestCount(c, fs, hot); math.Abs(float64(n)-mean) > 4*sd {
				t.Errorf("popularity %g seed %d: %d requests, predicted %.0f ± %.0f", pop, seed, n, mean, sd)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	a, _ := Generate(cfg)
	cfg.Seed = 2
	b, _ := Generate(cfg)
	if len(a.Requests) == len(b.Requests) {
		same := true
		for i := range a.Requests {
			if a.Requests[i] != b.Requests[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGeneratePopularityKnob(t *testing.T) {
	cfg := smallConfig()
	cfg.Duration = 600
	cfg.Popularity = 0.1
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := PopularityOf(tr)
	// The measured popularity should be in the right regime: well below
	// uniform (1.0) and near the requested density.
	if got < 0.03 || got > 0.3 {
		t.Errorf("popularity %g, want ≈0.1", got)
	}

	cfg.Popularity = 0.6
	cfg.Seed = 3
	tr2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got2 := PopularityOf(tr2)
	if got2 <= got {
		t.Errorf("sparser config measured denser: %g vs %g", got2, got)
	}
}

func TestGenerateDataSetCoverage(t *testing.T) {
	tr, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Layout must cover approximately DataSetBytes of pages.
	gotBytes := simtime.Bytes(tr.DataSetPages) * tr.PageSize
	if gotBytes < tr.DataSetBytes {
		t.Errorf("page layout %d covers less than data set %d", gotBytes, tr.DataSetBytes)
	}
	if float64(gotBytes) > 1.3*float64(tr.DataSetBytes) {
		t.Errorf("page layout %d wildly exceeds data set %d", gotBytes, tr.DataSetBytes)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	tests := []func(*Config){
		func(c *Config) { c.DataSetBytes = 0 },
		func(c *Config) { c.PageSize = 0 },
		func(c *Config) { c.Rate = 0 },
		func(c *Config) { c.Popularity = 0 },
		func(c *Config) { c.Popularity = 1.5 },
		func(c *Config) { c.Duration = 0 },
	}
	for i, mut := range tests {
		cfg := smallConfig()
		mut(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestSPECWeb99Classes(t *testing.T) {
	cs := SPECWeb99Classes(1)
	var w float64
	for _, c := range cs {
		w += c.Weight
		if c.MinBytes >= c.MaxBytes {
			t.Errorf("class %+v has empty range", c)
		}
	}
	if math.Abs(w-1) > 1e-9 {
		t.Errorf("weights sum to %g", w)
	}
	scaled := SPECWeb99Classes(16)
	if scaled[0].MinBytes != cs[0].MinBytes*16 {
		t.Error("scale not applied")
	}
}

func TestPopularityOfEmptyTrace(t *testing.T) {
	tr, _ := Generate(smallConfig())
	tr.Requests = nil
	if got := PopularityOf(tr); got != 0 {
		t.Errorf("PopularityOf(empty) = %g", got)
	}
}
