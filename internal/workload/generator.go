// Package workload builds server access traces. It has two halves,
// mirroring Fig. 6(b) of the paper:
//
//   - Generator: a SPECWeb99-style web-server benchmark substitute. It
//     lays out a file population using SPECWeb99's four file-size classes,
//     drives it with Poisson request arrivals at a target byte rate, and
//     skews file choice so that a configurable fraction of the data set
//     (the "popularity") receives 90% of all accesses.
//   - Synthesizer: offline transforms over a base trace that vary one
//     workload characteristic at a time — data rate, data-set size, and
//     popularity — exactly the three knobs the paper's evaluation sweeps.
//
// The paper collected its base traces from SPECWeb99 on a real machine;
// that benchmark is proprietary and hardware-bound, so the generator is
// the substitution documented in DESIGN.md. Everything downstream of the
// trace (cache, disk, policies) only sees the trace itself.
package workload

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"jointpm/internal/simtime"
	"jointpm/internal/stats"
	"jointpm/internal/trace"
)

// SizeClass describes one file-size class: files are uniformly sized in
// [MinBytes, MaxBytes] and the class receives Weight of all files.
type SizeClass struct {
	MinBytes, MaxBytes simtime.Bytes
	Weight             float64
}

// SPECWeb99Classes is the canonical SPECWeb99 file-size mix: four classes
// spanning 0.1 KB to 1 MB with the published access weights (35/50/14/1).
// Scale multiplies the class boundaries; experiments use Scale to trade
// event count for fidelity (see DESIGN.md "granularity scale").
func SPECWeb99Classes(scale int64) []SizeClass {
	s := simtime.Bytes(scale)
	return []SizeClass{
		{MinBytes: 102 * s, MaxBytes: 921 * s, Weight: 0.35},
		{MinBytes: 1 * simtime.KB * s, MaxBytes: 9 * simtime.KB * s, Weight: 0.50},
		{MinBytes: 10 * simtime.KB * s, MaxBytes: 92 * simtime.KB * s, Weight: 0.14},
		{MinBytes: 100 * simtime.KB * s, MaxBytes: 921 * simtime.KB * s, Weight: 0.01},
	}
}

// Config parameterises the generator.
type Config struct {
	DataSetBytes simtime.Bytes   // total size of the file population
	PageSize     simtime.Bytes   // cache page size
	Rate         float64         // offered load in bytes/second
	Popularity   float64         // fraction of bytes receiving 90% of accesses (0 < p ≤ 1)
	Duration     simtime.Seconds // trace length
	Classes      []SizeClass     // file-size mix; nil means SPECWeb99Classes(1)
	ZipfS        float64         // skew within the popular set; 0 means 0.8
	Seed         int64
}

// HotShare is the fraction of accesses directed at the popular subset of
// files, fixed at 90% to match the paper's definition of popularity.
const HotShare = 0.90

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Classes == nil {
		cfg.Classes = SPECWeb99Classes(1)
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 0.8
	}
	if cfg.DataSetBytes <= 0 {
		return cfg, fmt.Errorf("workload: non-positive data set size %d", cfg.DataSetBytes)
	}
	if cfg.PageSize <= 0 {
		return cfg, fmt.Errorf("workload: non-positive page size %d", cfg.PageSize)
	}
	if cfg.Rate <= 0 {
		return cfg, fmt.Errorf("workload: non-positive rate %g", cfg.Rate)
	}
	if cfg.Popularity <= 0 || cfg.Popularity > 1 {
		return cfg, fmt.Errorf("workload: popularity %g outside (0,1]", cfg.Popularity)
	}
	if cfg.Duration <= 0 {
		return cfg, fmt.Errorf("workload: non-positive duration %v", cfg.Duration)
	}
	return cfg, nil
}

// fileSet is the generated file population: per-file sizes and page
// layout, plus the hot/cold partition implementing the popularity knob.
type fileSet struct {
	sizes     []simtime.Bytes
	firstPage []int64
	pages     []int32
	nHot      int   // files [0, nHot) are the popular set
	total     int64 // total pages
}

// buildFileSet lays out files until the data set size is reached. Files
// are generated class-by-interleaved so hot files (the prefix) sample all
// size classes. The hot prefix is cut so that it covers ~popularity of
// the data set's bytes.
func buildFileSet(cfg Config, rng *stats.RNG) *fileSet {
	var fs fileSet
	var accum simtime.Bytes
	// Draw file sizes until we cover the data set.
	for accum < cfg.DataSetBytes {
		c := pickClass(cfg.Classes, rng)
		span := int64(c.MaxBytes - c.MinBytes)
		size := c.MinBytes
		if span > 0 {
			size += simtime.Bytes(rng.Int63n(span + 1))
		}
		if accum+size > cfg.DataSetBytes {
			size = cfg.DataSetBytes - accum
			if size < cfg.PageSize {
				size = cfg.PageSize
			}
		}
		fs.sizes = append(fs.sizes, size)
		accum += size
	}
	// Lay out pages contiguously per file.
	fs.firstPage = make([]int64, len(fs.sizes))
	fs.pages = make([]int32, len(fs.sizes))
	var page int64
	for i, sz := range fs.sizes {
		fs.firstPage[i] = page
		n := int64((sz + cfg.PageSize - 1) / cfg.PageSize)
		fs.pages[i] = int32(n)
		page += n
	}
	fs.total = page
	// Hot prefix covering ~popularity of bytes.
	var hotBytes simtime.Bytes
	target := simtime.Bytes(float64(accum) * cfg.Popularity)
	for i, sz := range fs.sizes {
		hotBytes += sz
		if hotBytes >= target {
			fs.nHot = i + 1
			break
		}
	}
	if fs.nHot == 0 {
		fs.nHot = 1
	}
	return &fs
}

func pickClass(classes []SizeClass, rng *stats.RNG) SizeClass {
	u := rng.Float64()
	acc := 0.0
	for _, c := range classes {
		acc += c.Weight
		if u < acc {
			return c
		}
	}
	return classes[len(classes)-1]
}

// Generate produces a trace according to cfg. Requests arrive as a
// Poisson process whose mean interarrival is adapted per-request so the
// long-run byte rate matches cfg.Rate. With probability HotShare a
// request picks a hot file (Zipf-skewed within the hot set); otherwise a
// cold file uniformly.
func Generate(cfg Config) (*trace.Trace, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(c.Seed)
	fs := buildFileSet(c, rng.Split())
	var hotZipf *stats.Zipf
	if fs.nHot > 1 {
		hotZipf = stats.NewZipf(rng.Split(), fs.nHot, c.ZipfS)
	}
	arrivalRNG := rng.Split()
	pickRNG := rng.Split()

	t := &trace.Trace{
		PageSize:     c.PageSize,
		DataSetBytes: c.DataSetBytes,
		DataSetPages: fs.total,
		Files:        int32(len(fs.sizes)),
		Duration:     c.Duration,
	}
	// Room for two standard deviations over the expected count: append
	// regrows for about one trace in forty.
	mean, sd := requestCount(c, fs, hotZipf)
	t.Requests = make([]trace.Request, 0, int(mean+2*sd)+16)

	now := simtime.Seconds(0)
	for {
		var f int
		if pickRNG.Float64() < HotShare && fs.nHot > 0 {
			if hotZipf != nil {
				f = hotZipf.Next()
			}
		} else if len(fs.sizes) > fs.nHot {
			f = fs.nHot + pickRNG.Intn(len(fs.sizes)-fs.nHot)
		} else if hotZipf != nil {
			f = hotZipf.Next()
		}
		size := fs.sizes[f]
		// Interarrival targets the byte rate: on average this request's
		// bytes take size/Rate seconds of budget; exponential jitter makes
		// arrivals Poisson-like while preserving the mean.
		gap := arrivalRNG.Exp(float64(size) / c.Rate)
		now += simtime.Seconds(gap)
		if now > c.Duration {
			break
		}
		t.Requests = append(t.Requests, trace.Request{
			Time:      now,
			File:      int32(f),
			FirstPage: fs.firstPage[f],
			Pages:     fs.pages[f],
			Bytes:     size,
		})
	}
	// Return the slice at its length: copy it out when its unused
	// capacity exceeds a sixteenth of the count, as when the count fell
	// well short of the estimate or append regrew past it; a smaller
	// slack stays behind the clip.
	if n := len(t.Requests); cap(t.Requests)-n > n/16 {
		t.Requests = append(make([]trace.Request, 0, n), t.Requests...)
	}
	t.Requests = slices.Clip(t.Requests)
	return t, nil
}

// requestCount returns the mean and standard deviation of the number of
// requests Generate draws. The mean is the byte budget over the expected
// request size under the hot/cold pick. A request's gap is exponential
// with mean size/Rate, so its squared coefficient of variation is
// 2E[s²]/E[s]² − 1, and the count's variance is about the mean times that.
func requestCount(c Config, fs *fileSet, hot *stats.Zipf) (mean, sd float64) {
	var hot1, hot2 float64 // E[s] and E[s²] of a hot pick
	for i, sz := range fs.sizes[:fs.nHot] {
		p := 1.0 // a one-file hot set always picks file 0
		if hot != nil {
			p = hot.P(i)
		}
		s := float64(sz)
		hot1 += p * s
		hot2 += p * s * s
	}
	cold1, cold2 := hot1, hot2 // with no cold files a cold pick is a hot one
	if cold := fs.sizes[fs.nHot:]; len(cold) > 0 {
		cold1, cold2 = 0, 0
		for _, sz := range cold {
			s := float64(sz)
			cold1 += s
			cold2 += s * s
		}
		cold1 /= float64(len(cold))
		cold2 /= float64(len(cold))
	}
	m1 := HotShare*hot1 + (1-HotShare)*cold1
	m2 := HotShare*hot2 + (1-HotShare)*cold2
	mean = float64(c.Duration) * c.Rate / m1
	return mean, math.Sqrt(mean * (2*m2/(m1*m1) - 1))
}

// PopularityOf measures the popularity of a trace per the paper's
// definition: the fraction of data-set bytes belonging to the smallest
// set of files that receives 90% of the accesses. Used by tests and by
// the synthesizer to verify its transforms.
func PopularityOf(t *trace.Trace) float64 {
	type fileStat struct {
		count int64
		pages int64
	}
	m := make(map[int32]*fileStat)
	var total int64
	for i := range t.Requests {
		r := &t.Requests[i]
		s := m[r.File]
		if s == nil {
			s = &fileStat{pages: int64(r.Pages)}
			m[r.File] = s
		}
		s.count++
		total++
	}
	if total == 0 {
		return 0
	}
	files := make([]*fileStat, 0, len(m))
	for _, s := range m {
		files = append(files, s)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].count > files[j].count })
	need := int64(float64(total) * HotShare)
	var got, pages int64
	for _, s := range files {
		got += s.count
		pages += s.pages
		if got >= need {
			break
		}
	}
	return float64(pages) / float64(t.DataSetPages)
}
