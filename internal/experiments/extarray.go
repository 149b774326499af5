package experiments

import (
	"fmt"
	"io"
	"sync"

	"jointpm/internal/multidisk"
)

// ExtArray runs the multi-disk extension's layout × policy matrix: a
// four-spindle array serving the 16 "GB" data set, comparing striped,
// ranged and hot-cold layouts under always-on, per-disk two-competitive
// timeouts, the PB-LRU-style partitioned cache, and the joint extension.
// This is the paper's Section VI future work, reproducible from the CLI.
func ExtArray(s Scale, seed int64, w io.Writer) error {
	rate := 25 * s.RateUnit
	warmup := s.WarmupFor(16*s.Unit, rate)
	tr, err := s.GenerateBase(16*s.Unit, rate, 0.1, seed, warmup)
	if err != nil {
		return err
	}

	// The 12 runs are independent; they share the runner's worker count
	// and render in matrix order, the first failure in that order
	// reported.
	layouts := []multidisk.Layout{multidisk.Striped, multidisk.Ranged, multidisk.HotCold}
	methods := []multidisk.DiskMethod{multidisk.AlwaysOn, multidisk.TwoCompetitive, multidisk.Partitioned, multidisk.Joint}
	n := len(layouts) * len(methods)
	results := make([]*multidisk.Result, n)
	errs := make([]error, n)
	sem := make(chan struct{}, runnerParallelism(n))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = multidisk.Run(multidisk.Config{
				Trace:        tr,
				Disks:        4,
				Layout:       layouts[i/len(methods)],
				Method:       methods[i%len(methods)],
				InstalledMem: s.InstalledMem,
				BankSize:     s.BankSize,
				DiskSpec:     s.DiskSpec,
				MemSpec:      s.MemSpec,
				Period:       s.Period,
			})
		}(i)
	}
	wg.Wait()

	t := newTable("Extension: 4-disk array, layout × per-spindle policy (16GB at 25MB/s)",
		"layout", "policy", "disk energy (J)", "total (J)", "sleeping", "latency (ms)")
	for i, res := range results {
		layout, method := layouts[i/len(methods)], methods[i%len(methods)]
		if errs[i] != nil {
			return fmt.Errorf("extarray %v/%v: %w", layout, method, errs[i])
		}
		t.addRow(layout.String(), method.String(),
			fmtF(float64(res.DiskEnergy()), 0, false),
			fmtF(float64(res.TotalEnergy()), 0, false),
			fmt.Sprintf("%d/4", res.SleepingDisks()),
			fmtF(float64(res.MeanLatency())*1e3, 2, false))
	}
	if err := t.render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nexpected shape: hot-cold concentrates traffic so cold spindles can")
	fmt.Fprintln(w, "sleep, which striping forbids; the joint extension adds cache sizing")
	fmt.Fprintln(w, "on top of the per-spindle timeouts.")
	return nil
}

func init() {
	registry["extarray"] = Experiment{
		ID: "extarray", Paper: "extension (Sec. VI)",
		Desc: "4-disk array: data layout × per-spindle power management",
		Run:  ExtArray,
	}
}
