// Command pmsim replays one trace through the simulator under a chosen
// power-management method and prints the metric row the paper's figures
// are built from: energy split, latency, utilization, and long-latency
// rate. Combine with tracegen to script custom studies.
//
// Usage:
//
//	pmsim -trace base.trc -method JOINT
//	pmsim -trace base.trc -method 2TFM-16GB -mem 128GB -bank 16MB
//	pmsim -trace base.trc -method ADPD-128GB -periods
//	pmsim -trace base.trc -metrics-addr 127.0.0.1:8080 -decision-trace joint.jsonl
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"jointpm/internal/core"
	"jointpm/internal/fault"
	"jointpm/internal/obs"
	"jointpm/internal/policy"
	"jointpm/internal/profiling"
	"jointpm/internal/shutdown"
	"jointpm/internal/sim"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	var (
		tracePath     = flag.String("trace", "", "binary trace file (required)")
		method        = flag.String("method", "JOINT", "method name, e.g. JOINT, ALWAYS-ON, 2TFM-16GB, ADPD-128GB")
		memTotal      = flag.String("mem", "128GB", "installed physical memory")
		bank          = flag.String("bank", "16MB", "memory bank size")
		period        = flag.Float64("period", 600, "adaptation period in seconds")
		warmup        = flag.Float64("warmup", 0, "warmup seconds excluded from metrics")
		delayCap      = flag.Float64("delaycap", 0.001, "joint delayed-request ratio cap D")
		periods       = flag.Bool("periods", false, "also print per-period rows")
		metricsAddr   = flag.String("metrics-addr", "", "serve /metrics and /debug/vars on this address while running")
		metricsLinger = flag.Duration("metrics-linger", 0, "keep serving metrics this long after the run finishes")
		decTrace      = flag.String("decision-trace", "", "append one JSON line per joint decision to this file")
		refitDrift    = flag.Float64("refit-drift", 0, "steady-state refit drift-hold fraction (0: full slate search every period; 0.05 recommended)")
		speedLevels   = flag.Int("speed-levels", 0, "derive a DRPM speed ladder of N levels from the disk spec; the joint slate prices every candidate at every level (0 or 1: single-speed)")
		faultsPath    = flag.String("faults", "", "JSON fault plan: run under injected faults and check invariants")
		faultSeed     = flag.Uint64("fault-seed", 1, "seed for the -faults injector")
		cpuprofile    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Cleanups (journal flush, profile stop, metrics server close) go on
	// a shutdown stack instead of plain defers, so a SIGINT/SIGTERM mid-
	// run or mid-linger still flushes everything before exiting 128+sig.
	shut := shutdown.NewStack("pmsim")
	defer func() {
		if cerr := shut.Run(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	stopSignals := shut.HandleSignals()
	defer stopSignals()

	f, err := os.Open(*tracePath)
	if err != nil {
		return fmt.Errorf("opening -trace: %w", err)
	}
	tr, err := trace.ReadBinary(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("reading -trace %s: %w", *tracePath, err)
	}

	m, err := policy.ParseName(*method)
	if err != nil {
		return fmt.Errorf("parsing -method: %w", err)
	}
	installed, err := simtime.ParseBytes(*memTotal)
	if err != nil {
		return fmt.Errorf("parsing -mem: %w", err)
	}
	bankSize, err := simtime.ParseBytes(*bank)
	if err != nil {
		return fmt.Errorf("parsing -bank: %w", err)
	}
	if m.MemBytes == 0 {
		m.MemBytes = installed
	}

	// Observability: a registry when an exporter wants it, a journal sink
	// when -decision-trace names a file. The sink is flushed on every exit
	// path, success or failure, mirroring the profile flush below.
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		obs.Publish("jointpm", reg)
		srv, addr, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("serving -metrics-addr %s: %w", *metricsAddr, err)
		}
		fmt.Fprintf(os.Stderr, "pmsim: metrics on http://%s/metrics\n", addr)
		shut.Defer(srv.Close)
	}
	var sink *obs.DecisionSink
	if *decTrace != "" {
		sink, err = obs.NewFileSink(*decTrace, obs.DefaultSinkDepth)
		if err != nil {
			return fmt.Errorf("opening -decision-trace: %w", err)
		}
		shut.Defer(func() error {
			if cerr := sink.Close(); cerr != nil {
				return fmt.Errorf("flushing -decision-trace %s: %w", *decTrace, cerr)
			}
			return nil
		})
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return fmt.Errorf("starting profiles: %w", err)
	}
	shut.Defer(func() error {
		if perr := stopProfiles(); perr != nil {
			return fmt.Errorf("flushing profiles: %w", perr)
		}
		return nil
	})

	cfg := sim.Config{
		Trace:          tr,
		Method:         m,
		RefitDriftFrac: *refitDrift,
		SpeedLevels:    *speedLevels,
		InstalledMem:   installed,
		BankSize:       bankSize,
		Period:         simtime.Seconds(*period),
		Warmup:         simtime.Seconds(*warmup),
		Joint:          &core.Params{DelayCap: *delayCap},
		Metrics:        reg,
		DecisionTrace:  sink,
	}
	var (
		res *sim.Result
		rep *fault.Report
	)
	if *faultsPath != "" {
		// Faulted run: the invariant harness transforms the trace, wires
		// the injector, and checks the safety invariants. It meters the
		// run through its own registry so counter snapshots are per-seed.
		plan, err := fault.LoadPlan(*faultsPath)
		if err != nil {
			return err
		}
		rep, err = fault.CheckRun(cfg, plan, *faultSeed)
		if err != nil {
			return fmt.Errorf("simulating %s under -faults: %w", m.Name(), err)
		}
		res = rep.Result
	} else {
		res, err = sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("simulating %s: %w", m.Name(), err)
		}
	}

	fmt.Printf("method           %s\n", m.Name())
	fmt.Printf("duration         %v (metered)\n", res.Duration)
	fmt.Printf("client requests  %d\n", res.ClientRequests)
	fmt.Printf("cache accesses   %d (page refs)\n", res.CacheAccesses)
	fmt.Printf("disk accesses    %d (page misses), %d coalesced requests\n", res.DiskAccesses, res.DiskRequests)
	fmt.Printf("disk energy      %v (dyn %v, on %v, floor %v, transitions %v)\n",
		res.DiskEnergy.Total(), res.DiskEnergy.Dynamic, res.DiskEnergy.StaticOn,
		res.DiskEnergy.Floor, res.DiskEnergy.Transition)
	fmt.Printf("memory energy    %v (static %v, dyn %v, transitions %v)\n",
		res.MemEnergy.Total(), res.MemEnergy.Static, res.MemEnergy.Dynamic, res.MemEnergy.Transition)
	fmt.Printf("total energy     %v (avg %.3g W)\n", res.TotalEnergy(),
		float64(res.TotalEnergy())/float64(res.Duration))
	fmt.Printf("mean latency     %v\n", res.MeanLatency())
	fmt.Printf("utilization      %.2f%%\n", res.Utilization*100)
	fmt.Printf("long latency     %d requests (%.3f/s)\n", res.Delayed, res.DelayedPerSecond())

	if rep != nil {
		fmt.Printf("faults injected  %d (spin-up retries %d, latency spikes %d, bank failures %d)\n",
			rep.FaultsInjected, rep.SpinUpRetries, rep.LatencySpikes, rep.BankFailures)
		fmt.Printf("degradation      %d degenerate fits, %d fallback decisions\n",
			rep.FitDegenerate, rep.FallbackDecisions)
		if len(rep.Violations) > 0 {
			for _, v := range rep.Violations {
				fmt.Fprintln(os.Stderr, "pmsim: invariant violated:", v)
			}
			return fmt.Errorf("%d invariant violations under -faults %s", len(rep.Violations), *faultsPath)
		}
		fmt.Printf("invariants       ok\n")
	}

	if *periods {
		fmt.Println("\nperiod  accesses  misses  requests  util%   meanidle  banks  timeout  delayed")
		for i, p := range res.Periods {
			to := "inf"
			if !math.IsInf(float64(p.Timeout), 1) {
				to = p.Timeout.String()
			}
			fmt.Printf("%6d  %8d  %6d  %8d  %5.2f  %8v  %5d  %7s  %7d\n",
				i+1, p.CacheAccesses, p.DiskAccesses, p.DiskRequests,
				p.Utilization*100, p.MeanIdle, p.Banks, to, p.Delayed)
		}
	}

	// Hold the exporter open so a scraper (CI's smoke curl, a manual
	// browser tab) can read the final counters after a short run.
	if *metricsAddr != "" && *metricsLinger > 0 {
		fmt.Fprintf(os.Stderr, "pmsim: lingering %v for scrapes\n", *metricsLinger)
		time.Sleep(*metricsLinger)
	}
	return nil
}
