// Command fleetbench measures the batched ingest pipeline at fleet
// scale: it starts one in-process jointpmd server on a real TCP
// listener, dials N concurrent client connections (one disk stream
// each, the socket protocol's "disk <name>\n" preamble followed by a
// binary trace), and reports the aggregate ingest rate the daemon
// sustained plus the pooled Decide latency quantiles from every
// shard's flight recorder.
//
// The summary lands in BENCH_fleet.json (experiments.WriteBenchSummary
// format), so consecutive runs across a perf change chain their own
// before/after wall times.
//
// With -power-cap-w the run also exercises the fleet coordinator: every
// shard exists before the first byte arrives, one initial reallocation
// budgets them all, and epochs re-solve the cap as periods close. The
// summary then gains cap-compliance fields (peak per-period aggregate
// power, budget-violation count, Jain fairness index) and the run fails
// if any trusted period exceeded the budget it was decided under — the
// CI cap-compliance smoke.
//
// Usage:
//
//	fleetbench -streams 1024 -out .
//	fleetbench -streams 1024 -power-cap-w 7500 -out .
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"jointpm/internal/experiments"
	"jointpm/internal/fleet"
	"jointpm/internal/obs/flight"
	"jointpm/internal/serve"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		streams  = flag.Int("streams", 1024, "concurrent client connections (one disk stream each)")
		memTotal = flag.String("mem", "64MB", "installed physical memory per shard")
		bank     = flag.String("bank", "1MB", "memory bank size")
		page     = flag.String("page", "64KB", "page size")
		period   = flag.Float64("period", 120, "adaptation period in stream seconds")
		duration = flag.Float64("duration", 1200, "per-stream trace length in stream seconds")
		rate     = flag.Float64("rate", 0.25, "per-stream request rate in MB/s of stream time")
		seed     = flag.Int64("seed", 42, "workload seed")
		outDir   = flag.String("out", ".", "directory for BENCH_fleet.json")
		powerCap = flag.Float64("power-cap-w", 0, "global power cap in watts across every stream (0: uncapped); the run fails if any trusted period exceeded its budget")
		fleetEp  = flag.Int64("fleet-epoch", 16, "with -power-cap-w, each shard triggers a reallocation every N of its periods (1: every period — O(streams) summaries per solve, expensive at fleet scale)")
	)
	flag.Parse()

	installed, err := simtime.ParseBytes(*memTotal)
	if err != nil {
		return fmt.Errorf("parsing -mem: %w", err)
	}
	bankSize, err := simtime.ParseBytes(*bank)
	if err != nil {
		return fmt.Errorf("parsing -bank: %w", err)
	}
	pageSize, err := simtime.ParseBytes(*page)
	if err != nil {
		return fmt.Errorf("parsing -page: %w", err)
	}

	// One trace, encoded once: every stream replays the same byte string
	// under a distinct disk name, so the server hosts N independent
	// shards while the client side pays the generation cost once.
	tr, err := workload.Generate(workload.Config{
		DataSetBytes: 8 * installed,
		PageSize:     pageSize,
		Rate:         *rate * float64(simtime.MB),
		Popularity:   0.1,
		Duration:     simtime.Seconds(*duration),
		Classes:      workload.SPECWeb99Classes(64),
		Seed:         *seed,
	})
	if err != nil {
		return fmt.Errorf("generating workload: %w", err)
	}
	var enc bytes.Buffer
	if err := trace.WriteBinary(&enc, tr); err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	data := enc.Bytes()
	refsPerStream := int64(0)
	for i := range tr.Requests {
		refsPerStream += int64(tr.Requests[i].Pages)
	}
	fmt.Fprintf(os.Stderr, "fleetbench: %d streams x %d requests (%d page refs, %d bytes encoded)\n",
		*streams, len(tr.Requests), refsPerStream, len(data))

	srv, err := serve.New(serve.Config{
		PageSize:       pageSize,
		BankSize:       bankSize,
		InstalledMem:   installed,
		Period:         simtime.Seconds(*period),
		FlightRecorder: flight.DefaultDepth,
		PowerCapW:      *powerCap,
		FleetEpoch:     *fleetEp,
	})
	if err != nil {
		return err
	}
	if srv.FleetEnabled() {
		// Create every shard up front and solve the cap once before any
		// stream connects, so even the first period of the slowest-dialled
		// stream decides under a budget.
		for i := 0; i < *streams; i++ {
			if _, err := srv.Shard(diskName(i)); err != nil {
				return err
			}
		}
		srv.FleetReallocate()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serverDone := make(chan error, 1)
	go func() {
		serverDone <- srv.ServeListener(ln, serve.StreamOptions{})
	}()

	// Drive the fleet: each client writes its preamble and the whole
	// trace, then closes. The wall clock spans first dial to last
	// drained connection (ServeListener returns only once every accepted
	// stream has been ingested).
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, *streams)
	for i := 0; i < *streams; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errCh <- fmt.Errorf("stream %d: %w", id, err)
				return
			}
			defer conn.Close()
			if _, err := fmt.Fprintf(conn, "disk %s\n", diskName(id)); err != nil {
				errCh <- fmt.Errorf("stream %d: %w", id, err)
				return
			}
			if _, err := conn.Write(data); err != nil {
				errCh <- fmt.Errorf("stream %d: %w", id, err)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	// Writers finishing does not mean the server is done — a short trace
	// fits in the kernel socket buffers, so a client can write and close
	// before its connection is even accepted, and closing the listener at
	// that point would strand the queued connections. Poll the daemon
	// until every page ref has landed, then shut the listener down.
	wantRefs := refsPerStream * int64(*streams)
	deadline := time.Now().Add(10 * time.Minute)
	for srv.Status().RefsIngested < wantRefs {
		if time.Now().After(deadline) {
			return fmt.Errorf("ingest stalled: %d refs landed, want %d", srv.Status().RefsIngested, wantRefs)
		}
		time.Sleep(time.Millisecond)
	}
	wall := time.Since(start).Seconds()
	if err := ln.Close(); err != nil {
		return err
	}
	if err := <-serverDone; err != nil {
		return err
	}

	st := srv.Status()
	if st.RefsIngested != wantRefs {
		return fmt.Errorf("ingested %d refs, want %d", st.RefsIngested, wantRefs)
	}

	// Pool Decide wall times across every shard's flight recorder;
	// warmup periods never time a Decide, and unmeasured (zero) spans
	// are skipped.
	// Under a cap, also audit the flight records: every trusted period
	// (priced, not degraded, not the over-budget fallback) must respect
	// the budget it was decided under, the per-period aggregate traces
	// the fleet's draw against the cap, and the Jain index over per-shard
	// mean power measures how evenly the cap was shared.
	var decideNs []int64
	var periods int64
	violations := 0
	aggW := map[int64]float64{}
	var shardMeans []float64
	for i := 0; i < *streams; i++ {
		sh, err := srv.Shard(diskName(i))
		if err != nil {
			return err
		}
		periods += sh.Periods()
		var sumW float64
		var nW int
		for _, r := range sh.Flight().Last(0) {
			if !r.Warmup && r.DecideNs > 0 {
				decideNs = append(decideNs, r.DecideNs)
			}
			if r.Warmup || r.Fallback || r.OverBudget || r.PowerW <= 0 {
				continue
			}
			if r.BudgetW > 0 && r.PowerW > r.BudgetW*(1+1e-9)+1e-6 {
				violations++
			}
			aggW[r.Period] += r.PowerW
			sumW += r.PowerW
			nW++
		}
		if nW > 0 {
			shardMeans = append(shardMeans, sumW/float64(nW))
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}
	sort.Slice(decideNs, func(i, j int) bool { return decideNs[i] < decideNs[j] })
	quantile := func(q float64) float64 {
		if len(decideNs) == 0 {
			return 0
		}
		idx := int(q * float64(len(decideNs)-1))
		return float64(decideNs[idx]) / 1e6
	}

	sum := experiments.BenchSummary{
		Experiment:    "fleet",
		Scale:         fmt.Sprintf("%d-streams", *streams),
		Point:         fmt.Sprintf("%d-requests-per-stream", len(tr.Requests)),
		WallSeconds:   wall,
		Iterations:    1,
		Streams:       *streams,
		RefsPerSecond: float64(st.RefsIngested) / wall,
		DecideP50Ms:   quantile(0.50),
		DecideP99Ms:   quantile(0.99),
	}
	if *powerCap > 0 {
		maxAgg := 0.0
		for _, w := range aggW {
			if w > maxAgg {
				maxAgg = w
			}
		}
		sum.PowerCapW = *powerCap
		sum.MaxAggregateW = maxAgg
		sum.CapViolations = &violations
		sum.FairnessIndex = fleet.JainIndex(shardMeans)
	}
	path, err := experiments.WriteBenchSummary(*outDir, sum)
	if err != nil {
		return err
	}
	fmt.Printf("streams        %d\n", *streams)
	fmt.Printf("periods closed %d\n", periods)
	fmt.Printf("wall           %.2fs\n", wall)
	fmt.Printf("aggregate      %.0f refs/s\n", sum.RefsPerSecond)
	fmt.Printf("decide p50/p99 %.3fms / %.3fms (%d samples)\n", sum.DecideP50Ms, sum.DecideP99Ms, len(decideNs))
	if *powerCap > 0 {
		fmt.Printf("power cap      %.2f W (peak aggregate %.2f W)\n", sum.PowerCapW, sum.MaxAggregateW)
		fmt.Printf("cap violations %d\n", violations)
		fmt.Printf("fairness       %.4f (Jain, %d shards with trusted periods)\n", sum.FairnessIndex, len(shardMeans))
	}
	fmt.Printf("summary        %s\n", path)
	if *powerCap > 0 && violations > 0 {
		return fmt.Errorf("%d trusted periods exceeded their budget under -power-cap-w %g", violations, *powerCap)
	}
	return nil
}

// diskName is the shard naming scheme shared by the pre-created shards
// and the client preambles.
func diskName(i int) string { return fmt.Sprintf("d%04d", i) }
