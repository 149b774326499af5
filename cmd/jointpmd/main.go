// Command jointpmd is the long-running daemon form of the joint power
// manager: it ingests disk access streams incrementally — the trace
// codecs' stream form on stdin, or per-connection on a unix/TCP
// socket — and emits one "decision" line per closed adaptation period
// for each disk it manages.
//
// With -snapshot the daemon checkpoints every shard's controller state
// (extended-LRU stack, open period, manager history, counters) every
// -snapshot-every periods and on graceful shutdown. A restarted daemon
// restores the checkpoint and, because access streams replay from their
// origin, skips the requests it has already consumed: its first
// post-restart decision is exactly what an uninterrupted run would have
// decided. A checkpoint it cannot restore, corrupt or of another format
// version, makes it start cold. See DESIGN.md for the snapshot format.
//
// Usage:
//
//	jointpmd -mem 128MB -bank 1MB -period 120 -snapshot d.snap < trace.bin
//	jointpmd -listen unix:/run/jointpmd.sock -snapshot d.snap
//	jointpmd -listen 127.0.0.1:7070 -metrics-addr 127.0.0.1:7071
//
// On a socket, each connection opens one stream: a "disk <name>\n"
// preamble, then a binary or text trace. Stdin mode serves the single
// disk named by -disk.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"jointpm/internal/fault"
	"jointpm/internal/obs"
	"jointpm/internal/obs/flight"
	"jointpm/internal/serve"
	"jointpm/internal/shutdown"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jointpmd:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	var (
		diskName      = flag.String("disk", "disk0", "disk name for the stdin stream")
		listen        = flag.String("listen", "", "accept streams on this address (unix:/path or host:port) instead of stdin")
		memTotal      = flag.String("mem", "128GB", "installed physical memory")
		bank          = flag.String("bank", "16MB", "memory bank size")
		page          = flag.String("page", "64KB", "page size")
		period        = flag.Float64("period", 600, "adaptation period in stream seconds")
		warmup        = flag.Int("warmup-periods", 0, "hold the safe default for the first N periods")
		snapshot      = flag.String("snapshot", "", "checkpoint file enabling warm restart")
		snapshotEvery = flag.Int64("snapshot-every", 5, "checkpoint every N closed periods (0: only on shutdown)")
		tick          = flag.Duration("tick", 0, "advance idle disks' stream clocks this often in wall time (0: periods close from stream time only)")
		faultsPath    = flag.String("faults", "", "fault plan JSON (supports daemon.crash_at_period)")
		metricsAddr   = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/status, and /debug/periods on this address")
		decTrace      = flag.String("decision-trace", "", "append one JSON line per joint decision to this file")
		refitDrift    = flag.Float64("refit-drift", 0, "steady-state refit drift-hold fraction (0: full slate search every period; 0.05 recommended)")
		flightDepth   = flag.Int("flight", flight.DefaultDepth, "per-shard flight recorder depth in periods (0: disabled)")
		powerCap      = flag.Float64("power-cap-w", 0, "global power cap in watts shared by every disk's (memory, disk) pair (0 or +Inf: uncapped, bit-identical to a build without the fleet layer)")
		fleetEpoch    = flag.Int64("fleet-epoch", 1, "with -power-cap-w, reallocate per-shard budgets every N closed periods per shard")
		speedLevels   = flag.Int("speed-levels", 0, "derive a DRPM speed ladder of N levels from the disk spec and price every candidate at every level (0 or 1: single-speed, bit-identical to a build without the ladder)")
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

	// Cleanups go on a shutdown stack so SIGINT/SIGTERM still writes the
	// final checkpoint and flushes the journal before exiting 128+sig.
	// Registration order makes the LIFO run: checkpoint, then journal
	// flush, then metrics teardown.
	shut := shutdown.NewStack("jointpmd")
	defer func() {
		if cerr := shut.Run(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	stopSignals := shut.HandleSignals()
	defer stopSignals()

	cfg := serve.Config{
		PageSize:       pageSize,
		BankSize:       bankSize,
		InstalledMem:   installed,
		Period:         simtime.Seconds(*period),
		WarmupPeriods:  *warmup,
		SnapshotPath:   *snapshot,
		SnapshotEvery:  *snapshotEvery,
		FlightRecorder: *flightDepth,
		RefitDriftFrac: *refitDrift,
		PowerCapW:      *powerCap,
		FleetEpoch:     *fleetEpoch,
		SpeedLevels:    *speedLevels,
	}
	if *metricsAddr != "" {
		// The HTTP server itself starts below, once the serve.Server
		// exists to back the /debug/status and /debug/periods handlers.
		cfg.Metrics = obs.NewRegistry()
		obs.Publish("jointpmd", cfg.Metrics)
	}
	if *decTrace != "" {
		sink, err := obs.NewFileSink(*decTrace, obs.DefaultSinkDepth)
		if err != nil {
			return fmt.Errorf("opening -decision-trace: %w", err)
		}
		cfg.DecisionTrace = sink
		shut.Defer(func() error {
			if cerr := sink.Close(); cerr != nil {
				return fmt.Errorf("flushing -decision-trace %s: %w", *decTrace, cerr)
			}
			return nil
		})
	}
	if *faultsPath != "" {
		plan, err := fault.LoadPlan(*faultsPath)
		if err != nil {
			return fmt.Errorf("loading -faults: %w", err)
		}
		cfg.Injector = fault.NewInjector(plan, cfg.Period, cfg.Metrics)
	}

	var outMu sync.Mutex
	multiSpeed := *speedLevels > 1
	cfg.OnDecision = func(d serve.Decision) {
		outMu.Lock()
		defer outMu.Unlock()
		// The level column only appears on multi-speed daemons, so
		// single-speed decision logs stay byte-identical to older builds.
		if multiSpeed {
			fmt.Printf("decision disk=%s period=%d banks=%d pages=%d timeout=%s fallback=%t level=%d\n",
				d.Disk, d.Period, d.Decision.Banks, d.Decision.Pages,
				formatTimeout(d.Decision.Timeout), d.Decision.Fallback, d.Decision.Level)
			return
		}
		fmt.Printf("decision disk=%s period=%d banks=%d pages=%d timeout=%s fallback=%t\n",
			d.Disk, d.Period, d.Decision.Banks, d.Decision.Pages,
			formatTimeout(d.Decision.Timeout), d.Decision.Fallback)
	}

	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	shut.Defer(srv.Close)

	if *metricsAddr != "" {
		msrv, addr, err := obs.ServeWith(*metricsAddr, cfg.Metrics, func(mux *http.ServeMux) {
			mux.Handle("/debug/status", srv.StatusHandler())
			mux.Handle("/debug/periods", srv.PeriodsHandler())
			mux.Handle("/debug/fleet", srv.FleetHandler())
		})
		if err != nil {
			return fmt.Errorf("serving -metrics-addr %s: %w", *metricsAddr, err)
		}
		fmt.Fprintf(os.Stderr, "jointpmd: metrics on http://%s/metrics\n", addr)
		shut.Defer(msrv.Close)
	}

	// SIGQUIT dumps the flight recorders to stderr and keeps running —
	// the live post-mortem for a daemon that looks wedged.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	go func() {
		for range quitCh {
			fmt.Fprintln(os.Stderr, "jointpmd: SIGQUIT: flight-recorder dump")
			if derr := srv.WriteFlightDump(os.Stderr); derr != nil {
				fmt.Fprintf(os.Stderr, "jointpmd: flight dump: %v\n", derr)
			}
		}
	}()
	shut.Defer(func() error {
		signal.Stop(quitCh)
		close(quitCh)
		return nil
	})

	// A snapshot that cannot be restored — corrupt, or written in another
	// format version — restores nothing, and the daemon starts cold; the
	// next checkpoint replaces it.
	names, err := srv.Restore()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jointpmd: starting cold: %v\n", err)
	}
	for _, name := range names {
		sh, err := srv.Shard(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "jointpmd: restored disk=%s periods=%d consumed=%d\n",
			name, sh.Periods(), sh.Consumed())
	}

	opt := serve.StreamOptions{
		Tick: *tick,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "jointpmd: "+format+"\n", args...)
		},
	}
	if *listen != "" {
		network, address := "tcp", *listen
		if path, ok := strings.CutPrefix(*listen, "unix:"); ok {
			network, address = "unix", path
			// A previous unclean exit can leave the socket file behind.
			os.Remove(path)
		}
		ln, err := net.Listen(network, address)
		if err != nil {
			return fmt.Errorf("listening on %s: %w", *listen, err)
		}
		shut.Defer(ln.Close)
		fmt.Fprintf(os.Stderr, "jointpmd: listening on %s\n", ln.Addr())
		return srv.ServeListener(ln, opt)
	}
	sh, err := srv.Shard(*diskName)
	if err != nil {
		return err
	}
	st, err := trace.SniffStream(bufio.NewReader(os.Stdin))
	if err != nil {
		return fmt.Errorf("reading stdin: %w", err)
	}
	return srv.ServeStream(sh, st, opt)
}

func formatTimeout(t simtime.Seconds) string {
	if math.IsInf(float64(t), 1) {
		return "inf"
	}
	return fmt.Sprintf("%.3fs", float64(t))
}

// The stream pumps — preamble handling, ring-buffered ingest, idle
// ticks, replay skipping — live in the serve package (ServeStream,
// ServeListener); this binary only owns flag parsing, the listener
// socket, and process lifecycle.
