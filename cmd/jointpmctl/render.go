package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"

	"jointpm/internal/obs"
	"jointpm/internal/serve"
)

// renderStatus writes the one-screen daemon summary: a header line, one
// row per shard (banks, timeout, Decide quantiles, energy split), and
// the fallback/fault counters.
func renderStatus(w io.Writer, addr string, st serve.Status) error {
	flight := "off"
	if st.FlightDepth > 0 {
		flight = fmt.Sprintf("%d periods", st.FlightDepth)
	}
	fmt.Fprintf(w, "jointpmd %s  up %.0fs  lag %.2fs  ingest %.0f refs/s  period %.0fs  flight %s\n\n",
		addr, st.UptimeS, st.StreamLagS, st.RefsPerSec, st.PeriodS, flight)

	// The fleet columns only appear when the daemon reports a power cap
	// (any shard carrying budget/actual watts), so an uncapped daemon's
	// table renders byte-identically to pre-fleet builds.
	capped := false
	for _, sh := range st.Shards {
		if sh.BudgetW > 0 || sh.PowerW > 0 {
			capped = true
			break
		}
	}
	// Likewise the SPEED column only appears on multi-speed daemons
	// (the status reports its DRPM ladder size).
	multiSpeed := st.SpeedLevels > 1
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	header := "DISK\tPERIODS\tCONSUMED\tREFS\tRING\tBANKS\tTIMEOUT\tFALLBK\tDECIDE p50/p99\tMEM J\tDISK J\tDELAY s"
	if multiSpeed {
		header += "\tSPEED"
	}
	if capped {
		header += "\tBUDGET W\tACTUAL W"
	}
	fmt.Fprintln(tw, header)
	for _, sh := range st.Shards {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\t%d\t%s\t%d\t%s / %s\t%.1f\t%.1f\t%.2f",
			sh.Disk, sh.Periods, sh.Consumed, sh.RefsIngested, formatRing(sh.RingLen, sh.RingCap),
			sh.Banks, formatTimeout(sh.TimeoutS),
			sh.Fallbacks, formatMs(sh.DecideP50Ms), formatMs(sh.DecideP99Ms),
			sh.Energy.MemJ(), sh.Energy.DiskJ(), sh.Energy.DelayS)
		if multiSpeed {
			fmt.Fprintf(tw, "\t%d/%d", sh.SpeedLevel, st.SpeedLevels-1)
		}
		if capped {
			fmt.Fprintf(tw, "\t%s\t%s", formatWatts(sh.BudgetW), formatWatts(sh.PowerW))
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if line := counterLine(st.Counters); line != "" {
		fmt.Fprintf(w, "\n%s\n", line)
	}
	return nil
}

// counterLine selects the health counters worth one line of screen:
// every fault.* counter plus the daemon's degradation counters.
func counterLine(counters []obs.NamedInt) string {
	keep := map[string]bool{
		"serve.fallbacks":         true,
		"serve.checkpoint_errors": true,
		"serve.restores":          true,
	}
	var parts []string
	for _, c := range counters {
		if keep[c.Name] || strings.HasPrefix(c.Name, "fault.") {
			parts = append(parts, fmt.Sprintf("%s=%d", c.Name, c.Value))
		}
	}
	sort.Strings(parts)
	if parts == nil {
		return ""
	}
	return "counters: " + strings.Join(parts, "  ")
}

// renderPeriods writes the flight records, one row per period, disks in
// name order, oldest first.
func renderPeriods(w io.Writer, pr serve.PeriodsResponse) error {
	names := make([]string, 0, len(pr.Disks))
	for name := range pr.Disks {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "DISK\tPERIOD\tSPAN s\tREFS\tINGEST ns/ref\tDECIDE\tEMIT\tCKPT\tBANKS\tTIMEOUT\tENERGY J\tFLAGS")
	for _, name := range names {
		for _, r := range pr.Disks[name] {
			span := float64(r.EndS) - float64(r.StartS)
			flags := "-"
			var fl []string
			if r.Warmup {
				fl = append(fl, "warmup")
			}
			if r.Fallback {
				fl = append(fl, "fallback")
			}
			if fl != nil {
				flags = strings.Join(fl, ",")
			}
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%d\t%.0f\t%s\t%s\t%s\t%d\t%s\t%.1f\t%s\n",
				name, r.Period, span, r.Refs, r.IngestNsPerRef(),
				formatNs(r.DecideNs), formatNs(r.EmitNs), formatNs(r.CheckpointNs),
				r.Banks, formatTimeout(r.TimeoutS), r.Energy.TotalJ(), flags)
		}
	}
	return tw.Flush()
}

// renderFleet writes the coordinator's latest solve: the cap header and
// one row per shard budget, stale rows flagged.
func renderFleet(w io.Writer, st serve.FleetStatus) error {
	fmt.Fprintf(w, "power cap %.2f W  floor %.2f W/shard  epoch %d\n\n",
		st.PowerCapW, st.FloorW, st.Epoch)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "DISK\tBUDGET W\tDEMAND W\tFLOOR W\tSTALE")
	for _, a := range st.Assignments {
		stale := "-"
		if a.Stale {
			stale = "stale"
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%s\n", a.Disk, a.BudgetW, a.DemandW, a.FloorW, stale)
	}
	return tw.Flush()
}

// formatWatts renders a fleet wattage; "-" when the field is absent
// (shard not yet budgeted).
func formatWatts(w float64) string {
	if w == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", w)
}

// formatRing renders ring occupancy as buffered/capacity; "-" when no
// stream is attached (capacity 0).
func formatRing(n, capacity int) string {
	if capacity == 0 {
		return "-"
	}
	return fmt.Sprintf("%d/%d", n, capacity)
}

func formatTimeout(t obs.Float) string {
	if math.IsInf(float64(t), 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2fs", float64(t))
}

// formatMs renders a millisecond latency with enough precision for
// sub-millisecond decides.
func formatMs(ms float64) string {
	return fmt.Sprintf("%.2fms", ms)
}

// formatNs renders a nanosecond span compactly (µs past 10µs, ms past
// 10ms); 0 renders as "-" (span not measured).
func formatNs(ns int64) string {
	switch {
	case ns == 0:
		return "-"
	case ns >= 10_000_000:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 10_000:
		return fmt.Sprintf("%.0fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
