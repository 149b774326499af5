package main

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"jointpm/internal/fleet"
	"jointpm/internal/obs"
	"jointpm/internal/obs/flight"
	"jointpm/internal/serve"
)

// TestRenderStatusGolden pins the one-screen status table byte for
// byte: header line, per-shard rows (timeout formatting including the
// +Inf "spin-down disabled" case), and the counter line.
func TestRenderStatusGolden(t *testing.T) {
	st := serve.Status{
		UptimeS:      632.4,
		StreamLagS:   0.418,
		RefsIngested: 419552,
		RefsPerSec:   663.4,
		PeriodS:      120,
		FlightDepth:  64,
		Shards: []serve.ShardStatus{
			{
				Disk: "sda", Periods: 15, Consumed: 52340, Banks: 80,
				TimeoutS: 11.7, Fallbacks: 0,
				RefsIngested: 418720, RingLen: 1024, RingCap: 16384,
				DecideP50Ms: 0.41, DecideP99Ms: 1.27, FlightTotal: 15,
				Energy: flight.Ledger{MemNapJ: 1234.56, DiskActiveJ: 301.2, DiskSpinJ: 44.1, DelayS: 12.6},
			},
			{
				Disk: "sdb", Periods: 3, Consumed: 104, Banks: 128,
				TimeoutS: obs.Float(math.Inf(1)), Fallbacks: 2,
				RefsIngested: 832,
				DecideP50Ms:  0.05, DecideP99Ms: 0.05, FlightTotal: 3,
				Energy: flight.Ledger{MemNapJ: 250, DiskActiveJ: 75.5},
			},
		},
		Counters: []obs.NamedInt{
			{Name: "core.decide_calls", Value: 18},
			{Name: "fault.disk.trips", Value: 1},
			{Name: "serve.fallbacks", Value: 2},
		},
	}
	var buf bytes.Buffer
	if err := renderStatus(&buf, "127.0.0.1:7071", st); err != nil {
		t.Fatal(err)
	}
	want := "jointpmd 127.0.0.1:7071  up 632s  lag 0.42s  ingest 663 refs/s  period 120s  flight 64 periods\n" +
		"\n" +
		"DISK  PERIODS  CONSUMED  REFS    RING        BANKS  TIMEOUT  FALLBK  DECIDE p50/p99   MEM J   DISK J  DELAY s\n" +
		"sda   15       52340     418720  1024/16384  80     11.70s   0       0.41ms / 1.27ms  1234.6  345.3   12.60\n" +
		"sdb   3        104       832     -           128    inf      2       0.05ms / 0.05ms  250.0   75.5    0.00\n" +
		"\n" +
		"counters: fault.disk.trips=1  serve.fallbacks=2\n"
	if got := buf.String(); got != want {
		t.Errorf("status table mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRenderPeriodsGolden pins the flight-record table: disks in name
// order, span formatting, per-ref ingest cost, and the flags column.
func TestRenderPeriodsGolden(t *testing.T) {
	pr := serve.PeriodsResponse{
		FlightDepth: 8,
		Disks: map[string][]flight.PeriodRecord{
			"sdb": {
				{
					Disk: "sdb", Period: 1, StartS: 0, EndS: 120,
					Refs: 0, Banks: 128, TimeoutS: obs.Float(math.Inf(1)), Warmup: true,
					Energy: flight.Ledger{MemNapJ: 100},
				},
			},
			"sda": {
				{
					Disk: "sda", Period: 7, StartS: 720, EndS: 840,
					Refs: 4000, IngestNs: 1_200_000, DecideNs: 410_000, EmitNs: 9_100,
					CheckpointNs: 12_000_000, Banks: 80, TimeoutS: 11.7,
					Energy: flight.Ledger{MemNapJ: 80.25, DiskActiveJ: 20.5},
				},
				{
					Disk: "sda", Period: 8, StartS: 840, EndS: 960,
					Refs: 2000, IngestNs: 640_000, DecideNs: 380_000, EmitNs: 8_000,
					Banks: 80, TimeoutS: 11.7, Fallback: true,
					Energy: flight.Ledger{MemNapJ: 80.25},
				},
			},
		},
	}
	var buf bytes.Buffer
	if err := renderPeriods(&buf, pr); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	wantExact := "DISK  PERIOD  SPAN s  REFS  INGEST ns/ref  DECIDE  EMIT    CKPT    BANKS  TIMEOUT  ENERGY J  FLAGS\n" +
		"sda   7       120     4000  300            410µs   9100ns  12.0ms  80     11.70s   100.8     -\n" +
		"sda   8       120     2000  320            380µs   8000ns  -       80     11.70s   80.2      fallback\n" +
		"sdb   1       120     0     0              -       -       -       128    inf      100.0     warmup\n"
	if got != wantExact {
		t.Errorf("periods table mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, wantExact)
	}
}

// TestRenderStatusFleetGolden pins the capped variant of the status
// table: when any shard reports fleet watts, the BUDGET W / ACTUAL W
// columns appear, with "-" for shards not yet budgeted.
func TestRenderStatusFleetGolden(t *testing.T) {
	st := serve.Status{
		UptimeS:     240, // lag/rate columns zero-valued for brevity
		PeriodS:     120,
		FlightDepth: 64,
		Shards: []serve.ShardStatus{
			{
				Disk: "sda", Periods: 4, Consumed: 900, Banks: 80,
				TimeoutS: 11.7, RefsIngested: 7200,
				DecideP50Ms: 0.41, DecideP99Ms: 1.27,
				Energy:  flight.Ledger{MemNapJ: 100, DiskActiveJ: 20},
				BudgetW: 9.25, PowerW: 7.5,
			},
			{
				Disk: "sdb", Periods: 0, Consumed: 0, Banks: 128,
				TimeoutS: 11.7,
				// Not yet budgeted: both fleet columns render "-".
			},
		},
	}
	var buf bytes.Buffer
	if err := renderStatus(&buf, "127.0.0.1:7071", st); err != nil {
		t.Fatal(err)
	}
	want := "jointpmd 127.0.0.1:7071  up 240s  lag 0.00s  ingest 0 refs/s  period 120s  flight 64 periods\n" +
		"\n" +
		"DISK  PERIODS  CONSUMED  REFS  RING  BANKS  TIMEOUT  FALLBK  DECIDE p50/p99   MEM J  DISK J  DELAY s  BUDGET W  ACTUAL W\n" +
		"sda   4        900       7200  -     80     11.70s   0       0.41ms / 1.27ms  100.0  20.0    0.00     9.25      7.50\n" +
		"sdb   0        0         0     -     128    11.70s   0       0.00ms / 0.00ms  0.0    0.0     0.00     -         -\n"
	if got := buf.String(); got != want {
		t.Errorf("capped status table mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRenderFleetGolden pins the "fleet" subcommand's table: cap
// header, one row per budget, stale rows flagged.
func TestRenderFleetGolden(t *testing.T) {
	st := serve.FleetStatus{
		PowerCapW: 18,
		FloorW:    8.01,
		Epoch:     12,
		Assignments: []fleet.Assignment{
			{Disk: "sda", BudgetW: 9.25, DemandW: 10.4, FloorW: 8.01},
			{Disk: "sdb", BudgetW: 8.75, DemandW: 8.01, FloorW: 8.01, Stale: true},
		},
	}
	var buf bytes.Buffer
	if err := renderFleet(&buf, st); err != nil {
		t.Fatal(err)
	}
	want := "power cap 18.00 W  floor 8.01 W/shard  epoch 12\n" +
		"\n" +
		"DISK  BUDGET W  DEMAND W  FLOOR W  STALE\n" +
		"sda   9.25      10.40     8.01     -\n" +
		"sdb   8.75      8.01      8.01     stale\n"
	if got := buf.String(); got != want {
		t.Errorf("fleet table mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestFleetCommandDisabled is the negative contract end to end: the
// "fleet" subcommand against a daemon running without -power-cap-w
// surfaces the 404 as an error. The handler is the real nil-safe
// serve.FleetHandler of a nil server — the same code path an uncapped
// jointpmd mounts.
func TestFleetCommandDisabled(t *testing.T) {
	var disabled *serve.Server
	ts := httptest.NewServer(disabled.FleetHandler())
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	var buf bytes.Buffer
	err := run([]string{"-addr", addr, "fleet"}, &buf)
	if err == nil {
		t.Fatal("fleet command against an uncapped daemon succeeded")
	}
	if !strings.Contains(err.Error(), "404") || !strings.Contains(err.Error(), "fleet coordinator disabled") {
		t.Fatalf("error %q does not surface the 404 reason", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("fleet command wrote output despite the error: %q", buf.String())
	}
}

// TestRunUnknownCommand: argument errors are reported, not panics.
func TestRunUnknownCommand(t *testing.T) {
	if err := run([]string{"bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown command accepted")
	}
}
