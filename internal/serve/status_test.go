package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"jointpm/internal/obs"
	"jointpm/internal/obs/flight"
)

// TestFlightRecorderEndpoints runs a full trace through an instrumented
// server and checks the live query surfaces: /debug/status, the
// /debug/periods filters, the SIGQUIT dump, and the ledger invariants
// tying the flight recorder to the /metrics energy split.
func TestFlightRecorderEndpoints(t *testing.T) {
	tr := testTrace(t, 5)
	reg := obs.NewRegistry()
	cfg := testConfig(&decisionLog{})
	cfg.Metrics = reg
	cfg.FlightRecorder = 16
	cfg.Heartbeat = -1 // deterministic gauges for this test
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sh, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Shard("d1"); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Requests {
		if err := sh.IngestBatch(tr.Requests[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.FinishTo(tr.Duration); err != nil {
		t.Fatal(err)
	}

	st := srv.Status()
	if st.FlightDepth != 16 {
		t.Errorf("FlightDepth = %d, want 16", st.FlightDepth)
	}
	if len(st.Shards) != 2 || st.Shards[0].Disk != "d0" || st.Shards[1].Disk != "d1" {
		t.Fatalf("Shards = %+v, want d0,d1", st.Shards)
	}
	s0 := st.Shards[0]
	if s0.Periods < 10 || s0.FlightTotal != s0.Periods {
		t.Errorf("d0 periods=%d flight_total=%d, want equal and ≥10", s0.Periods, s0.FlightTotal)
	}
	if s0.Energy.TotalJ() <= 0 {
		t.Errorf("d0 cumulative energy = %+v, want positive total", s0.Energy)
	}
	if s0.DecideP99Ms < s0.DecideP50Ms || s0.DecideP50Ms <= 0 {
		t.Errorf("d0 decide quantiles p50=%g p99=%g", s0.DecideP50Ms, s0.DecideP99Ms)
	}
	if st.Shards[1].FlightTotal != 0 || st.Shards[1].Periods != 0 {
		t.Errorf("idle d1 = %+v, want zero periods", st.Shards[1])
	}
	if len(st.Counters) == 0 {
		t.Error("Status.Counters empty with a registry attached")
	}

	// The recorder's cumulative ledger must agree with the /metrics
	// energy gauges (only d0 closed periods).
	if got, want := reg.Gauge("serve.energy.total_j").Value(), s0.Energy.TotalJ(); math.Abs(got-want) > 1e-6*want {
		t.Errorf("serve.energy.total_j = %g, flight sum = %g", got, want)
	}
	memJ := reg.Gauge("serve.energy.mem_active_j").Value() +
		reg.Gauge("serve.energy.mem_nap_j").Value() +
		reg.Gauge("serve.energy.mem_transition_j").Value()
	diskJ := reg.Gauge("serve.energy.disk_active_j").Value() +
		reg.Gauge("serve.energy.disk_standby_j").Value() +
		reg.Gauge("serve.energy.disk_spin_j").Value()
	if total := reg.Gauge("serve.energy.total_j").Value(); math.Abs(memJ+diskJ-total) > 1e-6*total {
		t.Errorf("energy split mem %g + disk %g != total %g", memJ, diskJ, total)
	}

	// Status handler round-trips as JSON.
	rr := httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/status", nil))
	var stJSON Status
	if err := json.Unmarshal(rr.Body.Bytes(), &stJSON); err != nil {
		t.Fatalf("status JSON: %v", err)
	}
	if len(stJSON.Shards) != 2 || stJSON.Shards[0].Periods != s0.Periods {
		t.Errorf("status JSON shards = %+v", stJSON.Shards)
	}

	// Periods endpoint: all disks, then filtered and capped.
	get := func(url string) (*httptest.ResponseRecorder, PeriodsResponse) {
		rr := httptest.NewRecorder()
		srv.PeriodsHandler().ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		var pr PeriodsResponse
		if rr.Code == http.StatusOK {
			if err := json.Unmarshal(rr.Body.Bytes(), &pr); err != nil {
				t.Fatalf("%s: %v", url, err)
			}
		}
		return rr, pr
	}
	_, all := get("/debug/periods")
	if len(all.Disks) != 2 || all.FlightDepth != 16 {
		t.Fatalf("periods = %+v, want 2 disks depth 16", all)
	}
	retained := int(s0.Periods)
	if retained > 16 {
		retained = 16
	}
	d0 := all.Disks["d0"]
	if len(d0) != retained {
		t.Fatalf("d0 retained %d records, want %d", len(d0), retained)
	}
	for i := 1; i < len(d0); i++ {
		if d0[i].Period != d0[i-1].Period+1 {
			t.Fatalf("records not consecutive oldest-first: %d after %d", d0[i].Period, d0[i-1].Period)
		}
	}
	last := d0[len(d0)-1]
	if last.Period != s0.Periods {
		t.Errorf("newest record period %d, want %d", last.Period, s0.Periods)
	}
	if !last.Fallback && last.Energy.TotalJ() <= 0 {
		t.Errorf("newest record has empty ledger: %+v", last)
	}
	if len(all.Disks["d1"]) != 0 {
		t.Errorf("idle d1 retained %d records, want 0", len(all.Disks["d1"]))
	}

	_, one := get("/debug/periods?disk=d0&n=3")
	if len(one.Disks) != 1 || len(one.Disks["d0"]) != 3 {
		t.Fatalf("disk=d0&n=3 = %+v", one.Disks)
	}
	if got := one.Disks["d0"][2]; got.Period != last.Period {
		t.Errorf("n=3 newest period %d, want %d", got.Period, last.Period)
	}
	if rr, _ := get("/debug/periods?disk=nope"); rr.Code != http.StatusNotFound {
		t.Errorf("unknown disk status = %d, want 404", rr.Code)
	}
	if rr, _ := get("/debug/periods?n=-1"); rr.Code != http.StatusBadRequest {
		t.Errorf("bad n status = %d, want 400", rr.Code)
	}

	// SIGQUIT dump: one header per disk plus one JSON line per retained
	// record.
	var buf bytes.Buffer
	if err := srv.WriteFlightDump(&buf); err != nil {
		t.Fatal(err)
	}
	var headers, lines int
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "# flight disk=") {
			headers++
			continue
		}
		var rec flight.PeriodRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("dump line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if headers != 2 || lines != retained {
		t.Errorf("dump has %d headers / %d records, want 2 / %d", headers, lines, retained)
	}
}

// TestFlightDisabledSurfacesStayUsable: with FlightRecorder off the
// query surfaces still answer (empty rings, zero quantiles) instead of
// panicking on nil recorders.
func TestFlightDisabledSurfacesStayUsable(t *testing.T) {
	tr := testTrace(t, 6)
	cfg := testConfig(&decisionLog{})
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sh, err := srv.Shard("d0")
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Requests[:len(tr.Requests)/4] {
		if err := sh.IngestBatch(tr.Requests[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Status()
	if st.FlightDepth != 0 || len(st.Shards) != 1 {
		t.Fatalf("status = %+v", st)
	}
	if s0 := st.Shards[0]; s0.FlightTotal != 0 || s0.DecideP50Ms != 0 || s0.Energy.TotalJ() != 0 {
		t.Errorf("disabled-recorder shard status = %+v, want zero flight fields", s0)
	}
	rr := httptest.NewRecorder()
	srv.PeriodsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/periods", nil))
	var pr PeriodsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Disks["d0"]) != 0 {
		t.Errorf("disabled recorder returned %d records", len(pr.Disks["d0"]))
	}
	if err := srv.WriteFlightDump(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestFlightRecorderConcurrency exercises the query surfaces against a
// live ingest stream under the race detector: one writer per shard,
// readers hammering Status, /debug/periods, and the dump.
func TestFlightRecorderConcurrency(t *testing.T) {
	tr := testTrace(t, 7)
	reg := obs.NewRegistry()
	cfg := testConfig(&decisionLog{})
	cfg.Metrics = reg
	cfg.FlightRecorder = 8
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*Shard, 2)
	for i, name := range []string{"d0", "d1"} {
		if shards[i], err = srv.Shard(name); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var writers, readers sync.WaitGroup
	for _, sh := range shards {
		writers.Add(1)
		go func(sh *Shard) {
			defer writers.Done()
			for i := range tr.Requests {
				if err := sh.IngestBatch(tr.Requests[i : i+1]); err != nil {
					t.Error(err)
					return
				}
			}
		}(sh)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := srv.Status()
				for _, s := range st.Shards {
					if s.Energy.TotalJ() < 0 {
						t.Errorf("negative energy: %+v", s)
					}
				}
				rr := httptest.NewRecorder()
				srv.PeriodsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/periods?n=4", nil))
				if rr.Code != http.StatusOK {
					t.Errorf("periods status %d", rr.Code)
				}
				srv.ObserveLag(time.Millisecond)
				_ = srv.WriteFlightDump(&bytes.Buffer{})
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if tot := shards[0].Flight().Total(); tot < 10 {
		t.Errorf("d0 cut only %d flight records", tot)
	}
}

// TestHeartbeatKeepsGaugesFresh pins the paused-connection satellite:
// with a heartbeat ticker, serve.uptime_s and serve.stream_lag_s keep
// advancing while the stream is stalled (no Ingest, no ObserveLag).
func TestHeartbeatKeepsGaugesFresh(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(&decisionLog{})
	cfg.Metrics = reg
	cfg.Heartbeat = 5 * time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Shard("d0"); err != nil {
		t.Fatal(err)
	}

	// One lag observation, then the connection goes silent.
	srv.ObserveLag(250 * time.Millisecond)
	lag0 := reg.Gauge("serve.stream_lag_s").Value()
	if math.Abs(lag0-0.25) > 0.01 {
		t.Fatalf("initial lag gauge = %g, want ~0.25", lag0)
	}

	deadline := time.Now().Add(2 * time.Second)
	var up0, up1, lag1 float64
	up0 = reg.Gauge("serve.uptime_s").Value()
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		up1 = reg.Gauge("serve.uptime_s").Value()
		lag1 = reg.Gauge("serve.stream_lag_s").Value()
		if up1 > up0 && lag1 > lag0+0.01 {
			break
		}
	}
	if up1 <= up0 {
		t.Errorf("serve.uptime_s stale on idle stream: %g -> %g", up0, up1)
	}
	if lag1 <= lag0 {
		t.Errorf("serve.stream_lag_s stale on paused connection: %g -> %g", lag0, lag1)
	}
	// The extrapolated lag mirrors Status().
	if st := srv.Status(); st.StreamLagS < lag0 {
		t.Errorf("Status.StreamLagS = %g, want ≥ %g", st.StreamLagS, lag0)
	}

	// A fresh observation snaps the gauge back down.
	srv.ObserveLag(10 * time.Millisecond)
	if v := reg.Gauge("serve.stream_lag_s").Value(); math.Abs(v-0.01) > 0.005 {
		t.Errorf("lag gauge after new observation = %g, want ~0.01", v)
	}
}
