package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"jointpm/internal/obs"
	"jointpm/internal/obs/flight"
)

// This file is the daemon's live query surface: a JSON status summary
// (one ShardStatus per disk — the per-shard feed the fleet coordinator
// will consume), the /debug/periods flight-recorder endpoint, and the
// SIGQUIT post-mortem dump. Everything reads through the shard locks
// and the recorders' own mutexes, so it is safe against concurrent
// ingest.

// ShardStatus is one disk's controller summary.
type ShardStatus struct {
	Disk     string    `json:"disk"`
	Periods  int64     `json:"periods"`
	Consumed int64     `json:"consumed"`
	Banks    int       `json:"banks"`
	TimeoutS obs.Float `json:"timeout_s"` // null: spin-down disabled
	// Fallbacks counts degraded decisions over the shard's lifetime.
	Fallbacks int64 `json:"fallbacks"`
	// RefsIngested counts page references served over the shard's
	// lifetime (Consumed counts coalesced requests; this counts pages).
	RefsIngested int64 `json:"refs_ingested"`
	// RingLen/RingCap gauge the shard's stream ring: how many decoded
	// requests sit between the connection's decoder and the drain. Both
	// zero when no stream is attached; a RingLen pinned near RingCap
	// means the shard (not the socket) is the pipeline bottleneck.
	RingLen int `json:"ring_len"`
	RingCap int `json:"ring_cap"`
	// Decide latency quantiles over the flight recorder's retained
	// window; zero when no recorder is attached.
	DecideP50Ms float64 `json:"decide_p50_ms"`
	DecideP99Ms float64 `json:"decide_p99_ms"`
	// FlightTotal counts period records ever cut (≥ the retained ring).
	FlightTotal int64 `json:"flight_total"`
	// Energy is the cumulative priced ledger over every closed period.
	Energy flight.Ledger `json:"energy"`
	// BudgetW and PowerW are the fleet power-cap columns: the shard's
	// current budget and the last decision's priced power. Both zero
	// (and omitted) when no coordinator is active, so uncapped status
	// payloads are byte-identical to pre-fleet builds.
	BudgetW float64 `json:"budget_w,omitempty"`
	PowerW  float64 `json:"power_w,omitempty"`
	// SpeedLevel is the DRPM ladder index the last decision chose (0:
	// full speed). Omitted on single-speed daemons, whose status payloads
	// stay byte-identical to pre-ladder builds.
	SpeedLevel int `json:"speed_level,omitempty"`
}

// Status is the daemon-wide summary served on /debug/status and
// rendered by jointpmctl.
type Status struct {
	UptimeS    float64 `json:"uptime_s"`
	StreamLagS float64 `json:"stream_lag_s"`
	// RefsIngested and RefsPerSec aggregate the ingest pipeline across
	// every shard: lifetime page references and their average rate over
	// the daemon's uptime — the fleet-level throughput gauge.
	RefsIngested int64   `json:"refs_ingested"`
	RefsPerSec   float64 `json:"refs_per_sec"`
	PeriodS      float64 `json:"period_s"`
	FlightDepth  int     `json:"flight_depth"` // 0: recorders disabled
	// SpeedLevels is the DRPM ladder size every shard prices against;
	// omitted (0) on single-speed daemons. jointpmctl keys its SPEED
	// column on it.
	SpeedLevels int            `json:"speed_levels,omitempty"`
	Shards      []ShardStatus  `json:"shards"`
	Counters    []obs.NamedInt `json:"counters,omitempty"`
}

// status snapshots one shard's summary.
func (sh *Shard) status() ShardStatus {
	sh.mu.Lock()
	last := sh.mgr.Last()
	st := ShardStatus{
		Disk:         sh.name,
		Periods:      sh.periodIdx,
		Consumed:     sh.consumed,
		Banks:        last.Banks,
		TimeoutS:     obs.Float(last.Timeout),
		Fallbacks:    sh.fallbacks,
		RefsIngested: sh.refsTotal,
	}
	if sh.srv.coord != nil {
		st.BudgetW = sh.budgetW
		st.PowerW = float64(last.Chosen.TotalPower)
	}
	if len(sh.srv.params.SpeedLevels) > 1 {
		st.SpeedLevel = last.Level
	}
	sh.mu.Unlock()
	if ring := sh.ring.Load(); ring != nil {
		st.RingLen, st.RingCap = ring.Occupancy()
	}
	if sh.rec != nil {
		st.DecideP50Ms = float64(sh.rec.DecideNsQuantile(0.50)) / 1e6
		st.DecideP99Ms = float64(sh.rec.DecideNsQuantile(0.99)) / 1e6
		st.FlightTotal = sh.rec.Total()
		st.Energy = sh.rec.Sum()
	}
	return st
}

// shardList snapshots the shards in creation order.
func (s *Server) shardList() []*Shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Shard, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.shards[name])
	}
	return out
}

// Status assembles the daemon-wide summary: per-shard controller state
// (sorted by disk name) plus every counter in the metrics registry
// (fault.*, core.*, serve.* — the fallback/fault column sources).
func (s *Server) Status() Status {
	st := Status{
		UptimeS:     time.Since(s.started).Seconds(),
		PeriodS:     float64(s.cfg.Period),
		FlightDepth: s.flightDepth,
		Shards:      []ShardStatus{},
	}
	if n := len(s.params.SpeedLevels); n > 1 {
		st.SpeedLevels = n
	}
	if at := s.lagAt.Load(); at != 0 {
		st.StreamLagS = (time.Duration(s.lagNs.Load()) + time.Since(time.Unix(0, at))).Seconds()
	}
	for _, sh := range s.shardList() {
		st.Shards = append(st.Shards, sh.status())
	}
	sort.Slice(st.Shards, func(i, j int) bool { return st.Shards[i].Disk < st.Shards[j].Disk })
	for _, sh := range st.Shards {
		st.RefsIngested += sh.RefsIngested
	}
	if st.UptimeS > 0 {
		st.RefsPerSec = float64(st.RefsIngested) / st.UptimeS
	}
	if s.cfg.Metrics != nil {
		st.Counters = s.cfg.Metrics.Snapshot().Counters
	}
	return st
}

// StatusHandler serves Status as JSON (mounted at /debug/status).
func (s *Server) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Status())
	})
}

// PeriodsResponse is the /debug/periods payload: the last n period
// records per requested disk, oldest first.
type PeriodsResponse struct {
	FlightDepth int                              `json:"flight_depth"`
	Disks       map[string][]flight.PeriodRecord `json:"disks"`
}

// PeriodsHandler serves the flight recorders as JSON (mounted at
// /debug/periods). Query parameters: disk=<name> restricts to one shard
// (404 on an unknown name), n=<K> caps the records returned per disk
// (0 or absent: the whole retained ring).
func (s *Server) PeriodsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		n := 0
		if v := q.Get("n"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed < 0 {
				http.Error(w, fmt.Sprintf("bad n=%q", v), http.StatusBadRequest)
				return
			}
			n = parsed
		}
		resp := PeriodsResponse{FlightDepth: s.flightDepth, Disks: map[string][]flight.PeriodRecord{}}
		shards := s.shardList()
		if name := q.Get("disk"); name != "" {
			var hit *Shard
			for _, sh := range shards {
				if sh.name == name {
					hit = sh
					break
				}
			}
			if hit == nil {
				http.Error(w, fmt.Sprintf("unknown disk %q", name), http.StatusNotFound)
				return
			}
			shards = []*Shard{hit}
		}
		for _, sh := range shards {
			recs := sh.rec.Last(n)
			if recs == nil {
				recs = []flight.PeriodRecord{}
			}
			resp.Disks[sh.name] = recs
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
}

// WriteFlightDump writes every shard's retained flight records as JSON
// lines with one "# flight" header line per disk — the SIGQUIT
// post-mortem format.
func (s *Server) WriteFlightDump(w io.Writer) error {
	for _, sh := range s.shardList() {
		if _, err := fmt.Fprintf(w, "# flight disk=%s depth=%d total=%d\n",
			sh.name, sh.rec.Depth(), sh.rec.Total()); err != nil {
			return err
		}
		if err := sh.rec.WriteDump(w); err != nil {
			return err
		}
	}
	return nil
}
