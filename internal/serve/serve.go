// Package serve is the daemon layer over the joint power manager: the
// long-running counterpart of the batch simulator. A Server hosts one
// controller Shard per disk, ingesting that disk's access stream
// incrementally (trace.Stream), closing adaptation periods as stream
// time crosses boundaries, and deciding (m, t_o) per period through one
// core.Manager per shard on a shared concurrency semaphore.
//
// The server checkpoints every shard's state — the manager's whole
// core.State (extended-LRU stack, open period, last decision, counters)
// and the shard's stream position and hit-model counters — to a
// versioned snapshot file (see snapshot.go) every SnapshotEvery periods
// and on graceful Close, so a restarted daemon resumes warm: its first
// post-restart decision is exactly what the uninterrupted run would have
// decided, instead of the cold all-banks/t_be default.
package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jointpm/internal/core"
	"jointpm/internal/disk"
	"jointpm/internal/drpm"
	"jointpm/internal/fault"
	"jointpm/internal/fleet"
	"jointpm/internal/mem"
	"jointpm/internal/obs"
	"jointpm/internal/simtime"
)

// Config parameterizes a Server.
type Config struct {
	PageSize     simtime.Bytes // default 64 KB
	BankSize     simtime.Bytes // default 16 MB
	InstalledMem simtime.Bytes // required
	Period       simtime.Seconds
	// WarmupPeriods holds the safe default for the first N periods
	// instead of deciding from cold-fill-dominated logs.
	WarmupPeriods int
	DiskSpec      disk.Spec // zero value means disk.Barracuda()
	MemSpec       mem.Spec  // zero value means mem.RDRAM(BankSize)
	// Joint overlays non-zero fields onto the derived core.DefaultParams.
	Joint *core.Params

	// SpeedLevels, when ≥ 2, derives a DRPM speed ladder of that many
	// levels from DiskSpec and prices every candidate at every level, so
	// decisions carry a speed level alongside (m, t_o). 0 or 1 leaves the
	// slate single-speed and bit-identical to a build without the ladder.
	SpeedLevels int

	// Decide is deprecated and ignored: every shard runs its requests
	// through core.Manager.Reference as it serves them and closes a
	// period with core.Manager.Close.
	Decide core.DecideMode

	// RefitDriftFrac, when positive, activates the steady-state refit
	// shortcut: a period whose re-priced previous decision drifts no more
	// than this fraction in total power is held without a full slate
	// search (core.DefaultRefitDriftFrac is the recommended value). Zero
	// — the default — re-evaluates the full slate every period. The
	// running value is checkpointed, so a warm restart keeps the mode the
	// snapshot was cut with.
	RefitDriftFrac float64

	// PowerCapW, when finite and positive, activates the fleet
	// coordinator: a global power cap split FastCap-style into per-shard
	// budgets every FleetEpoch periods, pushed into each shard's manager
	// as an extra constraint on the candidate slate. Zero, negative, or
	// +Inf leaves every shard uncapped — decisions are then byte-identical
	// to a build without the coordinator.
	PowerCapW float64
	// FleetEpoch is how many periods a shard closes between reallocation
	// epochs (default 1: every boundary re-solves). The cadence is keyed
	// to the shard's snapshotted period index, so it survives a warm
	// restart.
	FleetEpoch int64

	// SnapshotPath enables checkpointing; empty disables it.
	SnapshotPath string
	// SnapshotEvery writes a checkpoint whenever any shard has closed a
	// multiple of this many periods (0: only on Close).
	SnapshotEvery int64

	// Workers bounds concurrent Decide calls across shards
	// (default GOMAXPROCS).
	Workers int

	Metrics       *obs.Registry
	DecisionTrace *obs.DecisionSink
	Injector      *fault.Injector

	// FlightRecorder enables a per-shard flight recorder holding the
	// last N closed-period lifecycle records (spans + energy ledger),
	// queryable through Status, PeriodsHandler, and WriteFlightDump.
	// Zero or negative disables recording entirely.
	FlightRecorder int

	// Heartbeat is how often the server refreshes serve.uptime_s and
	// serve.stream_lag_s while no records arrive, so an idle or stalled
	// stream cannot leave them stale. Zero means 1s when Metrics is set;
	// negative disables the ticker.
	Heartbeat time.Duration

	// OnDecision, when set, receives every published decision. Called
	// from shard goroutines; must be safe for concurrent use.
	OnDecision func(Decision)
}

func (c Config) withDefaults() (Config, error) {
	if c.PageSize == 0 {
		c.PageSize = 64 * simtime.KB
	}
	if c.BankSize == 0 {
		c.BankSize = 16 * simtime.MB
	}
	if c.InstalledMem <= 0 {
		return c, errors.New("serve: config needs InstalledMem")
	}
	if c.InstalledMem%c.BankSize != 0 {
		return c, fmt.Errorf("serve: installed memory %v not a whole number of %v banks", c.InstalledMem, c.BankSize)
	}
	if c.Period <= 0 {
		c.Period = 600
	}
	if c.WarmupPeriods < 0 {
		return c, fmt.Errorf("serve: negative warmup periods %d", c.WarmupPeriods)
	}
	if c.DiskSpec == (disk.Spec{}) {
		c.DiskSpec = disk.Barracuda()
	}
	if c.MemSpec == (mem.Spec{}) {
		c.MemSpec = mem.RDRAM(c.BankSize)
	}
	if c.SnapshotEvery < 0 {
		return c, fmt.Errorf("serve: negative snapshot interval %d", c.SnapshotEvery)
	}
	if c.FleetEpoch < 0 {
		return c, fmt.Errorf("serve: negative fleet epoch %d", c.FleetEpoch)
	}
	if c.FleetEpoch == 0 {
		c.FleetEpoch = 1
	}
	if math.IsNaN(c.PowerCapW) {
		return c, errors.New("serve: power cap is NaN")
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c, nil
}

// Server hosts the per-disk shards and owns the checkpoint lifecycle.
type Server struct {
	cfg         Config
	params      core.Params
	sem         chan struct{}
	met         serveMetrics
	started     time.Time
	flightDepth int // >0: per-shard flight recorders of this depth

	// coord is the fleet power-cap coordinator; nil when PowerCapW leaves
	// the server uncapped. fleetMu serialises reallocation epochs (any
	// shard's ingest goroutine can trigger one).
	coord   *fleet.Coordinator
	floorW  float64 // per-shard fairness floor the coordinator solves with
	fleetMu sync.Mutex

	// Stream-lag extrapolation state for the heartbeat: the last
	// observed lag and the wall time it was observed at (UnixNano, 0
	// until the first ObserveLag). While no records arrive, the true lag
	// keeps growing by exactly the wall time elapsed since.
	lagNs atomic.Int64
	lagAt atomic.Int64

	hbStop chan struct{}
	hbWG   sync.WaitGroup

	mu     sync.Mutex
	shards map[string]*Shard
	order  []string // shard creation order, for stable snapshots
	closed bool
}

// New validates cfg and returns an empty server. If cfg.SnapshotPath
// names an existing snapshot, the caller should Restore before
// ingesting.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	totalBanks := int(cfg.InstalledMem / cfg.BankSize)
	p := core.DefaultParams(cfg.PageSize, cfg.BankSize, totalBanks, cfg.DiskSpec, cfg.MemSpec)
	p.Period = cfg.Period
	if cfg.SpeedLevels > 1 {
		lad := drpm.DeriveLevels(cfg.DiskSpec, 0, cfg.SpeedLevels)
		p.SpeedLevels = lad.Levels
		p.SpeedTransitionPerRPM = lad.TransitionPerRPM
	}
	if cfg.Joint != nil {
		p = core.MergeParams(p, *cfg.Joint)
	}
	if cfg.RefitDriftFrac > 0 {
		p.RefitDriftFrac = cfg.RefitDriftFrac
	}
	if cfg.Metrics != nil {
		p.Metrics = cfg.Metrics
	}
	if cfg.DecisionTrace != nil {
		p.DecisionTrace = cfg.DecisionTrace
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		params:  p,
		sem:     make(chan struct{}, cfg.Workers),
		met:     newServeMetrics(cfg.Metrics),
		started: time.Now(),
		shards:  make(map[string]*Shard),
	}
	if cfg.FlightRecorder > 0 {
		s.flightDepth = cfg.FlightRecorder
	}
	if cfg.PowerCapW > 0 && !math.IsInf(cfg.PowerCapW, 1) {
		// Fairness floor: the shard's safe default configuration — every
		// bank napping plus the disk's static draw at the 2-competitive
		// t_be. No shard is budgeted below it while another holds slack.
		s.floorW = float64(cfg.MemSpec.NapPower())*float64(totalBanks) +
			float64(cfg.DiskSpec.StaticPower())
		s.coord = fleet.NewCoordinator(cfg.PowerCapW, s.floorW)
	}
	s.startHeartbeat()
	return s, nil
}

// startHeartbeat keeps the liveness gauges fresh on an idle stream.
func (s *Server) startHeartbeat() {
	if s.cfg.Metrics == nil || s.cfg.Heartbeat < 0 {
		return
	}
	every := s.cfg.Heartbeat
	if every == 0 {
		every = time.Second
	}
	s.hbStop = make(chan struct{})
	s.hbWG.Add(1)
	go func() {
		defer s.hbWG.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.hbStop:
				return
			case <-t.C:
				s.heartbeat()
			}
		}
	}()
}

// heartbeat refreshes serve.uptime_s and serve.stream_lag_s from wall
// time: uptime always advances, and the stream lag grows by the wall
// time elapsed since the newest ingested request was observed.
func (s *Server) heartbeat() {
	s.met.uptime.Set(time.Since(s.started).Seconds())
	if at := s.lagAt.Load(); at != 0 {
		lag := time.Duration(s.lagNs.Load()) + time.Since(time.Unix(0, at))
		s.met.streamLag.Set(lag.Seconds())
	}
}

// Params returns the manager parameters every shard runs with.
func (s *Server) Params() core.Params { return s.params }

// Shard returns the controller for the named disk, creating it on first
// use.
func (s *Server) Shard(name string) (*Shard, error) {
	if name == "" {
		return nil, errors.New("serve: empty disk name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("serve: server closed")
	}
	if sh, ok := s.shards[name]; ok {
		return sh, nil
	}
	sh, err := newShard(name, s)
	if err != nil {
		return nil, err
	}
	s.shards[name] = sh
	s.order = append(s.order, name)
	s.met.shards.Set(float64(len(s.shards)))
	return sh, nil
}

func (s *Server) acquire() { s.sem <- struct{}{} }
func (s *Server) release() { <-s.sem }

// publish fans a decision out to telemetry and the configured callback.
// Called with the closing shard's lock held, so the callback must not
// call back into the server. The snapshot cadence is handled by the
// shard after it releases its lock (see Shard.ckptDue).
func (s *Server) publish(d Decision) {
	s.met.decisions.Inc()
	s.met.periodsClosed.Inc()
	s.met.lastBanks.Set(float64(d.Decision.Banks))
	s.met.uptime.Set(time.Since(s.started).Seconds())
	if cb := s.cfg.OnDecision; cb != nil {
		cb(d)
	}
}

// cadenceCheckpoint writes the periodic checkpoint, folding failures
// into the error counter: a daemon keeps serving when a checkpoint
// write fails, it just can't resume as warm.
func (s *Server) cadenceCheckpoint() {
	if err := s.Checkpoint(); err != nil {
		s.met.checkpointErrors.Inc()
	}
}

// ObserveLag publishes how far behind real time the newest ingested
// request is; the daemon calls it per accepted request batch. The
// observation also re-bases the heartbeat's extrapolation, so the gauge
// keeps growing truthfully if the stream then stalls.
func (s *Server) ObserveLag(lag time.Duration) {
	s.met.streamLag.Set(lag.Seconds())
	s.lagNs.Store(int64(lag))
	s.lagAt.Store(time.Now().UnixNano())
}

// Checkpoint atomically writes a snapshot of every shard to
// cfg.SnapshotPath. No-op (nil) when checkpointing is disabled.
func (s *Server) Checkpoint() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	st := s.snapshotState()
	n, err := writeSnapshotFile(s.cfg.SnapshotPath, st)
	if err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	s.met.checkpoints.Inc()
	s.met.checkpointBytes.Set(float64(n))
	return nil
}

// snapshotState collects every shard's state in creation order. Each
// shard is locked individually, so a snapshot lands on request
// boundaries without stalling the whole server behind one lock.
func (s *Server) snapshotState() []shardState {
	s.mu.Lock()
	order := append([]string(nil), s.order...)
	shards := make([]*Shard, 0, len(order))
	for _, name := range order {
		shards = append(shards, s.shards[name])
	}
	s.mu.Unlock()
	out := make([]shardState, 0, len(shards))
	for _, sh := range shards {
		sh.mu.Lock()
		out = append(out, sh.state())
		sh.mu.Unlock()
	}
	return out
}

// Restore loads cfg.SnapshotPath and rebuilds every checkpointed shard.
// Returns the restored shard names (empty when the file does not
// exist — a cold start, not an error). It is all or nothing: every
// shard of the file is restored before any is installed, so an error
// leaves the server as it was, ready for a cold start.
func (s *Server) Restore() ([]string, error) {
	if s.cfg.SnapshotPath == "" {
		return nil, nil
	}
	states, err := readSnapshotFile(s.cfg.SnapshotPath)
	if err != nil {
		if errors.Is(err, errNoSnapshot) {
			return nil, nil
		}
		return nil, fmt.Errorf("serve: restore: %w", err)
	}
	return s.restore(states)
}

// restore restores every decoded shard state, then installs them all.
func (s *Server) restore(states []shardState) ([]string, error) {
	mgrs := make([]*core.Manager, len(states))
	for i := range states {
		st := &states[i]
		s.mu.Lock()
		sh := s.shards[st.Name]
		s.mu.Unlock()
		if sh != nil && sh.Consumed() != 0 {
			return nil, fmt.Errorf("serve: restore: shard %s already ingesting", st.Name)
		}
		var err error
		if mgrs[i], err = s.restoreManager(st); err != nil {
			return nil, err
		}
	}
	names := make([]string, len(states))
	for i := range states {
		sh, err := s.Shard(states[i].Name)
		if err != nil {
			return nil, err
		}
		sh.install(&states[i], mgrs[i])
		names[i] = states[i].Name
	}
	s.met.restores.Inc()
	return names, nil
}

// Close stops the heartbeat, takes a final checkpoint, and marks the
// server closed. Safe to call once; the caller owns flushing any
// decision sink it attached.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.hbStop != nil {
		close(s.hbStop)
		s.hbWG.Wait()
	}
	return s.Checkpoint()
}
