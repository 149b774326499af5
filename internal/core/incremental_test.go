package core

import (
	"math/rand"
	"reflect"
	"testing"

	"jointpm/internal/disk"
	"jointpm/internal/drpm"
	"jointpm/internal/lrusim"
	"jointpm/internal/mem"
	"jointpm/internal/simtime"
	"jointpm/internal/stats"
)

// shiftObservation rebases a generated period to start at t0 so one
// generator can feed a multi-period sequence with increasing bounds.
func shiftObservation(o Observation, t0 simtime.Seconds) Observation {
	span := o.PeriodEnd - o.PeriodStart
	log := make([]lrusim.DepthRecord, len(o.Log))
	for i, r := range o.Log {
		r.Time += t0 - o.PeriodStart
		log[i] = r
	}
	o.Log = log
	o.PeriodStart = t0
	o.PeriodEnd = t0 + span
	return o
}

// feedIncremental streams one period's log into the manager and strips
// the log from the returned observation, the way an incremental host
// hands over only the scalar calibration inputs.
func feedIncremental(m *Manager, o Observation) Observation {
	for i := range o.Log {
		m.Ingest(o.Log[i])
	}
	o.Log = nil
	return o
}

// TestDecideIncrementalMatchesBatch is the manager-level equivalence
// proof: a batch manager deciding from full period logs and an
// incremental twin ingesting the same records one at a time must produce
// bit-identical decisions period after period — including the carried
// state the next period's decision depends on (hysteresis reference,
// refill accounting, last decision). Exercised across parameter shapes
// that steer the kernel down different paths: zero aggregation window
// (zero-length gaps are emitted), raised MinBanks (shallow-event
// dropping), hysteresis on and off, and an empty period in the stream.
func TestDecideIncrementalMatchesBatch(t *testing.T) {
	shapes := []struct {
		name string
		mut  func(*Params)
	}{
		{"default", func(p *Params) {}},
		{"pure-optimiser", func(p *Params) { p.HysteresisFrac = -1 }},
		{"zero-window", func(p *Params) { p.Window = 0 }},
		{"min-banks-4", func(p *Params) { p.MinBanks = 4 }},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			p := testParams()
			p.HysteresisFrac = 0.05 // exercise carried-state coupling by default
			shape.mut(&p)
			batch, err := NewManager(p)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := NewManager(p)
			if err != nil {
				t.Fatal(err)
			}
			t0 := simtime.Seconds(0)
			for period := 0; period < 4; period++ {
				o := zipfObservation(p, 3000+500*period, 1<<14, int64(10*period+1))
				if period == 2 {
					o.Log = nil // an empty period mid-stream
					o.CacheAccesses = 0
				}
				o.CurrentBanks = batch.Last().Banks
				o = shiftObservation(o, t0)
				t0 = o.PeriodEnd

				want := batch.Decide(o)
				got := inc.DecideIncremental(feedIncremental(inc, o))
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s period %d: incremental decision diverges\nbatch: %+v\nincr:  %+v",
						shape.name, period, want, got)
				}
			}
		})
	}
	// The shapes above all reach past their 64 installed banks, so the
	// incremental profile and the histogram's Reset cover every bank.
	// This one reaches 5-20% of 8,192 banks, deep -> shallow -> deep, so
	// a Reset that leaves a reached bucket dirty, or a profile that
	// stops short of the deepest reference, diverges from batch.
	t.Run("boundary-geometry", func(t *testing.T) {
		p := boundaryParams()
		stream := lightStream(p, []int{1638, 410, 1638, 819, 410, 1638})
		batch, err := NewManager(p)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewManager(p)
		if err != nil {
			t.Fatal(err)
		}
		batch.SetPowerBudget(boundaryBudgetW)
		inc.SetPowerBudget(boundaryBudgetW)
		binding := false
		for period, o := range stream {
			o.CurrentBanks = batch.Last().Banks
			want := batch.Decide(o)
			io := feedIncremental(inc, o)
			installed := int64(p.TotalBanks) * p.bankPages()
			if d := inc.Hist().MaxDepth(); d*100 < installed*4 || d*100 > installed*21 {
				t.Fatalf("period %d reaches %d of %d pages, outside 4-21%%", period, d, installed)
			}
			got := inc.DecideIncremental(io)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("period %d: incremental decision diverges\nbatch: %+v\nincr:  %+v", period, want, got)
			}
			for _, c := range got.Candidates {
				binding = binding || (c.OverBudget && !got.OverBudget)
			}
		}
		if !binding {
			t.Fatal("the power budget never priced a candidate out of a decision that met it")
		}
	})
}

// boundaryBudgetW is a power budget that binds on lightStream at the
// boundaryParams geometry: the shallower periods meet it only by pricing
// their larger candidates out, and the deepest cannot meet it at all.
const boundaryBudgetW = 12

// boundaryParams is the per-shard geometry of a light, many-bank shard:
// 16 KB pages, 64 KB banks, 8,192 banks, 60 s periods and a four-level
// DRPM ladder. Memory power per MB is scaled up 256x so the small banks
// keep the paper's memory-to-disk power ratio.
func boundaryParams() Params {
	spec := mem.RDRAM(64 * simtime.KB)
	spec.NapPowerPerMB *= 256
	spec.DynamicPerMB *= 256
	p := DefaultParams(16*simtime.KB, 64*simtime.KB, 8192, disk.Barracuda(), spec)
	p.Period = 60
	lad := drpm.DeriveLevels(p.DiskSpec, 0, 4)
	p.SpeedLevels = lad.Levels
	p.SpeedTransitionPerRPM = lad.TransitionPerRPM
	return p
}

// lightStream is one light period per entry of reach, back to back: 4,096
// page references over p.Period, with same-time bursts, from one stack
// carried across the periods. Each period references a working set of
// that many banks, Zipf-distributed; the set is touched once, in a random
// order, just before the period starts, so it is exactly the top of the
// stack and the period's deepest reference reaches about its size. One
// reference in 16 is a cold miss on a page never seen before, so every
// candidate size sees disk traffic across the period.
func lightStream(p Params, reach []int) []Observation {
	rng := rand.New(rand.NewSource(int64(len(reach))))
	s := lrusim.NewStackSim(1 << 20)
	fresh := int64(1 << 40) // page ids past every working set
	var out []Observation
	t0 := simtime.Seconds(0)
	for i, banks := range reach {
		pages := int(int64(banks) * p.bankPages())
		z := stats.NewZipf(stats.NewRNG(int64(i)+100), pages, 0.9)
		perm := rng.Perm(pages)
		for _, pg := range perm {
			s.Reference(int64(pg))
		}
		const refs = 4096
		o := Observation{CacheAccesses: int64(refs), CoalesceFactor: 1.5,
			PeriodStart: t0, PeriodEnd: t0 + p.Period}
		tm := t0
		step := float64(p.Period) / float64(refs)
		for j := 0; j < refs; j++ {
			if rng.Intn(3) > 0 {
				tm += simtime.Seconds(rng.Float64() * 2 * step)
			}
			page := int64(perm[z.Next()])
			if rng.Intn(16) == 0 {
				page = fresh
				fresh++
			}
			o.Log = append(o.Log, lrusim.DepthRecord{Time: tm, Page: page, Depth: s.Reference(page), Bytes: p.PageSize})
		}
		t0 = o.PeriodEnd
		out = append(out, o)
	}
	return out
}

// TestDecideIncrementalSurvivesSnapshotCut replays the same stream with a
// snapshot/restore cut at a period boundary: the restored manager must
// continue exactly where the uninterrupted incremental run was, so its
// remaining decisions match the batch run bit for bit.
func TestDecideIncrementalSurvivesSnapshotCut(t *testing.T) {
	p := testParams()
	p.HysteresisFrac = 0.05
	batch, _ := NewManager(p)
	inc, _ := NewManager(p)

	t0 := simtime.Seconds(0)
	for period := 0; period < 5; period++ {
		o := zipfObservation(p, 2500, 1<<14, int64(period+21))
		o.CurrentBanks = batch.Last().Banks
		o = shiftObservation(o, t0)
		t0 = o.PeriodEnd

		want := batch.Decide(o)
		got := inc.DecideIncremental(feedIncremental(inc, o))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("period %d: diverged before the cut", period)
		}

		if period == 2 {
			// Warm-restart cut: serialise, rebuild, restore. Periods end
			// with the ingested state consumed, so the snapshot carries
			// everything the next period needs.
			st := inc.Snapshot()
			fresh, err := NewManager(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Restore(st); err != nil {
				t.Fatal(err)
			}
			inc = fresh
		}
	}
}

// TestDiscardPeriodMatchesWarmupSkip pins the warmup contract: periods
// discarded unexamined by the incremental host must leave the manager in
// the same state as a batch host that simply never handed those logs to
// Decide.
func TestDiscardPeriodMatchesWarmupSkip(t *testing.T) {
	p := testParams()
	batch, _ := NewManager(p)
	inc, _ := NewManager(p)

	warm := zipfObservation(p, 2000, 1<<14, 3)
	for i := range warm.Log {
		inc.Ingest(warm.Log[i])
	}
	inc.DiscardPeriod() // batch twin: the log is simply dropped

	o := zipfObservation(p, 3000, 1<<14, 4)
	o = shiftObservation(o, warm.PeriodEnd)
	want := batch.Decide(o)
	got := inc.DecideIncremental(feedIncremental(inc, o))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("post-warmup decision diverges\nbatch: %+v\nincr:  %+v", want, got)
	}
}
