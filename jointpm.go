// Package jointpm is a simulation library for joint power management of
// server memory (the disk cache) and a hard disk, reproducing Cai, Pettis
// and Lu, "Joint Power Management of Memory and Disk" (DATE 2005; TCAD
// Dec. 2006 extended version).
//
// The library contains the full evaluation stack of the paper:
//
//   - a SPECWeb99-style workload generator and the paper's trace
//     synthesizer (vary data-set size, data rate, popularity);
//   - a page-granularity disk-cache simulator with live resizing and
//     bank invalidation;
//   - bank-granularity RDRAM and Seagate Barracuda power models;
//   - the sixteen power-management methods the paper compares (timeout
//     and adaptive disk spin-down × fixed/power-down/disable memory,
//     the always-on baseline, and the joint method);
//   - the joint power manager itself: extended-LRU stack-distance
//     prediction of disk IO at candidate memory sizes, Pareto modelling
//     of disk idle intervals, the optimal timeout t_o = α·t_be, and the
//     performance-constrained energy minimisation;
//   - an experiment harness that regenerates every table and figure of
//     the paper's evaluation.
//
// # Quick start
//
//	tr, _ := jointpm.GenerateWorkload(jointpm.WorkloadConfig{
//		DataSetBytes: 16 * jointpm.GB,
//		PageSize:     64 * jointpm.KB,
//		Rate:         100 * float64(jointpm.MB),
//		Popularity:   0.1,
//		Duration:     2 * jointpm.Hour,
//	})
//	res, _ := jointpm.Run(jointpm.SimConfig{Trace: tr, Method: jointpm.JointMethod(128 * jointpm.GB)})
//	fmt.Println(res.TotalEnergy(), res.MeanLatency())
//
// See the examples directory for complete programs and cmd/jointpm for
// the table/figure reproduction CLI.
package jointpm

import (
	"io"

	"jointpm/internal/core"
	"jointpm/internal/disk"
	"jointpm/internal/drpm"
	"jointpm/internal/experiments"
	"jointpm/internal/lrusim"
	"jointpm/internal/mem"
	"jointpm/internal/multidisk"
	"jointpm/internal/pareto"
	"jointpm/internal/policy"
	"jointpm/internal/sim"
	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

// Scalar quantities used throughout the API.
type (
	// Seconds is simulated time, in seconds.
	Seconds = simtime.Seconds
	// Joules is energy.
	Joules = simtime.Joules
	// Watts is power.
	Watts = simtime.Watts
	// Bytes is a data size.
	Bytes = simtime.Bytes
)

// Common sizes and durations.
const (
	KB = simtime.KB
	MB = simtime.MB
	GB = simtime.GB

	Millisecond = simtime.Millisecond
	Minute      = simtime.Minute
	Hour        = simtime.Hour
)

// Workload generation and synthesis.
type (
	// Trace is a time-ordered disk-cache access trace.
	Trace = trace.Trace
	// Request is one client request within a Trace.
	Request = trace.Request
	// WorkloadConfig parameterises GenerateWorkload.
	WorkloadConfig = workload.Config
	// Synthesizer derives workload variants from a base trace.
	Synthesizer = workload.Synthesizer
)

// GenerateWorkload builds a SPECWeb99-style trace.
func GenerateWorkload(cfg WorkloadConfig) (*Trace, error) { return workload.Generate(cfg) }

// NewSynthesizer returns a deterministic trace synthesizer.
func NewSynthesizer(seed int64) *Synthesizer { return workload.NewSynthesizer(seed) }

// PopularityOf measures a trace's popularity per the paper's definition.
func PopularityOf(t *Trace) float64 { return workload.PopularityOf(t) }

// TraceStats summarises a workload's characteristics.
type TraceStats = workload.TraceStats

// AnalyzeTrace computes the workload summary for a trace.
func AnalyzeTrace(t *Trace) TraceStats { return workload.Analyze(t) }

// Rate-modulation profiles for time-varying load studies.
type (
	// Modulation shapes the request rate over time.
	Modulation = workload.Modulation
	// Diurnal is a day/night sine rate profile.
	Diurnal = workload.Diurnal
	// OnOff is a two-state burst profile.
	OnOff = workload.OnOff
)

// ModulateTrace reshapes a trace's arrivals to follow a rate profile.
func ModulateTrace(t *Trace, m Modulation) *Trace { return workload.Modulate(t, m) }

// MergeTraces consolidates several tenants' traces onto one server with
// disjoint file/page namespaces.
func MergeTraces(traces ...*Trace) (*Trace, error) { return workload.Merge(traces...) }

// WriteTrace/ReadTrace persist traces in the compact binary format.
func WriteTrace(w io.Writer, t *Trace) error { return trace.WriteBinary(w, t) }

// ReadTrace reads a trace written by WriteTrace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.ReadBinary(r) }

// Hardware models.
type (
	// DiskSpec is the drive's power and mechanical parameters.
	DiskSpec = disk.Spec
	// MemSpec is the memory's power parameters.
	MemSpec = mem.Spec
)

// Barracuda returns the paper's Seagate Barracuda disk parameters.
func Barracuda() DiskSpec { return disk.Barracuda() }

// ZonedDiskSpec is the location-aware drive model (zoned media rates and
// a seek-distance curve); set SimConfig.Zoned to use it.
type ZonedDiskSpec = disk.ZonedSpec

// BarracudaZoned returns the zoned Barracuda model.
func BarracudaZoned() ZonedDiskSpec { return disk.BarracudaZoned() }

// RDRAM returns the paper's 128-Mb RDRAM parameters for a bank size.
func RDRAM(bankSize Bytes) MemSpec { return mem.RDRAM(bankSize) }

// Methods (policy combinations).
type (
	// Method names one power-management configuration (e.g. 2TFM-8GB).
	Method = policy.Method
)

// JointMethod returns the paper's joint method over the installed memory.
func JointMethod(installed Bytes) Method { return policy.Joint(installed) }

// AlwaysOnMethod returns the normalisation baseline.
func AlwaysOnMethod(installed Bytes) Method { return policy.AlwaysOn(installed) }

// ComparisonMethods returns the paper's 16-method comparison set.
func ComparisonMethods(installed Bytes, fmSizes []Bytes) []Method {
	return policy.Comparison(installed, fmSizes)
}

// ParseMethod parses a method name such as "ADPD-128GB" or "JOINT".
func ParseMethod(name string) (Method, error) { return policy.ParseName(name) }

// Simulation.
type (
	// SimConfig describes one simulation run.
	SimConfig = sim.Config
	// SimResult is the outcome of a run.
	SimResult = sim.Result
	// PeriodStat is one adaptation period's metrics window.
	PeriodStat = sim.PeriodStat
	// JointParams tunes the joint manager (zero fields keep defaults).
	JointParams = core.Params
	// JointDecision is one period's sizing/timeout choice.
	JointDecision = core.Decision
	// Candidate is the joint manager's evaluation of one memory size.
	Candidate = core.Candidate
)

// Run executes a simulation.
func Run(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// Prediction building blocks (usable standalone).
type (
	// StackSim is the extended LRU list with O(log n) stack distances.
	StackSim = lrusim.StackSim
	// MissCurve aggregates stack depths into a miss curve.
	MissCurve = lrusim.MissCurve
	// ParetoDist is the idle-interval model of Section IV-C.
	ParetoDist = pareto.Dist
)

// ColdDepth is the stack depth reported for first-touch references.
const ColdDepth = lrusim.Cold

// NewStackSim returns an extended LRU list tracking maxPages pages.
func NewStackSim(maxPages int) *StackSim { return lrusim.NewStackSim(maxPages) }

// NewMissCurve returns a miss curve bucketed at bankPages granularity.
func NewMissCurve(bankPages int) *MissCurve { return lrusim.NewMissCurve(bankPages) }

// FitPareto estimates a Pareto distribution the way the paper's runtime
// does (β from the sample floor, α from the mean).
func FitPareto(sample []float64, betaFloor float64) (ParetoDist, error) {
	return pareto.FitMoments(sample, betaFloor)
}

// NewJointManager builds a standalone joint power manager; sim.Run wires
// one automatically for the JOINT method.
func NewJointManager(p JointParams) (*core.Manager, error) { return core.NewManager(p) }

// DiskPMPowerModel evaluates eq. (4) of the paper: the disk's static plus
// transition power under a fitted idle-interval distribution with ni
// intervals per period of length T seconds, at spin-down timeout to.
func DiskPMPowerModel(fit ParetoDist, ni int, to, T float64, spec DiskSpec) float64 {
	return core.DiskPMPowerModel(fit, ni, to, T, spec)
}

// DefaultJointParams returns the paper's Table II parameters for the
// given hardware shape.
func DefaultJointParams(pageSize, bankSize Bytes, totalBanks int, d DiskSpec, m MemSpec) JointParams {
	return core.DefaultParams(pageSize, bankSize, totalBanks, d, m)
}

// Multi-disk extension (the paper's future work, Section VI).
type (
	// ArrayConfig describes a multi-disk run.
	ArrayConfig = multidisk.Config
	// ArrayResult is a multi-disk run's outcome.
	ArrayResult = multidisk.Result
	// ArrayLayout selects the data layout across spindles.
	ArrayLayout = multidisk.Layout
	// ArrayMethod selects the per-spindle power management.
	ArrayMethod = multidisk.DiskMethod
)

// Array layouts and methods.
const (
	LayoutStriped = multidisk.Striped
	LayoutRanged  = multidisk.Ranged
	LayoutHotCold = multidisk.HotCold

	ArrayAlwaysOn       = multidisk.AlwaysOn
	ArrayTwoCompetitive = multidisk.TwoCompetitive
	ArrayJoint          = multidisk.Joint
	// ArrayPartitioned is the PB-LRU-style power-aware cache partitioning
	// comparator (Zhu et al., the paper's reference [36]).
	ArrayPartitioned = multidisk.Partitioned
)

// RunArray executes a multi-disk simulation.
func RunArray(cfg ArrayConfig) (*ArrayResult, error) { return multidisk.Run(cfg) }

// Multi-speed (DRPM-style) disk extension.
type (
	// DRPMConfig describes a dynamic-rotation-speed run.
	DRPMConfig = drpm.Config
	// DRPMResult is its outcome.
	DRPMResult = drpm.Result
	// DRPMSpec is a multi-speed drive model.
	DRPMSpec = drpm.Spec
)

// DRPM speed policies.
const (
	DRPMFullSpeed = drpm.FullSpeed
	DRPMAdaptive  = drpm.Adaptive
)

// DeriveDRPMLevels builds a multi-speed ladder from a single-speed drive.
func DeriveDRPMLevels(base DiskSpec, fullRPM, steps int) DRPMSpec {
	return drpm.DeriveLevels(base, fullRPM, steps)
}

// RunDRPM executes a multi-speed disk simulation.
func RunDRPM(cfg DRPMConfig) (*DRPMResult, error) { return drpm.Run(cfg) }

// Experiments (paper tables and figures).
type (
	// Experiment regenerates one table or figure.
	Experiment = experiments.Experiment
	// ExperimentScale fixes the dimensional preset.
	ExperimentScale = experiments.Scale
)

// PaperScale returns the full-dimension experiment preset.
func PaperScale(horizon Seconds) ExperimentScale { return experiments.PaperScale(horizon) }

// QuickScale returns the reduced preset used by benchmarks.
func QuickScale(horizon Seconds) ExperimentScale { return experiments.QuickScale(horizon) }

// ExperimentByID looks up a registered experiment (e.g. "fig7").
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// ExperimentIDs lists the registered experiment ids.
func ExperimentIDs() []string { return experiments.IDs() }
