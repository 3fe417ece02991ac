// Package sim is a discrete-event simulator for finite-n work-stealing
// clusters, the experimental counterpart of package meanfield. It
// implements the paper's dynamic model — per-processor Poisson arrivals,
// FIFO service, steals taken from the tail of the victim's queue — and
// every stealing policy variant analyzed in the paper:
//
//   - no stealing (baseline)
//   - steal on emptying with a victim-load threshold T (§2.2, §2.3)
//   - preemptive stealing: begin at ≤ B tasks, victim ≥ thief + T (§2.4)
//   - repeated steal attempts at rate r while idle (§2.5)
//   - d victim choices per attempt, steal from the most loaded (§3.3)
//   - k tasks per steal (§3.4)
//   - pairwise rebalancing at rate r (§3.4)
//   - transfer times: stolen tasks arrive after an Exp(mean 1/r) delay (§3.2)
//   - heterogeneous processor classes (§3.5)
//   - static (draining) systems with optional internal spawning (§3.5)
//
// Service distributions come from package dist (exponential for the base
// model, deterministic for the constant-service experiments, and others).
// Simulations are deterministic given a seed, and replications run in
// parallel with independent derived random streams.
package sim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// PolicyKind selects the stealing discipline.
type PolicyKind int

const (
	// PolicyNone disables stealing entirely (M/M/1 baseline).
	PolicyNone PolicyKind = iota
	// PolicySteal enables steal-on-completion: a processor whose queue
	// drops to B or fewer tasks samples D victims and steals K tasks from
	// the most loaded one if its load is at least load+T (B = 0, D = 1,
	// K = 1 gives the paper's basic WS variants).
	PolicySteal
	// PolicyRebalance implements pairwise load balancing: each processor
	// initiates a rebalancing event at rate RebalanceRate, picking a
	// partner uniformly at random and splitting the combined load evenly.
	PolicyRebalance
)

// Options configures one simulation run. The zero value is not valid; use
// the fields documented below (N, Lambda or InitialLoad, Service, Horizon
// are required).
type Options struct {
	// Engine selects the simulation backend: EngineDES (the default,
	// exact event-by-event simulation of all N processors), EngineFluid
	// (mean-field ODE integration, the n → ∞ limit), or EngineHybrid
	// (a tracked DES sample coupled to the fluid bulk). The fluid and
	// hybrid engines support the subset of option combinations that has a
	// mean-field counterpart; Validate rejects the rest.
	Engine EngineKind
	// Tracked is the number of processors simulated event-by-event under
	// EngineHybrid (1 ≤ Tracked ≤ N; 0 picks min(256, N)). Sojourn, tail,
	// utilization, and steal measurements come from the tracked sample;
	// the remaining N−Tracked processors are represented by the fluid
	// state. Must be 0 for the other engines.
	Tracked int
	// N is the number of processors (≥ 2 when stealing is enabled).
	N int
	// Lambda is the external per-processor Poisson task arrival rate.
	// Zero gives a static (draining) system.
	Lambda float64
	// Arrivals, when non-nil, replaces the merged Poisson stream with a
	// custom system-wide arrival process (MMPP bursts, trace replay; see
	// package workload). Each arrival still lands on a uniformly random
	// processor. DES only; mutually exclusive with Lambda > 0 and Classes.
	Arrivals workload.ArrivalProcess
	// LambdaInt is the internal spawn rate: while a processor is busy it
	// generates new tasks at this additional rate (§3.5). Usually 0.
	LambdaInt float64
	// Service is the task service-time distribution (mean 1 in the paper).
	Service dist.Distribution
	// Policy selects the stealing discipline.
	Policy PolicyKind

	// T is the victim-load threshold: an empty thief steals only from a
	// victim with at least T tasks (≥ 2). Under preemptive stealing
	// (B > 0) a thief left with j tasks requires a victim with ≥ j + T.
	T int
	// B is the queue level at which steal attempts begin (0 = on empty).
	B int
	// D is the number of victims sampled per attempt (≥ 1); the most
	// loaded of the D is chosen.
	D int
	// K is the number of tasks taken per successful steal (≥ 1, and the
	// victim must hold at least T ≥ 2K tasks when K > 1).
	K int
	// Half, when true, makes a successful steal take ⌈j/2⌉ tasks from a
	// load-j victim (the classic steal-half heuristic, §3.4 family);
	// mutually exclusive with K > 1 and transfer delays.
	Half bool
	// RetryRate, when positive, makes empty processors repeat failed steal
	// attempts at this exponential rate (§2.5).
	RetryRate float64
	// TransferRate, when positive, makes stolen tasks spend an
	// exponentially distributed time with mean 1/TransferRate in flight;
	// a thief with a task in flight does not steal again (§3.2). Only
	// supported with K = 1.
	TransferRate float64
	// RebalanceRate is the per-processor rate of rebalancing events under
	// PolicyRebalance.
	RebalanceRate float64

	// Classes optionally splits processors into heterogeneous classes
	// (§3.5). When nil, all processors form one class with arrival rate
	// Lambda and service rate 1.
	Classes []Class

	// InitialLoad gives every processor this many tasks at time zero
	// (used by static runs; tasks get arrival time 0).
	InitialLoad int

	// Horizon is the total simulated time. Static runs stop early when
	// the system drains.
	Warmup  float64 // tasks arriving before Warmup are not measured
	Horizon float64

	// TailDepth, when positive, makes the run sample the empirical tail
	// vector s_0..s_{TailDepth−1} (fraction of processors with at least i
	// tasks) every (Horizon−Warmup)/1000 time units after warmup (every 1
	// when that is not positive), reported in Result.Tails — directly
	// comparable to the mean-field π_i.
	TailDepth int
	// SeriesEvery, when positive, records the mean load per processor on a
	// fixed grid from t = 0 (Result.SeriesTimes/SeriesLoads) so simulated
	// transients can be compared with integrated ODE trajectories.
	SeriesEvery float64
	// QueueHistDepth, when positive, samples a queue-length histogram on
	// the same post-warmup tick as the tail sampler (see TailDepth):
	// Result.Metrics.QueueHist[i] is the fraction of processors holding
	// exactly i tasks, with bucket QueueHistDepth−1 absorbing all longer
	// queues. Comparable to the mean-field occupancies π_i − π_{i+1}.
	QueueHistDepth int
	// SojournHistMax, when positive, histograms the sojourn times of
	// measured tasks over [0, SojournHistMax) with 1000 buckets, enabling
	// the P50/P95/P99 fields of Result. Pick a generous bound (e.g. 50×
	// the expected mean); overflow mass is assigned to the bound.
	SojournHistMax float64

	// Seed selects the random stream. Replication i derives stream
	// (Seed, i).
	Seed uint64

	// Stop, when non-nil, is polled by the event loop every few thousand
	// events; once it reads true the run abandons the remaining horizon and
	// returns a partial Result that callers must discard. This is the
	// serving layer's cooperative-cancellation plumbing (sched.Cell wires
	// it to the cell's cancel flag so an abandoned HTTP request stops
	// burning a worker mid-run). Batch runs leave it nil; a nil Stop costs
	// one pointer test per event and never perturbs the event sequence.
	Stop *atomic.Bool
}

// Class describes one heterogeneous processor class.
type Class struct {
	// Frac is the fraction of processors in this class; fractions must
	// sum to 1. The count is rounded, with the last class absorbing the
	// remainder.
	Frac float64
	// Lambda is the per-processor external arrival rate for the class.
	Lambda float64
	// Rate is the service-rate multiplier (service time = sample/Rate).
	Rate float64
}

// normalize fills defaulted fields (D and K under PolicySteal, Tracked
// under EngineHybrid).
func (o *Options) normalize() {
	if o.Policy == PolicySteal {
		if o.D == 0 {
			o.D = 1
		}
		if o.K == 0 {
			o.K = 1
		}
	}
	if o.Engine == EngineHybrid && o.Tracked == 0 {
		o.Tracked = DefaultTracked(o.N)
	}
}

// DefaultTracked is the hybrid engine's default sample size for n
// processors, min(256, n): large enough that tracked-sample noise
// (∝ 1/√Tracked) is a few percent, small enough that a million-processor
// run costs no more than a 256-processor DES.
func DefaultTracked(n int) int { return min(256, n) }

// measuredProcs returns the number of processors the Result's counters and
// per-processor metrics cover: the tracked sample under EngineHybrid, all
// N otherwise. Rate normalizations (throughput, utilization) must divide
// by this, not by N.
func (o *Options) measuredProcs() int {
	if o.Engine == EngineHybrid && o.Tracked > 0 {
		return o.Tracked
	}
	return o.N
}

// hasArrivals reports whether any task source exists.
func (o *Options) hasArrivals() bool {
	if o.Lambda > 0 || o.LambdaInt > 0 || o.InitialLoad > 0 || o.Arrivals != nil {
		return true
	}
	for _, c := range o.Classes {
		if c.Lambda > 0 {
			return true
		}
	}
	return false
}

// Validate checks the option combination and returns a descriptive error
// for unusable configurations.
func (o *Options) Validate() error {
	if o.N < 1 {
		return fmt.Errorf("sim: need N >= 1, got %d", o.N)
	}
	if o.Lambda < 0 || o.LambdaInt < 0 {
		return fmt.Errorf("sim: negative arrival rate")
	}
	if !o.hasArrivals() {
		return fmt.Errorf("sim: no arrivals and no initial load; nothing to simulate")
	}
	if o.Service == nil {
		return fmt.Errorf("sim: Service distribution is required")
	}
	if o.Horizon <= 0 {
		return fmt.Errorf("sim: need Horizon > 0")
	}
	if o.Warmup < 0 || o.Warmup >= o.Horizon {
		return fmt.Errorf("sim: Warmup must be in [0, Horizon)")
	}
	if o.TailDepth < 0 || o.QueueHistDepth < 0 {
		return fmt.Errorf("sim: negative sampling depth")
	}
	if o.Arrivals != nil {
		if o.Lambda > 0 {
			return fmt.Errorf("sim: Arrivals and Lambda are mutually exclusive (the arrival process owns the rate)")
		}
		if o.Classes != nil {
			return fmt.Errorf("sim: Arrivals does not combine with heterogeneous Classes")
		}
	}
	switch o.Policy {
	case PolicyNone:
	case PolicySteal:
		if o.N < 2 {
			return fmt.Errorf("sim: stealing needs N >= 2")
		}
		if o.T < 2 {
			return fmt.Errorf("sim: stealing needs T >= 2, got %d", o.T)
		}
		if o.B < 0 {
			return fmt.Errorf("sim: need B >= 0")
		}
		if o.D < 1 {
			return fmt.Errorf("sim: need D >= 1")
		}
		if o.K < 1 {
			return fmt.Errorf("sim: need K >= 1")
		}
		if o.K > 1 && o.T < 2*o.K {
			return fmt.Errorf("sim: multi-steal needs T >= 2K, got T=%d K=%d", o.T, o.K)
		}
		if o.Half && o.K > 1 {
			return fmt.Errorf("sim: Half and K > 1 are mutually exclusive")
		}
		if o.TransferRate > 0 && (o.K != 1 || o.Half) {
			return fmt.Errorf("sim: transfer delays support only single-task steals")
		}
		if o.RetryRate < 0 || o.TransferRate < 0 {
			return fmt.Errorf("sim: negative rate")
		}
	case PolicyRebalance:
		if o.N < 2 {
			return fmt.Errorf("sim: rebalancing needs N >= 2")
		}
		if o.RebalanceRate <= 0 {
			return fmt.Errorf("sim: rebalancing needs RebalanceRate > 0")
		}
	default:
		return fmt.Errorf("sim: unknown policy %d", o.Policy)
	}
	if o.Classes != nil {
		var sum float64
		for i, c := range o.Classes {
			if c.Frac <= 0 || c.Rate <= 0 || c.Lambda < 0 {
				return fmt.Errorf("sim: invalid class %d: %+v", i, c)
			}
			sum += c.Frac
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("sim: class fractions sum to %v, want 1", sum)
		}
	}
	return o.validateEngine()
}

// validateEngine checks the backend selection and its engine-specific
// constraints: the fluid and hybrid engines cover only the option
// combinations with a mean-field counterpart, and Tracked is meaningful
// only under the hybrid engine.
func (o *Options) validateEngine() error {
	switch o.Engine {
	case EngineDES:
		if o.Tracked != 0 {
			return fmt.Errorf("sim: Tracked applies only to the hybrid engine (engine %q, tracked %d)", o.Engine, o.Tracked)
		}
	case EngineFluid:
		if o.Tracked != 0 {
			return fmt.Errorf("sim: Tracked applies only to the hybrid engine (engine %q, tracked %d)", o.Engine, o.Tracked)
		}
		if _, err := fluidModel(o); err != nil {
			return err
		}
	case EngineHybrid:
		if o.Tracked < 1 || o.Tracked > o.N {
			return fmt.Errorf("sim: hybrid needs 1 <= Tracked <= N, got tracked %d with N %d", o.Tracked, o.N)
		}
		if err := o.validateHybrid(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("sim: unknown engine %d", int(o.Engine))
	}
	return nil
}

// Result reports the measurements of one simulation run.
type Result struct {
	// MeanSojourn is the average time in system over measured tasks
	// (those arriving after Warmup and completing before Horizon).
	MeanSojourn float64
	// Measured is the number of tasks contributing to MeanSojourn.
	Measured int64
	// MeanLoad is the time-averaged number of tasks per processor
	// (including tasks in flight) over [Warmup, end].
	MeanLoad float64
	// Tails is the time-averaged empirical tail vector (nil unless
	// Options.TailDepth was set): Tails[i] ≈ fraction of processors with
	// at least i tasks.
	Tails []float64
	// SeriesTimes and SeriesLoads hold the mean-load time series (nil
	// unless Options.SeriesEvery was set).
	SeriesTimes []float64
	SeriesLoads []float64
	// P50, P95 and P99 are sojourn-time quantiles over measured tasks
	// (NaN unless Options.SojournHistMax was set).
	P50, P95, P99 float64
	// DrainTime is the time the system first became empty (static runs);
	// negative if it never drained within the horizon.
	DrainTime float64
	// End is the simulated time at which the run stopped.
	End float64
	// Metrics holds the full observability layer of the run: event
	// counters by kind and cause, per-processor steal counts and busy-time
	// utilization, the sampled queue-length histogram (when
	// Options.QueueHistDepth is set), and event-loop throughput.
	Metrics metrics.Metrics
}
