package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Runner executes simulation runs while recycling engine state — the
// processor slice, per-processor task deques, the future event list, and
// the sampling buffers — between runs. A worker goroutine that owns a
// Runner performs roughly one engine allocation per backend kind for its
// whole lifetime instead of one per replication, and the steady-state
// event loop settles at zero allocations per event.
//
// A Runner is not safe for concurrent use; give each worker its own. The
// zero value is ready to use.
type Runner struct {
	backends [numEngines]backend
	src      rng.Source
}

// RunRep executes replication rep of o on the stream rng.DeriveSeed(o.Seed, rep),
// exactly as Replication.Run does for each of its replications. o must
// already be normalized and validated.
func (r *Runner) RunRep(o Options, rep int) Result {
	r.src.Reseed(rng.DeriveSeed(o.Seed, rep))
	return r.runStream(o)
}

// Run executes a single run of o on the stream rng.New(o.Seed) after
// normalizing and validating o; the package-level Run is a zero Runner's.
func (r *Runner) Run(o Options) (Result, error) {
	o.normalize()
	if err := o.Validate(); err != nil {
		return Result{}, err
	}
	r.src.Reseed(o.Seed)
	return r.runStream(o), nil
}

// runStream runs o on the Runner's current stream, reusing the backend of
// the selected engine kind across runs.
func (r *Runner) runStream(o Options) Result {
	b := r.backends[o.Engine]
	if b == nil {
		b = newBackend(o.Engine)
		r.backends[o.Engine] = b
	}
	b.init(o, &r.src)
	b.run()
	return b.result()
}

// Replication runs R independent replications of a configuration in
// parallel worker goroutines, each on its own derived random stream, and
// aggregates the results. This mirrors the paper's procedure of averaging
// 10 simulations per table cell.
//
// Replication parallelism is bounded by its own Workers field; to share one
// machine-wide worker pool across many cells and tables, use package sched
// instead.
type Replication struct {
	// Reps is the number of independent replications (≥ 1).
	Reps int
	// Workers bounds the parallel goroutines; 0 means GOMAXPROCS.
	Workers int
}

// Aggregate summarizes replications of one configuration.
type Aggregate struct {
	// Sojourn summarizes the per-replication mean sojourn times with a
	// 95% confidence interval.
	Sojourn stats.Summary
	// Load summarizes the per-replication mean loads.
	Load stats.Summary
	// Drain summarizes drain times (static runs only; N = 0 otherwise).
	Drain stats.Summary
	// Tails is the replication-averaged empirical tail vector (nil unless
	// Options.TailDepth was set).
	Tails []float64
	// Metrics summarizes the observability layer across replications:
	// utilization, steal rates and event-loop throughput with 95%
	// confidence intervals, mean counters, and the averaged queue-length
	// histogram.
	Metrics metrics.Summary
	// Results holds the individual replication results.
	Results []Result
	// Service and Arrivals are the built workload models' descriptions
	// ("Exp(rate=1)", "mmpp(2 phases)"); Arrivals is empty for the native
	// Poisson stream.
	Service, Arrivals string
}

// Validate normalizes o in place and checks that the replication set is
// runnable. It is the shared gate used by Run and by external runners such
// as package sched; after it returns nil, o can be handed directly to
// Runner.RunRep for each replication index.
func (rp Replication) Validate(o *Options) error {
	if rp.Reps < 1 {
		return fmt.Errorf("sim: need Reps >= 1, got %d", rp.Reps)
	}
	o.normalize()
	return o.Validate()
}

// Run executes the replications. Each replication i uses the random stream
// derived from (o.Seed, i), so results are reproducible regardless of
// worker count and scheduling.
func (rp Replication) Run(o Options) (Aggregate, error) {
	if err := rp.Validate(&o); err != nil {
		return Aggregate{}, err
	}
	workers := rp.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > rp.Reps {
		workers = rp.Reps
	}

	results := make([]Result, rp.Reps)
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r Runner
			for {
				i := int(next.Add(1)) - 1
				if i >= rp.Reps {
					return
				}
				results[i] = r.RunRep(o, i)
			}
		}()
	}
	wg.Wait()

	return AggregateResults(o, results), nil
}

// AggregateResults summarizes a completed replication set of o. Results
// must be indexed by replication (result i from stream rng.DeriveSeed(o.Seed, i))
// for the aggregate to match Replication.Run.
func AggregateResults(o Options, results []Result) Aggregate {
	agg := Aggregate{Results: results}
	if o.Service != nil {
		agg.Service = o.Service.String()
	}
	if o.Arrivals != nil {
		agg.Arrivals = o.Arrivals.Name()
	}
	var soj, load, drain []float64
	for _, r := range results {
		if r.Measured > 0 {
			soj = append(soj, r.MeanSojourn)
		}
		load = append(load, r.MeanLoad)
		if r.DrainTime >= 0 {
			drain = append(drain, r.DrainTime)
		}
	}
	agg.Sojourn = stats.Summarize(soj)
	agg.Load = stats.Summarize(load)
	agg.Drain = stats.Summarize(drain)
	agg.Tails = AverageTails(results)
	ms := make([]metrics.Metrics, len(results))
	for i, r := range results {
		ms[i] = r.Metrics
	}
	// Per-processor rates are normalized by the processors the counters
	// actually cover: the tracked sample under the hybrid engine, all N
	// otherwise.
	agg.Metrics = metrics.Summarize(ms, o.measuredProcs())
	return agg
}
