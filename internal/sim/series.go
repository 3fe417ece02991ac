package sim

import "repro/internal/eventq"

// Time-series measurement: Kurtz's theorem says the whole trajectory of the
// rescaled finite system converges to the ODE solution, not just its
// equilibrium. When Options.SeriesEvery > 0 the engine snapshots the mean
// load per processor (including in-flight tasks) on a fixed grid starting
// at t = 0, so a simulated transient — e.g. filling up from empty, or
// draining a static system — can be laid directly over the integrated
// differential equations.

// scheduleSeries arms the DES series chain: the initial state is recorded
// inline at t = 0 and the first event fires at SeriesEvery. (The hybrid
// engine arms its chain with an event at t = 0 instead; see
// hybridEngine.init.)
func (e *engine) scheduleSeries() {
	if e.o.SeriesEvery <= 0 {
		return
	}
	e.seriesTimes = append(e.seriesTimes, 0)
	e.seriesLoads = append(e.seriesLoads, float64(e.totalTasks)/float64(e.n))
	e.q.Push(eventq.Event{Time: e.o.SeriesEvery, Kind: evSeries})
}

// handleSeries records a snapshot of the mean load per simulated processor
// and re-arms the chain.
func (c *procCore) handleSeries() {
	c.seriesTimes = append(c.seriesTimes, c.now)
	c.seriesLoads = append(c.seriesLoads, float64(c.totalTasks)/float64(c.n))
	next := c.now + c.o.SeriesEvery
	if next <= c.o.Horizon {
		c.q.Push(eventq.Event{Time: next, Kind: evSeries})
	}
}

// AverageSeries element-wise averages the load series of a replication set,
// truncating to the shortest series; returns nil slices when none sampled.
func AverageSeries(results []Result) (times, loads []float64) {
	shortest := -1
	for _, r := range results {
		if r.SeriesTimes == nil {
			continue
		}
		if shortest < 0 || len(r.SeriesTimes) < shortest {
			shortest = len(r.SeriesTimes)
		}
	}
	if shortest <= 0 {
		return nil, nil
	}
	times = make([]float64, shortest)
	loads = make([]float64, shortest)
	n := 0
	for _, r := range results {
		if r.SeriesTimes == nil {
			continue
		}
		copy(times, r.SeriesTimes[:shortest])
		for i := 0; i < shortest; i++ {
			loads[i] += r.SeriesLoads[i]
		}
		n++
	}
	for i := range loads {
		loads[i] /= float64(n)
	}
	return times, loads
}
