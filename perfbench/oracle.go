package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/meanfield"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The oracle recomputes a response in-process from the request body and
// the repository's public entry points, rendered as the CLIs render it
// (cliutil.WriteJSON). The served bytes must match exactly: the CLI↔HTTP
// identity contract.

// solveTimes is what one in-process solve spent in each layer.
type solveTimes struct {
	ode    bool
	build  time.Duration // FixedPointSpec/ODESpec.BuildModel
	solve  time.Duration // SolveWith / Integrate (builds the model again inside)
	render time.Duration // cliutil.WriteJSON of the report
}

// expectSolve returns the bytes a /v1/fixedpoint or /v1/ode request must
// be answered with, and the time each layer took to produce them.
func expectSolve(q request) ([]byte, solveTimes, error) {
	var st solveTimes
	var report any
	switch q.route {
	case routeFixedPoint:
		var s experiments.FixedPointSpec
		if err := json.Unmarshal(q.body, &s); err != nil {
			return nil, st, err
		}
		t0 := time.Now()
		if _, err := s.BuildModel(); err != nil {
			return nil, st, err
		}
		t1 := time.Now()
		rep, _, err := s.SolveWith(meanfield.SolveOptions{})
		if err != nil {
			return nil, st, err
		}
		st.build, st.solve, report = t1.Sub(t0), time.Since(t1), rep
	case routeODE:
		var s experiments.ODESpec
		if err := json.Unmarshal(q.body, &s); err != nil {
			return nil, st, err
		}
		t0 := time.Now()
		if _, err := s.BuildModel(); err != nil {
			return nil, st, err
		}
		t1 := time.Now()
		rep, err := s.Integrate()
		if err != nil {
			return nil, st, err
		}
		st.ode, st.build, st.solve, report = true, t1.Sub(t0), time.Since(t1), rep
	default:
		return nil, st, fmt.Errorf("no solve oracle for route %s", q.route)
	}
	t0 := time.Now()
	var buf bytes.Buffer
	if err := cliutil.WriteJSON(&buf, report); err != nil {
		return nil, st, err
	}
	st.render = time.Since(t0)
	return buf.Bytes(), st, nil
}

// wallClock matches the one field of a simulation report that depends on
// the host, not the seed: the event-loop throughput summary.
var wallClock = regexp.MustCompile(`(?s)\n\s*"events_per_sec": \{[^}]*\},`)

// scrub drops the wall-clock field from a rendered simulation report.
func scrub(body []byte) []byte { return wallClock.ReplaceAll(body, nil) }

// expectSim returns the scrubbed bytes a /v1/simulate request must be
// answered with: SimSpec.Options → sim.Replication.Run → BuildSimReport.
func expectSim(q request) ([]byte, error) {
	var req serve.SimulateRequest
	if err := json.Unmarshal(q.body, &req); err != nil {
		return nil, err
	}
	spec := req.SimSpec
	opts, err := spec.Options()
	if err != nil {
		return nil, err
	}
	agg, err := sim.Replication{Reps: spec.Reps}.Run(opts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := cliutil.WriteJSON(&buf, experiments.BuildSimReport(&spec, agg)); err != nil {
		return nil, err
	}
	return scrub(buf.Bytes()), nil
}

// utilTolerance is how far a simulated cell's measured utilization may sit
// from its arrival rate λ (the busy fraction of a stable cell).
const utilTolerance = 0.03

// checkUtilizations marks bad every simulation body whose utilization is
// not within utilTolerance of its λ.
func checkUtilizations(o *outcome) {
	for i, body := range o.bodies {
		if err := checkUtilization(body); err != nil {
			o.bad.mark(i, err.Error())
		}
	}
}

// checkUtilization requires a simulation report's mean utilization to be
// within utilTolerance of its λ.
func checkUtilization(body []byte) error {
	var rep struct {
		Lambda  float64 `json:"lambda"`
		Metrics struct {
			Utilization struct {
				Mean float64 `json:"mean"`
			} `json:"utilization"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return err
	}
	if u := rep.Metrics.Utilization.Mean; math.Abs(u-rep.Lambda) > utilTolerance {
		return fmt.Errorf("utilization %.4f is not within %.2f of lambda %.2f", u, utilTolerance, rep.Lambda)
	}
	return nil
}

// sample returns a seeded, sorted choice of ⌈n/every⌉ indices of [0, n).
func sample(seed uint64, n, every int) []int {
	k := (n + every - 1) / every
	idx := newRand(seed, 5).Perm(n)[:k]
	sort.Ints(idx)
	return idx
}

// parallel calls fn(j) for j in [0, n) from one goroutine per worker and
// returns once every call has returned.
func parallel(n int, fn func(j int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= n {
					return
				}
				fn(j)
			}
		}()
	}
	wg.Wait()
}
