package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiments"
)

// handleStreamODE serves GET /v1/stream/ode: the trajectory of POST
// /v1/ode, but emitted incrementally as newline-delimited JSON so clients
// integrating long horizons see points as they are computed instead of one
// giant array at the end. Parameters arrive as query values (model, lambda,
// t, d, span, dt) because GET bodies are not a thing; the stream is
// computed per request and intentionally bypasses the result cache.
func (s *Server) handleStreamODE(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := experiments.ODESpec{Model: q.Get("model")}
	var err error
	numeric := func(name string, dst *float64) {
		if err != nil || !q.Has(name) {
			return
		}
		if *dst, err = strconv.ParseFloat(q.Get(name), 64); err != nil {
			err = errBadRequest("query parameter %s: %v", name, err)
		}
	}
	integer := func(name string, dst *int) {
		if err != nil || !q.Has(name) {
			return
		}
		if *dst, err = strconv.Atoi(q.Get(name)); err != nil {
			err = errBadRequest("query parameter %s: %v", name, err)
		}
	}
	numeric("lambda", &spec.Lambda)
	numeric("span", &spec.Span)
	numeric("dt", &spec.Dt)
	integer("t", &spec.T)
	integer("d", &spec.D)
	if err != nil {
		s.writeError(w, err)
		return
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		s.writeError(w, errBadRequest("%v", err))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ctx := r.Context()

	// A stream can legitimately outlive any whole-response WriteTimeout, so
	// the daemon exempts this route from one and instead re-arms a per-write
	// deadline: each write must make progress within StreamWriteTimeout or
	// the connection is cut. A live client streaming a long horizon is fine;
	// a stalled client cannot pin the handler forever. SetWriteDeadline
	// reaches the net.Conn through statusWriter.Unwrap; not every
	// ResponseWriter supports it (httptest recorders do not), so errors are
	// ignored and those writers simply stream without deadlines.
	rc := http.NewResponseController(w)
	armWrite := func() {
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
	}
	armWrite()

	const flushEvery = 64
	n := 0
	err = spec.Trajectory(func(p experiments.ODEPoint) bool {
		if ctx.Err() != nil {
			return false
		}
		if err := enc.Encode(p); err != nil {
			return false
		}
		n++
		if flusher != nil && n%flushEvery == 0 {
			armWrite()
			flusher.Flush()
		}
		return true
	})
	if err != nil {
		// Headers are gone; the best we can do is truncate the stream.
		s.log.Warn("stream aborted", "route", "/v1/stream/ode", "err", err)
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
}
