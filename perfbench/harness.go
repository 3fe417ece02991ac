package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// workers is the caller count and the server's pool size: one per CPU the
// Go runtime schedules on.
func workers() int { return runtime.GOMAXPROCS(0) }

// harness is one in-process serve.Server with the default Config, behind
// a loopback listener, and one keep-alive client connection per caller.
type harness struct {
	srv     *serve.Server
	hs      *http.Server
	base    string
	clients []*http.Client
	served  chan error
	closed  sync.Once
}

// startHarness brings up a server and opens one connection per caller.
func startHarness(callers int) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	srv := serve.New(serve.Config{})
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	for i := 0; i < callers; i++ {
		h.clients = append(h.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}})
		resp, err := h.clients[i].Get(h.base + "/healthz")
		if err != nil {
			h.close()
			return nil, fmt.Errorf("open caller connection: %w", err)
		}
		drain(resp)
	}
	return h, nil
}

// close shuts the HTTP server down, waits for its serve loop to exit, and
// releases the server's pool. Calls after the first do nothing.
func (h *harness) close() {
	h.closed.Do(func() {
		for _, c := range h.clients {
			c.CloseIdleConnections()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		h.hs.Shutdown(ctx) // an error means a connection outlived the timeout; the serve loop still exits
		<-h.served
		h.srv.Close()
	})
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// call sends one request over a caller's connection and returns the status
// and the full body.
func (h *harness) call(c *http.Client, q request) (int, []byte, error) {
	resp, err := c.Post(h.base+q.route, "application/json", bytes.NewReader(q.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// outcome is what a closed-loop pass over a sequence observed.
type outcome struct {
	lat    []time.Duration // per request, in sequence order
	bad    *failures
	bodies [][]byte      // kept only when asked for
	wall   time.Duration // first send to last reply
}

// failures records why requests failed, by sequence position. A correct
// run has none, so it is kept sparse. Safe for concurrent use.
type failures struct {
	mu  sync.Mutex
	why map[int]string
}

func newFailures() *failures { return &failures{why: map[int]string{}} }

// mark records why request i failed; the first reason given is kept.
func (f *failures) mark(i int, why string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.why[i]; !ok {
		f.why[i] = why
	}
}

func (f *failures) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.why)
}

// first returns the positions of up to k failed requests, ascending.
func (f *failures) first(k int) []int {
	f.mu.Lock()
	idx := make([]int, 0, len(f.why))
	for i := range f.why {
		idx = append(idx, i)
	}
	f.mu.Unlock()
	sort.Ints(idx)
	return idx[:min(k, len(idx))]
}

func (f *failures) reason(i int) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.why[i]
}

// drive runs seq as a closed loop: each caller sends the next unsent
// request as soon as its previous reply is read. check, when non-nil,
// judges each 200 body inline; keep retains bodies for a later oracle.
// rec, when non-nil, records one root span per request.
func (h *harness) drive(seq sequence, keep bool, check func(i int, body []byte) bool, rec *recorder) outcome {
	n := seq.len()
	o := outcome{lat: make([]time.Duration, n), bad: newFailures()}
	if keep {
		o.bodies = make([][]byte, n)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range h.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				code, body, err := h.call(c, seq.req(i))
				t1 := time.Now()
				o.lat[i] = t1.Sub(t0)
				if rec != nil {
					rec.root(i, "request", t0, t1)
				}
				switch {
				case err != nil:
					o.bad.mark(i, err.Error())
				case code != http.StatusOK:
					o.bad.mark(i, fmt.Sprintf("status %d: %s", code, body))
				case check != nil && !check(i, body):
					o.bad.mark(i, "body differs from the set-up oracle")
				}
				if keep {
					o.bodies[i] = body
				}
			}
		}(c)
	}
	wg.Wait()
	o.wall = time.Since(start)
	return o
}

// counters reads the named counters from the server's GET /metrics.
func (h *harness) counters(names ...string) (map[string]float64, error) {
	resp, err := h.clients[0].Get(h.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		for _, n := range names {
			if f[0] == n {
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %w", n, err)
				}
				out[n] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("metric %s missing from /metrics", n)
		}
	}
	return out, nil
}

// setup brings up a fresh harness and sends the workload's warm-up
// requests through it, returning the warm-up bodies for verification.
// A warm-up request that fails is an error: the run cannot start.
func setup(w workload) (*harness, [][]byte, error) {
	h, err := startHarness(workers())
	if err != nil {
		return nil, nil, err
	}
	warm := w.warmup()
	o := h.drive(plain(warm), true, nil, nil)
	for _, i := range o.bad.first(1) {
		h.close()
		return nil, nil, fmt.Errorf("warm-up request %s %s failed: %s", warm[i].route, warm[i].body, o.bad.reason(i))
	}
	return h, o.bodies, nil
}
