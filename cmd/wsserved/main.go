// Command wsserved is the model-serving daemon: it exposes the
// repository's mean-field solvers and finite-n simulator over HTTP with
// result caching, request coalescing, and admission control (see
// internal/serve for the endpoint list and README "Serving" for curl
// examples).
//
// Usage:
//
//	wsserved -addr :8080
//	wsserved -addr :8080 -workers 4 -queue 32 -cache 1024 -deadline 30s -log json
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: /readyz flips to 503,
// in-flight requests drain (up to -drain), then the scheduler pool is
// released.
//
// Robustness knobs (see README "Operations"): -read-timeout/-write-timeout/
// -idle-timeout harden the HTTP server against slow clients; -breaker.*
// tunes the /v1/simulate circuit breaker; and the -chaos.* flags enable
// deterministic fault injection for self-tests (never set them in
// production — the zero values are fully inert).
//
// Cluster mode (see README "Cluster Operations"): -self and -peers attach
// the replica to a static peer group that gossips load, routes cached
// requests by consistent hash, and steals queued simulate replications
// from loaded peers:
//
//	wsserved -addr :8080 -self http://127.0.0.1:8080 \
//	  -peers http://127.0.0.1:8081,http://127.0.0.1:8082
//
// A replica that loses every peer degrades to standalone serving (visible
// on /readyz and the wsserved_cluster_standalone gauge) and keeps
// answering everything locally.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/serve"
)

func main() {
	os.Exit(run())
}

// run returns the process exit code instead of calling os.Exit so that
// deferred cleanups always execute and tests can drive it directly.
func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "scheduler pool workers (0 = GOMAXPROCS)")
	cache := flag.Int("cache", 512, "result-cache entries")
	queue := flag.Int("queue", 16, "simulate admission slots (excess requests get 429)")
	deadline := flag.Duration("deadline", 60*time.Second, "per-request simulate deadline")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	logFormat := flag.String("log", "text", "request log format: text, json, off")

	// HTTP server timeouts. WriteTimeout covers the whole handler in
	// net/http, so its default must exceed the simulate deadline or long
	// simulations would be cut mid-response; the streaming route instead
	// re-arms a per-write deadline (-stream-write-timeout) and is the reason
	// WriteTimeout cannot be tight.
	readTimeout := flag.Duration("read-timeout", 30*time.Second,
		"max time to read a request, header included (0 = none)")
	writeTimeout := flag.Duration("write-timeout", 90*time.Second,
		"max time from end of request header to end of response (0 = none); must exceed -deadline")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second,
		"max keep-alive idle time per connection (0 = none)")
	streamWriteTimeout := flag.Duration("stream-write-timeout", 10*time.Second,
		"per-write progress deadline on streaming responses")

	// Circuit breaker on /v1/simulate.
	brkThreshold := flag.Float64("breaker.threshold", 0.5,
		"failure rate over the window that opens the simulate breaker")
	brkWindow := flag.Int("breaker.window", 20, "simulate breaker sliding-window size")
	brkMinSamples := flag.Int("breaker.min-samples", 10,
		"outcomes required in the window before the breaker may open")
	brkCooldown := flag.Duration("breaker.cooldown", 5*time.Second,
		"open-state hold time before a half-open probe")

	// Cluster membership (off unless -peers is set; see README "Cluster
	// Operations").
	self := flag.String("self", "", "this replica's advertised base URL (required with -peers)")
	peers := flag.String("peers", "", "comma-separated peer base URLs (static membership)")
	gossip := flag.Duration("cluster.gossip", 500*time.Millisecond, "peer load-gossip interval")
	stealBatch := flag.Int("cluster.steal-batch", 4, "max replications leased per steal")
	leaseTTL := flag.Duration("cluster.lease-ttl", 10*time.Second,
		"steal-lease TTL; expired leases are reclaimed and re-run locally")
	hedge := flag.Duration("cluster.hedge", 75*time.Millisecond,
		"delay before hedging a steal probe to the second-best victim")
	rpcTimeout := flag.Duration("cluster.rpc-timeout", 2*time.Second, "per-RPC deadline for peer calls")
	retryBase := flag.Duration("cluster.retry.base", 50*time.Millisecond,
		"base delay of the jittered exponential completion-retry schedule")
	retryAttempts := flag.Int("cluster.retry.attempts", 3, "completion POST attempts before abandoning")

	// Deterministic fault injection (self-test only; inert at defaults).
	var cc chaos.Config
	flag.Uint64Var(&cc.Seed, "chaos.seed", 0, "chaos decision-stream seed")
	flag.Float64Var(&cc.PLatency, "chaos.p.latency", 0, "per-probe latency-fault probability")
	flag.Float64Var(&cc.PError, "chaos.p.error", 0, "per-probe error-fault probability")
	flag.Float64Var(&cc.PPanic, "chaos.p.panic", 0, "per-probe panic-fault probability")
	flag.Float64Var(&cc.PPerturb, "chaos.p.perturb", 0, "per-probe numeric-perturbation probability")
	flag.Float64Var(&cc.PPartition, "chaos.p.partition", 0, "per-RPC network-partition probability (cluster links)")
	flag.DurationVar(&cc.Latency, "chaos.latency", 5*time.Millisecond, "injected latency per fault")
	flag.Parse()

	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
		logger = slog.New(slog.DiscardHandler)
	default:
		fmt.Fprintf(os.Stderr, "wsserved: unknown log format %q\n", *logFormat)
		return 2
	}

	// The injector stays nil unless at least one probability is set, so the
	// default daemon carries zero chaos machinery on its hot paths.
	var inj *chaos.Injector
	if cc.Enabled() {
		inj = chaos.New(cc)
		logger.Warn("chaos injection enabled",
			"seed", cc.Seed,
			"p_latency", cc.PLatency, "p_error", cc.PError,
			"p_panic", cc.PPanic, "p_perturb", cc.PPerturb,
			"p_partition", cc.PPartition)
	}

	// In cluster mode the pool is created here and shared between the
	// server (local simulate traffic) and the node (stolen replications);
	// it outlives both and is closed last.
	var (
		pool *sched.Pool
		node *cluster.Node
	)
	if *peers != "" {
		if *self == "" {
			fmt.Fprintln(os.Stderr, "wsserved: -peers requires -self (this replica's advertised URL)")
			return 2
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		pool = sched.New(*workers)
		defer pool.Close()
		var err error
		node, err = cluster.New(cluster.Config{
			Self:           *self,
			Peers:          peerList,
			Pool:           pool,
			GossipInterval: *gossip,
			StealBatch:     *stealBatch,
			LeaseTTL:       *leaseTTL,
			HedgeDelay:     *hedge,
			RPCTimeout:     *rpcTimeout,
			Retry:          cluster.Backoff{Base: *retryBase, Attempts: *retryAttempts},
			Chaos:          inj,
			Logger:         logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsserved:", err)
			return 2
		}
		logger.Info("cluster membership configured", "self", *self, "peers", len(peerList))
	}

	srv := serve.New(serve.Config{
		Pool:               pool,
		Workers:            *workers,
		CacheEntries:       *cache,
		QueueDepth:         *queue,
		SimDeadline:        *deadline,
		StreamWriteTimeout: *streamWriteTimeout,
		Logger:             logger,
		Chaos:              inj,
		BreakerWindow:      *brkWindow,
		BreakerThreshold:   *brkThreshold,
		BreakerMinSamples:  *brkMinSamples,
		BreakerCooldown:    *brkCooldown,
		Cluster:            node,
	})
	defer srv.Close()
	if node != nil {
		defer node.Close() // LIFO: node stops before the server and pool go away
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsserved:", err)
		return 1
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	if *writeTimeout > 0 && *writeTimeout <= *deadline {
		logger.Warn("write-timeout does not exceed the simulate deadline; long simulations may be cut off",
			"write_timeout", writeTimeout.String(), "deadline", deadline.String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Info("serving", "addr", ln.Addr().String())
	if node != nil {
		node.Start() // after the listener, so peers' first polls can land
	}

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "wsserved:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: stop advertising readiness, then drain.
	logger.Info("shutting down", "drain", drain.String())
	srv.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "wsserved: shutdown:", err)
		return 1
	}
	logger.Info("drained")
	return 0
}
