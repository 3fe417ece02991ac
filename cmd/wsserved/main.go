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

	"repro/internal/breaker"
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
	// The flags fill the serve, cluster and chaos configs directly; their
	// defaults are the ones those packages apply to a zero config.
	sc := serve.Config{}.WithDefaults()
	addr := flag.String("addr", ":8080", "listen address")
	flag.IntVar(&sc.Workers, "workers", sc.Workers, "scheduler pool workers (0 = GOMAXPROCS)")
	flag.IntVar(&sc.CacheEntries, "cache", sc.CacheEntries, "result-cache entries")
	flag.IntVar(&sc.QueueDepth, "queue", sc.QueueDepth, "simulate admission slots (excess requests get 429)")
	flag.DurationVar(&sc.SimDeadline, "deadline", sc.SimDeadline, "per-request simulate deadline")
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
	flag.DurationVar(&sc.StreamWriteTimeout, "stream-write-timeout", sc.StreamWriteTimeout,
		"per-write progress deadline on streaming responses")

	// Circuit breaker on /v1/simulate.
	bc := breaker.Config{}.WithDefaults()
	flag.Float64Var(&sc.BreakerThreshold, "breaker.threshold", bc.Threshold,
		"failure rate over the window that opens the simulate breaker")
	flag.IntVar(&sc.BreakerWindow, "breaker.window", bc.Window, "simulate breaker sliding-window size")
	flag.IntVar(&sc.BreakerMinSamples, "breaker.min-samples", bc.MinSamples,
		"outcomes required in the window before the breaker may open")
	flag.DurationVar(&sc.BreakerCooldown, "breaker.cooldown", bc.Cooldown,
		"open-state hold time before a half-open probe")

	// Cluster membership (off unless -peers is set; see README "Cluster
	// Operations").
	cc := cluster.Config{}.WithDefaults()
	flag.StringVar(&cc.Self, "self", cc.Self, "this replica's advertised base URL (required with -peers)")
	peers := flag.String("peers", "", "comma-separated peer base URLs (static membership)")
	flag.DurationVar(&cc.GossipInterval, "cluster.gossip", cc.GossipInterval, "peer load-gossip interval")
	flag.IntVar(&cc.StealBatch, "cluster.steal-batch", cc.StealBatch, "max replications leased per steal")
	flag.DurationVar(&cc.LeaseTTL, "cluster.lease-ttl", cc.LeaseTTL,
		"steal-lease TTL; expired leases are reclaimed and re-run locally")
	flag.DurationVar(&cc.HedgeDelay, "cluster.hedge", cc.HedgeDelay,
		"delay before hedging a steal probe to the second-best victim")
	flag.DurationVar(&cc.RPCTimeout, "cluster.rpc-timeout", cc.RPCTimeout, "per-RPC deadline for peer calls")
	flag.DurationVar(&cc.Retry.Base, "cluster.retry.base", cc.Retry.Base,
		"base delay of the jittered exponential completion-retry schedule")
	flag.IntVar(&cc.Retry.Attempts, "cluster.retry.attempts", cc.Retry.Attempts,
		"completion POST attempts before abandoning")

	// Deterministic fault injection (self-test only; inert at defaults).
	chc := chaos.Config{}.WithDefaults()
	flag.Uint64Var(&chc.Seed, "chaos.seed", chc.Seed, "chaos decision-stream seed")
	flag.Float64Var(&chc.PLatency, "chaos.p.latency", chc.PLatency, "per-probe latency-fault probability")
	flag.Float64Var(&chc.PError, "chaos.p.error", chc.PError, "per-probe error-fault probability")
	flag.Float64Var(&chc.PPanic, "chaos.p.panic", chc.PPanic, "per-probe panic-fault probability")
	flag.Float64Var(&chc.PPerturb, "chaos.p.perturb", chc.PPerturb, "per-probe numeric-perturbation probability")
	flag.Float64Var(&chc.PPartition, "chaos.p.partition", chc.PPartition,
		"per-RPC network-partition probability (cluster links)")
	flag.DurationVar(&chc.Latency, "chaos.latency", chc.Latency, "injected latency per fault")
	flag.Parse()

	// A bad setting is a one-line usage error, not a panic at startup.
	if err := chc.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "wsserved:", err)
		return 2
	}
	for _, name := range []string{"queue", "cache", "deadline", "stream-write-timeout", "drain"} {
		if strings.HasPrefix(flag.Lookup(name).Value.String(), "-") {
			fmt.Fprintf(os.Stderr, "wsserved: -%s must not be negative\n", name)
			return 2
		}
	}

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
	sc.Logger = logger

	// The injector stays nil unless at least one probability is set, so the
	// default daemon carries zero chaos machinery on its hot paths.
	if chc.Enabled() {
		sc.Chaos = chaos.New(chc)
		logger.Warn("chaos injection enabled",
			"seed", chc.Seed,
			"p_latency", chc.PLatency, "p_error", chc.PError,
			"p_panic", chc.PPanic, "p_perturb", chc.PPerturb,
			"p_partition", chc.PPartition)
	}

	// In cluster mode the pool is created here and shared between the
	// server (local simulate traffic) and the node (stolen replications);
	// it outlives both and is closed last.
	if *peers != "" {
		if cc.Self == "" {
			fmt.Fprintln(os.Stderr, "wsserved: -peers requires -self (this replica's advertised URL)")
			return 2
		}
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cc.Peers = append(cc.Peers, p)
			}
		}
		sc.Pool = sched.New(sc.Workers)
		defer sc.Pool.Close()
		cc.Pool, cc.Chaos, cc.Logger = sc.Pool, sc.Chaos, logger
		var err error
		sc.Cluster, err = cluster.New(cc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wsserved:", err)
			return 2
		}
		logger.Info("cluster membership configured", "self", cc.Self, "peers", len(cc.Peers))
	}

	srv := serve.New(sc)
	defer srv.Close()
	if sc.Cluster != nil {
		defer sc.Cluster.Close() // LIFO: node stops before the server and pool go away
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
	if *writeTimeout > 0 && *writeTimeout <= sc.SimDeadline {
		logger.Warn("write-timeout does not exceed the simulate deadline; long simulations may be cut off",
			"write_timeout", writeTimeout.String(), "deadline", sc.SimDeadline.String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Info("serving", "addr", ln.Addr().String())
	if sc.Cluster != nil {
		sc.Cluster.Start() // after the listener, so peers' first polls can land
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
