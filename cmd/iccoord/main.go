// Command iccoord serves top-k influential community queries over HTTP by
// scatter-gather across a cluster of icserver shard nodes.
//
// Usage:
//
//	iccoord -shard name=url[,url2,...][,dataset=D]... [-addr :8090]
//	        [-maxk 10000] [-shard-timeout 10s] [-partial]
//	        [-probe-interval 2s] [-probe-timeout 1s]
//	        [-breaker-threshold 5] [-breaker-cooldown 5s]
//	        [-shard-retries 1]
//	        [-read-timeout 10s] [-write-timeout 60s] [-idle-timeout 2m]
//	        [-shutdown-timeout 15s]
//
// Endpoints (JSON):
//
//	GET /healthz
//	GET /v1/cluster
//	GET /v1/stats
//	GET /v1/topk?k=10&gamma=5[&noncontainment=1|&truss=1][&dataset=name]
//	POST /v1/query                 {"query": "DSL batch"[, "dataset": name]}
//
// POST /v1/query executes a composable-DSL batch (grammar in
// docs/ARCHITECTURE.md): every fixed-shape plan fragment is one ordinary
// scatter-gather, deduplicated across the batch's statements, so its
// merged answer is byte-identical to /v1/topk with the same shape;
// seed-scoped near(...) statements are rejected as not shard-safe.
//
// Each -shard flag (repeatable, at least one required) names one partition
// of the graph and lists its replica base URLs in failover order; dataset=D
// pins the shard-side dataset name (defaults to the query's, then the
// shard's default). Shards are icserver nodes serving the partition graphs
// written by Partition — see docs/CLUSTER.md for the partitioning step, the
// wire protocol, and why the merged answers are byte-identical to serving
// the unpartitioned graph on one node.
//
// A shard attempt fails over to the next replica when it fails, or when
// its open, or a later read the merge waits on, exceeds -shard-timeout.
// When a shard exhausts its replicas (after -shard-retries extra
// backed-off passes), the query fails (the default, strict mode) or —
// with -partial — degrades: the answer covers the surviving shards and is
// marked "partial": true with the dropped shards listed in "failed_shards".
//
// Resilience: every -probe-interval each replica's /healthz is probed
// (bounded by -probe-timeout) to maintain up/down state, readiness, and an
// EWMA latency score; replica selection prefers healthy-lowest-latency
// replicas over the configured order. A replica failing -breaker-threshold
// consecutive attempts has its circuit breaker opened and is skipped until
// -breaker-cooldown elapses (a successful probe re-admits it immediately).
// Per-replica state is visible on /v1/cluster and /v1/stats. See the
// "replica is sick" runbook in docs/OPERATIONS.md for tuning guidance.
//
// The coordinator drains in-flight requests on SIGINT/SIGTERM, waiting up
// to -shutdown-timeout before closing remaining connections.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"influcomm/internal/cluster"
)

// parseShardSpec parses "name=url[,url2,...][,dataset=D]": the first URL is
// the primary replica, later bare URLs are failover replicas.
func parseShardSpec(spec string) (cluster.Shard, error) {
	var sh cluster.Shard
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" || rest == "" {
		return sh, fmt.Errorf("bad -shard %q: want name=url[,url2,...][,dataset=D]", spec)
	}
	sh.Name = name
	for _, p := range strings.Split(rest, ",") {
		switch {
		case strings.HasPrefix(p, "http://") || strings.HasPrefix(p, "https://"):
			sh.Replicas = append(sh.Replicas, p)
		case strings.HasPrefix(p, "dataset="):
			sh.Dataset = strings.TrimPrefix(p, "dataset=")
		default:
			return sh, fmt.Errorf("bad -shard part %q in %q: want a http(s) replica URL or dataset=D", p, spec)
		}
	}
	if len(sh.Replicas) == 0 {
		return sh, fmt.Errorf("bad -shard %q: no replica URLs", spec)
	}
	return sh, nil
}

// config collects the flag values; main parses, serve runs.
type config struct {
	addr             string
	shards           []cluster.Shard
	maxK             int
	shardTimeout     time.Duration
	partial          bool
	probeInterval    time.Duration
	probeTimeout     time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	shardRetries     int
	readTimeout      time.Duration
	writeTimeout     time.Duration
	idleTimeout      time.Duration
	shutdownTimeout  time.Duration
}

// validate rejects nonsense knob values with a usage-style error before
// the coordinator silently "corrects" them.
func (cfg *config) validate() error {
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"-shard-timeout", cfg.shardTimeout},
		{"-probe-interval", cfg.probeInterval},
		{"-probe-timeout", cfg.probeTimeout},
		{"-breaker-cooldown", cfg.breakerCooldown},
	} {
		if d.v < 0 {
			return fmt.Errorf("%s must not be negative (got %s)", d.name, d.v)
		}
	}
	if cfg.breakerThreshold < 0 {
		return fmt.Errorf("-breaker-threshold must not be negative (got %d)", cfg.breakerThreshold)
	}
	if cfg.shardRetries < 0 {
		return fmt.Errorf("-shard-retries must not be negative (got %d)", cfg.shardRetries)
	}
	return nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8090", "listen address")
	flag.Func("shard", "shard spec: name=url[,url2,...][,dataset=D] (repeatable, at least one required)", func(spec string) error {
		sh, err := parseShardSpec(spec)
		if err != nil {
			return err
		}
		cfg.shards = append(cfg.shards, sh)
		return nil
	})
	flag.IntVar(&cfg.maxK, "maxk", 10000, "largest k a single request may ask for")
	flag.DurationVar(&cfg.shardTimeout, "shard-timeout", 10*time.Second, "per-shard deadline before failover, on the open and on each read the merge waits on (0 = coordinator default, 30s)")
	flag.BoolVar(&cfg.partial, "partial", false, "serve degraded results from surviving shards when a shard exhausts its replicas (default: fail the query)")
	flag.DurationVar(&cfg.probeInterval, "probe-interval", 2*time.Second, "replica health-probe period (0 = no active probing)")
	flag.DurationVar(&cfg.probeTimeout, "probe-timeout", time.Second, "health-probe deadline (0 = coordinator default, 1s)")
	flag.IntVar(&cfg.breakerThreshold, "breaker-threshold", 5, "consecutive failures that open a replica's circuit breaker (0 = breakers off)")
	flag.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", 5*time.Second, "how long an open breaker blocks a replica before the next trial (0 = coordinator default, 5s)")
	flag.IntVar(&cfg.shardRetries, "shard-retries", 1, "extra backed-off passes over a shard's replicas before it counts as failed")
	flag.DurationVar(&cfg.readTimeout, "read-timeout", 10*time.Second, "HTTP read timeout")
	flag.DurationVar(&cfg.writeTimeout, "write-timeout", 60*time.Second, "HTTP write timeout")
	flag.DurationVar(&cfg.idleTimeout, "idle-timeout", 2*time.Minute, "HTTP idle connection timeout")
	flag.DurationVar(&cfg.shutdownTimeout, "shutdown-timeout", 15*time.Second, "graceful shutdown drain limit")
	flag.Parse()
	if len(cfg.shards) == 0 {
		fmt.Fprintln(os.Stderr, "iccoord: at least one -shard is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "iccoord: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, cfg, nil); err != nil {
		log.Fatalf("iccoord: %v", err)
	}
}

// serve builds the coordinator and runs the HTTP server until ctx is
// cancelled, then drains gracefully. When ready is non-nil the bound
// listener address is sent on it once the server is accepting connections
// (used by tests to serve on an ephemeral port).
func serve(ctx context.Context, cfg config, ready chan<- string) error {
	opts := []cluster.Option{
		cluster.WithShardTimeout(cfg.shardTimeout),
		cluster.WithPartialResults(cfg.partial),
		cluster.WithHealthProbes(cfg.probeInterval, cfg.probeTimeout),
		cluster.WithBreaker(cfg.breakerThreshold, cfg.breakerCooldown),
		cluster.WithOpenRetries(cfg.shardRetries),
	}
	coord, err := cluster.NewCoordinator(cfg.shards, opts...)
	if err != nil {
		return err
	}
	defer coord.Close()
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           cluster.NewHandler(coord, cfg.maxK),
		ReadTimeout:       cfg.readTimeout,
		ReadHeaderTimeout: cfg.readTimeout,
		WriteTimeout:      cfg.writeTimeout,
		IdleTimeout:       cfg.idleTimeout,
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	mode := "strict"
	if cfg.partial {
		mode = "partial"
	}
	log.Printf("iccoord: coordinating %d shards (%s mode) on %s", len(cfg.shards), mode, ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("iccoord: shutting down, draining for up to %s", cfg.shutdownTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
