// Command icserver serves top-k influential community queries over HTTP.
//
// Usage:
//
//	icserver -graph g.txt [-index g.icx] [-addr :8080] [-pagerank]
//	         [-dataset name=path[,backend=semiext][,index=p.icx]
//	                  [,workers=N][,mutable=true]
//	                  [,reindex=auto|off]]...
//	         [-cache 256] [-maxk 10000] [-query-timeout 30s]
//	         [-max-inflight 64] [-read-timeout 10s] [-write-timeout 60s]
//	         [-idle-timeout 2m] [-shutdown-timeout 15s] [-pprof addr]
//
// Endpoints (JSON):
//
//	GET    /healthz
//	GET    /v1/stats
//	GET    /v1/datasets
//	GET    /v1/topk?k=10&gamma=5[&mode=core|noncontainment|truss][&dataset=name]
//	POST   /v1/query                 {"query": "DSL batch"[, "dataset": name]}
//	POST   /v1/admin/datasets
//	DELETE /v1/admin/datasets/{name}
//	POST   /v1/admin/datasets/{name}/updates
//
// The -graph file becomes the "default" dataset; each -dataset flag (which
// may repeat) loads a further named dataset, either fully in memory
// (backend omitted) from a graph file, or semi-externally
// (backend=semiext) from an edge file written by icindex -edges — the
// graph then never fully loads; queries read exactly the weight-ranked
// prefix they need through a shared memory-mapped view. workers=N, on
// semiext datasets only, splits bulk decodes of edge files in the
// compressed v2 layout across N goroutines (byte-identical results).
// mutable=true opens an edge file as a dynamic dataset:
// POST /v1/admin/datasets/{name}/updates applies edge insertions and
// deletions online (queries keep serving from immutable snapshots, never
// pausing), every batch is fsynced to a write-ahead log beside the edge
// file before it is visible, the log replays on restart after a crash,
// and a clean shutdown compacts it back into the edge file. reindex=auto
// on a mutable dataset keeps its prebuilt index current across updates:
// a delta touching at most a quarter of the weight ranking is repaired
// synchronously before the update response, a larger one triggers an
// epoch-tagged background rebuild 100ms after the burst that caused it
// (queries fall back to LocalSearch until it attaches); without
// reindex=auto, the first effective update drops the index for good.
// Datasets can also be loaded and unloaded at runtime through the admin
// endpoints — protect those with -admin-token (or keep
// the port private): they can unload live datasets and open server-side
// files. Identical queries on one dataset snapshot — /v1/topk requests
// and /v1/query plan nodes alike — run once, and each dataset's memo keeps
// the newest snapshot's answers for reuse (-cache answers per dataset,
// least recently used evicted; 0 keeps no memo, only joins of concurrent
// identical queries).
//
// With -index (or a per-dataset index= option), a prebuilt index file
// (see icindex) is loaded and validated against the graph at startup;
// default-semantics queries are then served from the index in
// output-proportional time, with pooled LocalSearch answering the
// variants the index does not cover. A stale index — built for a
// different graph — is rejected before the server starts. Build the index
// with the same -pagerank setting the server runs with (-pagerank applies
// to the default dataset only).
//
// The server drains in-flight requests on SIGINT/SIGTERM, waiting up to
// -shutdown-timeout before closing remaining connections.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"influcomm"
	"influcomm/internal/server"
)

// datasetSpec is one parsed -dataset flag.
type datasetSpec struct {
	name    string
	path    string
	backend string
	index   string
	workers int
	mutable bool
	reindex string
}

// parseDatasetSpec parses
// "name=path[,backend=semiext][,index=p.icx][,workers=N][,mutable=true][,reindex=auto|off]".
func parseDatasetSpec(spec string) (datasetSpec, error) {
	var d datasetSpec
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" || rest == "" {
		return d, fmt.Errorf("bad -dataset %q: want name=path[,backend=semiext][,index=file][,workers=N][,mutable=true][,reindex=auto|off]", spec)
	}
	d.name = name
	parts := strings.Split(rest, ",")
	d.path = parts[0]
	for _, p := range parts[1:] {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return d, fmt.Errorf("bad -dataset option %q in %q", p, spec)
		}
		switch k {
		case "backend":
			d.backend = v
		case "index":
			d.index = v
		case "workers":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return d, fmt.Errorf("bad -dataset option workers=%q in %q (want a non-negative integer)", v, spec)
			}
			d.workers = n
		case "mutable":
			switch v {
			case "true":
				d.mutable = true
			case "false":
			default:
				return d, fmt.Errorf("bad -dataset option mutable=%q in %q (want true or false)", v, spec)
			}
		case "reindex":
			switch v {
			case "auto", "off":
				d.reindex = v
			default:
				return d, fmt.Errorf("bad -dataset option reindex=%q in %q (want auto or off)", v, spec)
			}
		default:
			return d, fmt.Errorf("unknown -dataset option %q in %q", k, spec)
		}
	}
	if d.mutable && d.backend != "" && d.backend != "mutable" {
		return d, fmt.Errorf("-dataset %q: mutable=true conflicts with backend=%s", spec, d.backend)
	}
	if d.workers != 0 && d.backend != "semiext" {
		return d, fmt.Errorf("-dataset %q: workers=N splits semi-external decodes and needs backend=semiext", spec)
	}
	if d.reindex == "auto" && !d.mutable && d.backend != "mutable" {
		return d, fmt.Errorf("-dataset %q: reindex=auto needs mutable=true (index maintenance works on mutable datasets only)", spec)
	}
	return d, nil
}

// config collects the flag values; main parses, serve runs.
type config struct {
	graphPath       string
	indexPath       string
	addr            string
	pprofAddr       string
	usePagerank     bool
	datasets        []datasetSpec
	cacheSize       int
	adminToken      string
	maxK            int
	maxInFlight     int
	queryTimeout    time.Duration
	readTimeout     time.Duration
	writeTimeout    time.Duration
	idleTimeout     time.Duration
	shutdownTimeout time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.graphPath, "graph", "", "path to the graph file (required)")
	flag.StringVar(&cfg.indexPath, "index", "", "prebuilt index file (icindex output); serves queries index-first when set")
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this separate address (empty = off; keep it private)")
	flag.BoolVar(&cfg.usePagerank, "pagerank", false, "replace vertex weights with PageRank scores")
	flag.Func("dataset", "additional dataset: name=path[,backend=semiext][,index=file][,workers=N][,mutable=true][,reindex=auto|off] (repeatable)", func(spec string) error {
		d, err := parseDatasetSpec(spec)
		if err != nil {
			return err
		}
		cfg.datasets = append(cfg.datasets, d)
		return nil
	})
	flag.IntVar(&cfg.cacheSize, "cache", 256, "per-dataset memo capacity in answers (0 = no memo, only concurrent joins)")
	flag.StringVar(&cfg.adminToken, "admin-token", "", "bearer token required on /v1/admin endpoints (empty = open; keep the port private)")
	flag.IntVar(&cfg.maxK, "maxk", 10000, "largest k a single request may ask for")
	flag.IntVar(&cfg.maxInFlight, "max-inflight", 0, "concurrent query limit, 503 beyond it (0 = 4×GOMAXPROCS, -1 = unlimited)")
	flag.DurationVar(&cfg.queryTimeout, "query-timeout", 30*time.Second, "per-request search deadline (0 = none)")
	flag.DurationVar(&cfg.readTimeout, "read-timeout", 10*time.Second, "HTTP read timeout")
	flag.DurationVar(&cfg.writeTimeout, "write-timeout", 60*time.Second, "HTTP write timeout")
	flag.DurationVar(&cfg.idleTimeout, "idle-timeout", 2*time.Minute, "HTTP idle connection timeout")
	flag.DurationVar(&cfg.shutdownTimeout, "shutdown-timeout", 15*time.Second, "graceful shutdown drain limit")
	flag.Parse()
	if cfg.graphPath == "" {
		fmt.Fprintln(os.Stderr, "icserver: -graph is required")
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, cfg, nil); err != nil {
		log.Fatalf("icserver: %v", err)
	}
}

// startPprof serves net/http/pprof on its own listener and returns the
// running server; the caller closes it on shutdown.
func startPprof(addr string) (*http.Server, net.Listener, error) {
	pmux := http.NewServeMux()
	pmux.HandleFunc("/debug/pprof/", pprof.Index)
	pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	pln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("pprof listener: %w", err)
	}
	psrv := &http.Server{Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := psrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("icserver: pprof server: %v", err)
		}
	}()
	return psrv, pln, nil
}

// serve loads the graph and runs the HTTP server until ctx is cancelled,
// then drains gracefully. When ready is non-nil the bound listener address
// is sent on it once the server is accepting connections (used by tests to
// serve on an ephemeral port).
func serve(ctx context.Context, cfg config, ready chan<- string) error {
	g, err := influcomm.LoadGraph(cfg.graphPath)
	if err != nil {
		return err
	}
	if cfg.usePagerank {
		if g, err = influcomm.PageRankWeights(g); err != nil {
			return err
		}
	}
	opts := []server.Option{
		server.WithMaxK(cfg.maxK),
		server.WithQueryTimeout(cfg.queryTimeout),
		server.WithResultCache(cfg.cacheSize),
	}
	if cfg.adminToken != "" {
		opts = append(opts, server.WithAdminToken(cfg.adminToken))
	}
	if cfg.indexPath != "" {
		ix, err := influcomm.LoadIndex(cfg.indexPath, g)
		if err != nil {
			return fmt.Errorf("loading index: %w", err)
		}
		log.Printf("icserver: index loaded from %s (γmax %d, %d int32 slots), serving index-first", cfg.indexPath, ix.GammaMax(), ix.MemoryFootprint())
		opts = append(opts, server.WithIndex(ix))
	}
	if cfg.maxInFlight != 0 {
		opts = append(opts, server.WithMaxInFlight(cfg.maxInFlight))
	}
	for _, d := range cfg.datasets {
		var sopts []influcomm.StoreOption
		if d.workers > 0 {
			sopts = append(sopts, influcomm.WithQueryWorkers(d.workers))
		}
		backend := d.backend
		if d.mutable {
			backend = "mutable"
		}
		st, err := influcomm.OpenStore(d.path, backend, sopts...)
		if err != nil {
			return fmt.Errorf("dataset %s: %w", d.name, err)
		}
		cfgDS := server.DatasetConfig{Store: st, Reindex: d.reindex}
		if d.index != "" {
			dg := st.Graph()
			if dg == nil {
				return fmt.Errorf("dataset %s: an index needs whole-graph access (the memory or mutable backend); the %s backend cannot carry one", d.name, st.Backend())
			}
			ix, err := influcomm.LoadIndex(d.index, dg)
			if err != nil {
				return fmt.Errorf("dataset %s: loading index: %w", d.name, err)
			}
			cfgDS.Index = ix
		}
		opts = append(opts, server.WithDataset(d.name, cfgDS))
		log.Printf("icserver: dataset %s: %d vertices, %d edges via %s backend from %s",
			d.name, st.NumVertices(), st.NumEdges(), st.Backend(), d.path)
	}
	h, err := server.New(g, opts...)
	if err != nil {
		return err
	}

	// The profiling endpoints run on their own listener so they can stay
	// on a private address (or off entirely, the default) while the query
	// port is exposed: future perf work profiles the serving tier in place
	// without widening the public surface.
	if cfg.pprofAddr != "" {
		psrv, pln, err := startPprof(cfg.pprofAddr)
		if err != nil {
			return err
		}
		defer psrv.Close()
		log.Printf("icserver: pprof on http://%s/debug/pprof/", pln.Addr())
	}

	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           h,
		ReadTimeout:       cfg.readTimeout,
		ReadHeaderTimeout: cfg.readTimeout,
		WriteTimeout:      cfg.writeTimeout,
		IdleTimeout:       cfg.idleTimeout,
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	log.Printf("icserver: serving %d vertices, %d edges on %s", g.NumVertices(), g.NumEdges(), ln.Addr())
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
	log.Printf("icserver: shutting down, draining for up to %s", cfg.shutdownTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		h.Close()
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		h.Close()
		return err
	}
	// Closing the dataset backends after the HTTP drain compacts mutable
	// datasets' write-ahead logs back into their edge files, so a clean
	// shutdown leaves no log to replay on the next start.
	return h.Close()
}
