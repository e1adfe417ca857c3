// Package server exposes top-k influential community queries over HTTP:
// the serving layer a downstream system would put in front of the library.
//
// A server holds a registry of named datasets. Each dataset is one graph
// behind a pluggable Store backend — fully in-memory with pooled engines,
// or semi-external with on-disk edge files and only per-vertex state in
// RAM — plus an optional prebuilt index (whole-graph backends only) that
// answers default-semantics queries in output-proportional time. Queries
// run concurrently, each request under its own context with a per-request
// deadline, through one admission step shared by every query route. Each
// dataset's query.Sharer computes identical work once: a /v1/topk request
// and a /v1/query plan node of the same (k, γ, semantics) shape at the
// same snapshot epoch join one execution, and a bounded LRU memo keeps the
// newest epoch's answers (hits and misses on /v1/stats). Datasets can be
// loaded and unloaded at runtime through the admin endpoints without
// restarting; unloading waits for in-flight queries on that dataset to
// drain before releasing the backend.
//
// Endpoints:
//
//	GET    /healthz                        liveness + readiness (warming datasets)
//	GET    /v1/stats                       statistics and serving counters
//	GET    /v1/datasets                    list loaded datasets
//	GET    /v1/topk?k=10&gamma=5           top-k influential γ-communities
//	GET    /v1/topk?...&dataset=name       ... against a named dataset
//	GET    /v1/topk?...&mode=noncontainment  non-containment variant (§5.1);
//	                                       also spelt &noncontainment=1
//	GET    /v1/topk?...&mode=truss         γ-truss variant (§5.2, in-memory
//	                                       datasets); also spelt &truss=1
//	POST   /v1/query                       composable DSL batch: {"query": "...",
//	                                       "dataset": "name"}; plan nodes shared
//	                                       across concurrent batches (CSE)
//	GET    /v1/shard/stream?gamma=5&limit=10  progressive NDJSON community stream
//	                                       (the shard side of the cluster protocol)
//	POST   /v1/admin/datasets              load a dataset from disk
//	DELETE /v1/admin/datasets/{name}       unload a dataset
//	POST   /v1/admin/datasets/{name}/updates  apply edge updates (mutable datasets)
//
// Responses are JSON. Community members are reported as the graph's
// original vertex IDs (plus labels when the graph has them) for in-memory
// datasets; semi-external datasets identify vertices by weight rank, which
// is what the edge-file layout stores.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"influcomm/internal/cluster"
	"influcomm/internal/graph"
	"influcomm/internal/index"
	"influcomm/internal/query"
	"influcomm/internal/store"
)

// DefaultDataset is the name queries are routed to when no dataset
// parameter is given; New registers its graph argument under it.
const DefaultDataset = "default"

// Server answers community-search queries over a registry of datasets.
// Create with New; it is safe for concurrent use.
type Server struct {
	mux *http.ServeMux

	registry registry

	// memoSize is each dataset's Sharer memo capacity; see WithResultCache.
	memoSize int

	// adminToken, when non-empty, gates the admin endpoints behind a
	// bearer token; queries stay open.
	adminToken string

	// maxK bounds per-request work; requests beyond it are rejected.
	maxK int
	// queryTimeout is the per-request search deadline; 0 disables it.
	queryTimeout time.Duration
	// inflight is the admission semaphore; nil means unlimited.
	inflight chan struct{}

	metrics metrics

	// pendingDatasets defers WithDataset registrations until New has
	// finished applying options, so option order does not matter.
	pendingDatasets []pendingDataset
}

type pendingDataset struct {
	name string
	cfg  DatasetConfig
}

// metrics holds the serving counters reported on /v1/stats.
type metrics struct {
	queries    atomic.Int64 // admitted /v1/topk and /v1/shard/stream requests
	inFlight   atomic.Int64 // currently executing queries
	rejected   atomic.Int64 // 503s from the in-flight limit
	errors     atomic.Int64 // bad requests and query failures
	canceled   atomic.Int64 // queries stopped by disconnect or deadline
	durationUS atomic.Int64 // cumulative query time of admitted requests

	cacheHits   atomic.Int64 // /v1/topk answers shared with another execution
	cacheMisses atomic.Int64 // /v1/topk answers this request executed

	indexServed atomic.Int64 // queries answered from a prebuilt index
	localServed atomic.Int64 // queries answered by online LocalSearch/truss

	shardStreams atomic.Int64 // /v1/shard/stream requests admitted

	dslQueries atomic.Int64 // admitted /v1/query batches
	planNodes  atomic.Int64 // plan nodes expanded by those batches
	cseHits    atomic.Int64 // plan nodes served by shared work, not fresh execution
}

// Option configures a Server.
type Option func(*Server)

// WithMaxK overrides the per-request k limit (default 10000).
func WithMaxK(maxK int) Option {
	return func(s *Server) { s.maxK = maxK }
}

// WithQueryTimeout overrides the per-request search deadline (default 30s);
// d <= 0 disables the deadline.
func WithQueryTimeout(d time.Duration) Option {
	return func(s *Server) { s.queryTimeout = d }
}

// WithIndex attaches a prebuilt IndexAll structure to the default dataset:
// default-semantics /v1/topk queries on it are then answered from the index
// in output-proportional time, with pooled LocalSearch remaining the
// fallback for non-containment and truss queries. The index must have been
// built on (or loaded against) exactly the graph the server serves; New
// rejects any other index.
func WithIndex(ix *index.Index) Option {
	return func(s *Server) { s.registry.defaultIndex = ix }
}

// WithDataset registers an additional named dataset at construction; the
// equivalent of calling AddDataset right after New.
func WithDataset(name string, cfg DatasetConfig) Option {
	return func(s *Server) {
		s.pendingDatasets = append(s.pendingDatasets, pendingDataset{name, cfg})
	}
}

// WithResultCache overrides each dataset's memo capacity (default 256
// answers): the Sharer that /v1/topk and /v1/query share keeps at most n
// answers of the dataset's newest snapshot epoch, evicting the least
// recently used. n <= 0 memoizes nothing; concurrent identical queries
// still share one execution.
func WithResultCache(n int) Option {
	return func(s *Server) { s.memoSize = max(n, 0) }
}

// WithAdminToken protects the admin endpoints (dataset load/unload) with
// a bearer token: requests must carry "Authorization: Bearer <token>" or
// are rejected with 401. The default (empty) leaves them open — only
// acceptable when the listen address is not reachable by untrusted
// clients, since admins can unload live datasets and make the server open
// arbitrary server-side files.
func WithAdminToken(token string) Option {
	return func(s *Server) { s.adminToken = token }
}

// WithMaxInFlight overrides the concurrent query limit (default
// 4×GOMAXPROCS). Requests arriving beyond the limit are rejected with 503;
// n <= 0 removes the limit.
func WithMaxInFlight(n int) Option {
	return func(s *Server) {
		if n <= 0 {
			s.inflight = nil
			return
		}
		s.inflight = make(chan struct{}, n)
	}
}

// New returns a Server serving g as its default dataset.
func New(g *graph.Graph, opts ...Option) (*Server, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, fmt.Errorf("server: nil or empty graph")
	}
	s := &Server{
		mux:          http.NewServeMux(),
		memoSize:     256,
		maxK:         10000,
		queryTimeout: 30 * time.Second,
		inflight:     make(chan struct{}, 4*runtime.GOMAXPROCS(0)),
	}
	s.registry.datasets = make(map[string]*dataset)
	for _, o := range opts {
		o(s)
	}
	if err := s.AddDataset(DefaultDataset, DatasetConfig{Graph: g, Index: s.registry.defaultIndex}); err != nil {
		return nil, err
	}
	for _, p := range s.pendingDatasets {
		if err := s.AddDataset(p.name, p.cfg); err != nil {
			return nil, err
		}
	}
	s.pendingDatasets = nil
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/topk", s.admit(&s.metrics.queries, s.handleTopK))
	s.mux.HandleFunc("POST /v1/query", s.admit(&s.metrics.dslQueries, s.handleQuery))
	s.mux.HandleFunc("GET "+cluster.StreamPath, s.admit(&s.metrics.queries, s.handleShardStream))
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("POST /v1/admin/datasets", s.handleLoadDataset)
	s.mux.HandleFunc("DELETE /v1/admin/datasets/{name}", s.handleUnloadDataset)
	s.mux.HandleFunc("POST /v1/admin/datasets/{name}/updates", s.handleApplyUpdates)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleHealthz answers liveness (status, always "ok" when the process
// can serve HTTP) plus a readiness dimension: ready is false while any
// dataset is warming (index maintenance mid-rebuild), letting a cluster
// prober distinguish "up" from "up but degraded" without a separate
// endpoint. Warming dataset names are listed so operators can see what
// the replica is waiting on.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	infos := s.Datasets()
	var warming []string
	for _, info := range infos {
		if !info.Ready {
			warming = append(warming, info.Name)
		}
	}
	resp := map[string]any{
		"status":   "ok",
		"ready":    len(infos) > 0 && len(warming) == 0,
		"datasets": len(infos),
	}
	if len(warming) > 0 {
		resp["warming"] = warming
	}
	writeJSON(w, http.StatusOK, resp)
}

// statsResponse is the /v1/stats payload: the default dataset's shape (for
// compatibility with single-dataset deployments), the serving counters
// since startup, the cache counters, and one entry per loaded dataset.
type statsResponse struct {
	Vertices  int     `json:"vertices"`
	Edges     int64   `json:"edges"`
	MaxDegree int32   `json:"max_degree"`
	AvgDegree float64 `json:"avg_degree"`

	Queries     int64   `json:"queries"`
	InFlight    int64   `json:"in_flight"`
	Rejected    int64   `json:"rejected"`
	Errors      int64   `json:"errors"`
	Canceled    int64   `json:"canceled"`
	AvgLatency  float64 `json:"avg_latency_ms"`
	MaxInFlight int     `json:"max_in_flight"`

	// Serving-path split: IndexQueries were answered from a prebuilt
	// index, LocalQueries by online search (LocalSearch or truss). Answers
	// shared with another execution count in neither.
	IndexLoaded   bool  `json:"index_loaded"`
	IndexGammaMax int32 `json:"index_gamma_max,omitempty"`
	IndexQueries  int64 `json:"index_queries"`
	LocalQueries  int64 `json:"local_queries"`

	// Index-maintenance state of the default dataset: IndexState is
	// "attached", "rebuilding", or "dropped" (empty when it never had an
	// index); IndexRebuilds and IndexDeltaRepairs count background
	// rebuilds and synchronous delta repairs attached since load.
	IndexState        string `json:"index_state,omitempty"`
	IndexRebuilds     int64  `json:"index_rebuilds,omitempty"`
	IndexDeltaRepairs int64  `json:"index_delta_repairs,omitempty"`

	// ShardStreams counts /v1/shard/stream requests served to cluster
	// coordinators.
	ShardStreams int64 `json:"shard_streams"`

	// DSL batch counters: DSLQueries admitted /v1/query batches, PlanNodes
	// the plan nodes those batches expanded to, CSEHits the nodes served
	// by work shared with another node (same batch or a concurrent one)
	// instead of a fresh decomposition.
	DSLQueries int64 `json:"dsl_queries"`
	PlanNodes  int64 `json:"plan_nodes"`
	CSEHits    int64 `json:"cse_hits"`

	// Mutable-dataset counters for the default dataset: the snapshot epoch
	// and the total effective edge mutations applied since load (per-
	// dataset figures live in Datasets).
	SnapshotEpoch  uint64 `json:"snapshot_epoch,omitempty"`
	UpdatesApplied int64  `json:"updates_applied,omitempty"`

	// Memo counters: CacheCapacity is each dataset's memo capacity,
	// CacheEntries the answers the memos hold summed over datasets, and
	// CacheHits and CacheMisses the /v1/topk requests answered by shared
	// work and by their own execution.
	CacheCapacity int   `json:"cache_capacity"`
	CacheEntries  int   `json:"cache_entries"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`

	Datasets []DatasetInfo `json:"datasets"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Queries:     s.metrics.queries.Load(),
		InFlight:    s.metrics.inFlight.Load(),
		Rejected:    s.metrics.rejected.Load(),
		Errors:      s.metrics.errors.Load(),
		Canceled:    s.metrics.canceled.Load(),
		MaxInFlight: cap(s.inflight),

		IndexQueries: s.metrics.indexServed.Load(),
		LocalQueries: s.metrics.localServed.Load(),
		ShardStreams: s.metrics.shardStreams.Load(),
		DSLQueries:   s.metrics.dslQueries.Load(),
		PlanNodes:    s.metrics.planNodes.Load(),
		CSEHits:      s.metrics.cseHits.Load(),

		CacheCapacity: s.memoSize,
		CacheHits:     s.metrics.cacheHits.Load(),
		CacheMisses:   s.metrics.cacheMisses.Load(),
	}
	if ds := s.registry.lookup(DefaultDataset); ds != nil {
		if g := ds.st.Graph(); g != nil {
			st := g.Statistics()
			resp.MaxDegree = st.MaxDegree
			resp.AvgDegree = st.AvgDegree
		}
		resp.Vertices = ds.st.NumVertices()
		resp.Edges = ds.st.NumEdges()
		if ix := ds.indexAt(ds.epoch()); ix != nil {
			resp.IndexLoaded = true
			resp.IndexGammaMax = ix.GammaMax()
		}
		resp.IndexState = ds.indexState()
		if ds.maint != nil {
			resp.IndexRebuilds = ds.maint.rebuilds.Load()
			resp.IndexDeltaRepairs = ds.maint.deltaRepairs.Load()
		}
		if ms := store.AsMutable(ds.st); ms != nil {
			resp.SnapshotEpoch = ms.SnapshotEpoch()
			resp.UpdatesApplied = ms.UpdatesApplied()
		}
	}
	resp.Datasets = s.Datasets()
	s.registry.mu.RLock()
	for _, ds := range s.registry.datasets {
		resp.CacheEntries += ds.sharer.Len()
	}
	s.registry.mu.RUnlock()
	if resp.Queries > 0 {
		resp.AvgLatency = float64(s.metrics.durationUS.Load()) / 1000 / float64(resp.Queries)
	}
	writeJSON(w, http.StatusOK, resp)
}

// communityJSON is one community of a /v1/topk response. It is the cluster
// wire shape: single-node responses, shard stream data lines, and merged
// coordinator responses all encode as this struct does, so equal
// communities are byte-equal across the three.
type communityJSON = cluster.Community

// topKResponse is the /v1/topk payload, as appendTopK writes it.
type topKResponse struct {
	K     int    `json:"k"`
	Gamma int    `json:"gamma"`
	Mode  string `json:"mode"`
	// Path is the access path that answered: query.PathIndex, PathLocal
	// or PathTruss. A cached response reports the execution it shared.
	Path string `json:"path"`
	// Communities is rendered from the answer's forest while the response
	// is written; the server never fills the field.
	Communities []communityJSON `json:"communities"`
	// ElapsedMS is the request's execution and rendering time; 0 when
	// Cached.
	ElapsedMS float64 `json:"elapsed_ms"`
	// AccessedVertices reports how much of the graph the local search
	// touched.
	AccessedVertices int `json:"accessed_vertices,omitempty"`
	// Cached marks responses answered by shared work: a memo hit, or a
	// join on an identical execution in flight.
	Cached bool `json:"cached,omitempty"`
}

type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// admit wraps a query route in the admission step every route shares: a
// saturated server sheds load immediately (503) rather than queueing
// unbounded work behind slow searches; an admitted request is counted in
// count and in flight, and serve runs under the per-request deadline.
func (s *Server) admit(count *atomic.Int64, serve func(context.Context, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				s.metrics.rejected.Add(1)
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "server saturated, retry later"})
				return
			}
		}
		count.Add(1)
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)

		ctx := r.Context()
		if s.queryTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.queryTimeout)
			defer cancel()
		}
		serve(ctx, w, r)
	}
}

// acquire resolves a request's dataset (empty name: the default), takes
// the in-flight reference an unload waits on, and pins the snapshot every
// node of the request runs on. The caller releases pin.ds.
func (s *Server) acquire(name string) (pinned, error) {
	if name == "" {
		name = DefaultDataset
	}
	// Resolve and reference in one step: an admin unload concurrent with
	// this request only releases the backend once we are done.
	ds := s.registry.acquireLookup(name)
	if ds == nil {
		return pinned{}, &httpError{http.StatusNotFound, fmt.Sprintf("dataset %q is not loaded", name)}
	}
	ds.queries.Add(1)
	return ds.pin(), nil
}

func (s *Server) handleTopK(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body := getBody()
	defer putBody(body)
	err := s.topK(ctx, r, body)
	s.metrics.durationUS.Add(time.Since(start).Microseconds())
	if err != nil {
		writeJSON(w, s.classify(err), map[string]string{"error": err.Error()})
		return
	}
	writeBody(w, http.StatusOK, *body)
}

// classify maps a query error to an HTTP status, counting it in the
// serving metrics. Context errors mean the search was stopped mid-query:
// a hit deadline is a 504, a client disconnect a 499 (the nginx
// convention; the client is gone, the code is for the counters and logs).
func (s *Server) classify(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.canceled.Add(1)
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		s.metrics.canceled.Add(1)
		return 499
	}
	s.metrics.errors.Add(1)
	if he := (*httpError)(nil); errors.As(err, &he) {
		return he.code
	}
	return http.StatusInternalServerError
}

// topK answers one fixed-shape query through the dataset's Sharer, under
// the key a DSL node of the same shape carries: identical /v1/topk
// requests and /v1/query nodes at one snapshot epoch share one execution.
// The response is rendered into body.
func (s *Server) topK(ctx context.Context, r *http.Request, body *[]byte) error {
	q := r.URL.Query()
	p, err := parseQueryParams(q, s.maxK)
	if err != nil {
		return err
	}
	pin, err := s.acquire(q.Get("dataset"))
	if err != nil {
		return err
	}
	defer pin.ds.release()

	start := time.Now()
	er, shared, err := s.executeNode(ctx, &pin, query.FixedNode(p.K, p.Gamma, p.Mode), nil)
	if err != nil {
		return err
	}
	if shared {
		s.metrics.cacheHits.Add(1)
	} else {
		s.metrics.cacheMisses.Add(1)
	}
	resp := topKResponse{
		K: p.K, Gamma: int(p.Gamma), Mode: p.Mode, Path: er.Path,
		AccessedVertices: er.Accessed,
		Cached:           shared,
	}
	*body = appendTopK(*body, &resp, func(b []byte) []byte {
		return er.Answer.AppendJSON(b, nil)
	}, func() float64 {
		if shared {
			return 0
		}
		return float64(time.Since(start)) / float64(time.Millisecond)
	})
	return nil
}

// queryError passes context errors through for classify and wraps anything
// else as a bad request (the search layer only fails on invalid queries).
func queryError(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &httpError{http.StatusBadRequest, err.Error()}
}

// Datasets returns a snapshot of the loaded datasets, sorted by name.
func (s *Server) Datasets() []DatasetInfo {
	s.registry.mu.RLock()
	out := make([]DatasetInfo, 0, len(s.registry.datasets))
	for _, ds := range s.registry.datasets {
		out = append(out, ds.info())
	}
	s.registry.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.Datasets()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
