package server

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"influcomm/internal/graph"
	"influcomm/internal/index"
	"influcomm/internal/query"
	"influcomm/internal/store"
	"influcomm/internal/truss"
)

// registry is the named-dataset table behind a Server. Lookups take a read
// lock; load/unload take the write lock. Queries hold per-dataset
// references so an unload never closes a backend out from under an
// in-flight search.
type registry struct {
	mu       sync.RWMutex
	datasets map[string]*dataset

	// defaultIndex is stashed by WithIndex until New registers the
	// default dataset.
	defaultIndex *index.Index
}

// dataset is one served graph: a Store backend, an optional prebuilt
// index, a lazily built truss index, and serving counters.
type dataset struct {
	name string
	st   store.Store

	// attached, when non-nil, holds the prebuilt index answering
	// default-semantics queries in output-proportional time, paired with
	// the snapshot epoch it describes; only backends with whole-graph
	// access can carry one. Queries honor the index only while the epoch
	// they pinned equals the attached epoch (indexAt), so a query racing
	// an update can never memoize a pre-update index answer under the
	// post-update epoch. On datasets with maintenance (maint)
	// the pipeline repairs or rebuilds and re-attaches after every
	// effective update; without it, the update handler drops the index
	// (dropIndex) and queries fall back to pooled LocalSearch until an
	// operator rebuilds and reloads one (icindex + admin reload).
	attached atomic.Pointer[attachedIndex]
	// maint, when non-nil, is the dataset's index-maintenance pipeline
	// (see maintenance.go); set at registration, stopped on unload.
	maint *maintainer
	// indexDropped latches the first index drop so every later update
	// batch can still report the "dropped" outcome, not only the one that
	// performed the swap.
	indexDropped atomic.Bool

	// trussIndex is built lazily on the first truss query and rebuilt only
	// when the store's snapshot epoch moves: the graph is immutable
	// between updates, so rebuilding the O(m) index per request would be
	// the same per-query setup waste the engine pool exists to avoid,
	// while building it eagerly would tax servers that never see truss
	// traffic.
	trussMu    sync.Mutex
	trussIndex *truss.Index
	trussEpoch uint64

	queries     atomic.Int64
	indexServed atomic.Int64
	localServed atomic.Int64

	// sharer is the dataset's one memo: identical canonical nodes at the
	// same snapshot epoch — /v1/topk requests and /v1/query plan nodes
	// alike — are computed once (singleflight + an LRU memo of the newest
	// epoch's answers). Per dataset, because node keys do not name the
	// dataset and epochs of different datasets are unrelated counters; it
	// goes with the dataset on unload.
	sharer *query.Sharer

	// refs counts in-flight queries; unloaded marks removal from the
	// registry. The last releasing query (or the unload itself, when the
	// dataset is idle) closes the backend exactly once.
	refs      atomic.Int64
	unloaded  atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// epoch returns the store's snapshot epoch: 0 for immutable backends, the
// monotonically increasing batch counter for mutable ones. Queries read it
// through pin, together with the snapshot it names.
func (d *dataset) epoch() uint64 {
	_, epoch := d.st.Pin()
	return epoch
}

// indexAt returns the prebuilt index valid at the given snapshot epoch,
// or nil when none is attached or the attached one describes a different
// epoch — one atomic load decides both, so there is no window in which a
// stale index can serve a newer snapshot.
func (d *dataset) indexAt(epoch uint64) *index.Index {
	at := d.attached.Load()
	if at == nil || at.epoch != epoch {
		return nil
	}
	return at.ix
}

// dropIndex detaches the index (datasets without maintenance lose it on
// the first effective update), reporting whether this call performed the
// drop; the latch keeps later batches reporting the dropped state.
func (d *dataset) dropIndex() bool {
	if d.attached.Swap(nil) != nil {
		d.indexDropped.Store(true)
		return true
	}
	return false
}

// indexState summarizes the dataset's index for operators: "attached"
// (serving index-first at the current epoch), "rebuilding" (maintenance
// is catching up; queries on LocalSearch meanwhile), "dropped" (no
// maintenance and an update invalidated the index), or "" (the dataset
// never had an index).
func (d *dataset) indexState() string {
	if d.indexAt(d.epoch()) != nil {
		return "attached"
	}
	if d.maint != nil {
		return "rebuilding"
	}
	if d.indexDropped.Load() {
		return "dropped"
	}
	return ""
}

// ready reports whether the dataset is serving at full capability: a
// dataset mid-rebuild ("rebuilding") is up but warming — answers come
// from the LocalSearch fallback until the index catches up.
func (d *dataset) ready() bool {
	return d.indexState() != "rebuilding"
}

// truss returns the truss index for g, building it on first use and
// rebuilding it when epoch has moved past the cached one.
func (d *dataset) truss(g *graph.Graph, epoch uint64) *truss.Index {
	d.trussMu.Lock()
	defer d.trussMu.Unlock()
	if d.trussIndex == nil || d.trussEpoch != epoch {
		d.trussIndex = truss.NewIndex(g)
		d.trussEpoch = epoch
	}
	return d.trussIndex
}

func (d *dataset) acquire() { d.refs.Add(1) }

// closeStore closes the backend exactly once, recording the error —
// mutable backends compact their write-ahead log here, and a failed
// compaction must not vanish silently. closeErr is written inside the
// Once and read only after a Do call has returned, which is the
// synchronization sync.Once provides.
func (d *dataset) closeStore() {
	d.closeOnce.Do(func() { d.closeErr = d.st.Close() })
}

func (d *dataset) release() {
	if d.refs.Add(-1) == 0 && d.unloaded.Load() {
		d.closeStore()
	}
}

// markUnloaded flags the dataset as removed and closes the backend if no
// query holds it; otherwise the drain in release does.
func (d *dataset) markUnloaded() {
	d.unloaded.Store(true)
	if d.refs.Load() == 0 {
		d.closeStore()
	}
}

// DatasetInfo describes one loaded dataset on /v1/datasets and /v1/stats.
type DatasetInfo struct {
	Name    string `json:"name"`
	Backend string `json:"backend"`
	// Mode reports the semi-external access path ("mmap" or "pread");
	// empty for in-memory backends.
	Mode string `json:"mode,omitempty"`
	// Format reports the semi-external edge-file layout ("v1" flat, "v2"
	// delta+varint compressed); empty for in-memory backends.
	Format string `json:"format,omitempty"`
	// Workers is the v2 decode split the dataset was loaded with; 0 or 1
	// means sequential decodes.
	Workers     int   `json:"workers,omitempty"`
	Vertices    int   `json:"vertices"`
	Edges       int64 `json:"edges"`
	IndexLoaded bool  `json:"index_loaded"`
	// Ready distinguishes "up" from "warming": false while index
	// maintenance is rebuilding (queries fall back to LocalSearch
	// meanwhile), so cluster health probes can deprioritize the replica
	// without taking it out of rotation.
	Ready        bool  `json:"ready"`
	Queries      int64 `json:"queries"`
	IndexQueries int64 `json:"index_queries"`
	LocalQueries int64 `json:"local_queries"`
	// Mutable marks datasets that accept online edge updates;
	// SnapshotEpoch and UpdatesApplied report how many effective batches
	// and individual mutations have been applied since load.
	Mutable        bool   `json:"mutable,omitempty"`
	SnapshotEpoch  uint64 `json:"snapshot_epoch,omitempty"`
	UpdatesApplied int64  `json:"updates_applied,omitempty"`
	// IndexState reports the index-maintenance state ("attached",
	// "rebuilding", "dropped"); empty for datasets that never carried an
	// index. IndexRebuilds and IndexDeltaRepairs count background rebuilds
	// and synchronous delta repairs attached since load.
	IndexState        string `json:"index_state,omitempty"`
	IndexRebuilds     int64  `json:"index_rebuilds,omitempty"`
	IndexDeltaRepairs int64  `json:"index_delta_repairs,omitempty"`
}

func (d *dataset) info() DatasetInfo {
	info := DatasetInfo{
		Name:         d.name,
		Backend:      d.st.Backend(),
		Vertices:     d.st.NumVertices(),
		Edges:        d.st.NumEdges(),
		IndexLoaded:  d.indexAt(d.epoch()) != nil,
		IndexState:   d.indexState(),
		Ready:        d.ready(),
		Queries:      d.queries.Load(),
		IndexQueries: d.indexServed.Load(),
		LocalQueries: d.localServed.Load(),
	}
	if d.maint != nil {
		info.IndexRebuilds = d.maint.rebuilds.Load()
		info.IndexDeltaRepairs = d.maint.deltaRepairs.Load()
	}
	if se, ok := d.st.(*store.SemiExt); ok {
		info.Mode = se.Mode()
		info.Format = fmt.Sprintf("v%d", se.Format())
		info.Workers = se.Workers()
	}
	if ms := store.AsMutable(d.st); ms != nil {
		info.Mutable = true
		info.SnapshotEpoch = ms.SnapshotEpoch()
		info.UpdatesApplied = ms.UpdatesApplied()
	}
	return info
}

func (r *registry) lookup(name string) *dataset {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.datasets[name]
}

// acquireLookup resolves name and takes the in-flight reference while
// still under the registry read lock. RemoveDataset needs the write lock
// to delete the entry, so it can never observe zero references between a
// query resolving the dataset and pinning it — the gap a bare
// lookup-then-acquire would leave.
func (r *registry) acquireLookup(name string) *dataset {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ds := r.datasets[name]
	if ds != nil {
		ds.acquire()
	}
	return ds
}

// DatasetConfig describes a dataset to register. Exactly one of Graph and
// Store must be set; Index optionally attaches a prebuilt index and
// requires an in-memory backend over exactly the index's graph.
type DatasetConfig struct {
	Graph *graph.Graph // in-memory backend over this graph
	Store store.Store  // explicit backend (e.g. store.OpenEdgeFile)
	Index *index.Index

	// Reindex selects index maintenance under online updates for mutable
	// whole-graph datasets: "auto" keeps the index current across updates
	// (synchronous delta repair for small deltas, epoch-tagged background
	// rebuild otherwise; queries fall back to LocalSearch while no current
	// index is attached) and builds one in the background for a dataset
	// loaded without an index. "off" or "" drops the index on the first
	// effective update until an operator reloads one. "auto" on an
	// ineligible backend is a registration error.
	Reindex string
}

// indexBackendError explains why st cannot carry a prebuilt index.
func indexBackendError(st store.Store) string {
	return fmt.Sprintf("an index needs whole-graph access (the memory or mutable backend); the %s backend cannot carry one", st.Backend())
}

// errAlreadyLoaded distinguishes a name conflict (409) from other
// registration failures (400) in the admin handler.
var errAlreadyLoaded = errors.New("already loaded")

// AddDataset registers a dataset under name; it fails if the name is
// invalid or already taken, or the configuration is inconsistent. Safe to
// call while the server is serving.
func (s *Server) AddDataset(name string, cfg DatasetConfig) error {
	_, err := s.addDataset(name, cfg)
	return err
}

// addDataset is AddDataset returning the registered dataset, so the admin
// handler can describe it without a racy re-lookup.
func (s *Server) addDataset(name string, cfg DatasetConfig) (*dataset, error) {
	if !validDatasetName(name) {
		return nil, fmt.Errorf("server: invalid dataset name %q (want 1-64 chars of [A-Za-z0-9._-])", name)
	}
	var st store.Store
	switch {
	case cfg.Graph != nil && cfg.Store != nil:
		return nil, fmt.Errorf("server: dataset %q sets both Graph and Store", name)
	case cfg.Graph != nil:
		var err error
		if st, err = store.OpenMem(cfg.Graph); err != nil {
			return nil, fmt.Errorf("server: dataset %q: %w", name, err)
		}
	case cfg.Store != nil:
		st = cfg.Store
	default:
		return nil, fmt.Errorf("server: dataset %q has neither Graph nor Store", name)
	}
	if cfg.Index != nil {
		g := st.Graph()
		if g == nil {
			return nil, fmt.Errorf("server: dataset %q: %s", name, indexBackendError(st))
		}
		if cfg.Index.Graph() != g {
			return nil, fmt.Errorf("server: dataset %q: index is bound to a different graph than the one being served (%d vs %d vertices); rebuild or reload it against this graph",
				name, cfg.Index.Graph().NumVertices(), g.NumVertices())
		}
	}
	switch cfg.Reindex {
	case "", "auto", "off":
	default:
		return nil, fmt.Errorf("server: dataset %q: bad reindex value %q (want \"auto\" or \"off\")", name, cfg.Reindex)
	}
	reindex := cfg.Reindex == "auto"
	ms := store.AsMutable(st)
	if reindex && (ms == nil || st.Graph() == nil) {
		return nil, fmt.Errorf("server: dataset %q: reindex=auto needs a mutable whole-graph backend, not %s", name, st.Backend())
	}
	s.registry.mu.Lock()
	defer s.registry.mu.Unlock()
	if _, ok := s.registry.datasets[name]; ok {
		return nil, fmt.Errorf("server: dataset %q is %w", name, errAlreadyLoaded)
	}
	ds := &dataset{name: name, st: st, sharer: query.NewSharer(s.memoSize)}
	if cfg.Index != nil {
		ds.attached.Store(&attachedIndex{ix: cfg.Index, epoch: ds.epoch()})
	}
	if reindex {
		ds.maint = newMaintainer(ds, ms)
		ds.maint.start()
	}
	s.registry.datasets[name] = ds
	return ds, nil
}

// RemoveDataset unloads the named dataset: it disappears from routing
// immediately, its memo goes with it, and the backend is closed once
// in-flight queries drain. Safe to call while the server is serving.
func (s *Server) RemoveDataset(name string) error {
	s.registry.mu.Lock()
	ds, ok := s.registry.datasets[name]
	if ok {
		delete(s.registry.datasets, name)
	}
	s.registry.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: dataset %q is not loaded", name)
	}
	if ds.maint != nil {
		// Drain the maintenance pipeline before the backend can close: an
		// in-flight rebuild aborts through its context, and the update
		// hook is unregistered so nothing kicks it again.
		ds.maint.stop()
	}
	ds.markUnloaded()
	return nil
}

// Close unloads every dataset and closes its backend (waiting for
// in-flight queries per the usual drain discipline). Call it after the
// HTTP server has shut down: backends with durable state — mutable
// datasets with a pending write-ahead log — compact on close, so a clean
// process exit leaves their edge files fresh and their logs removed. The
// returned error joins every close failure of a dataset that was idle
// (the post-drain case); a dataset still pinned by a straggling query
// closes later, its error necessarily unreported.
func (s *Server) Close() error {
	s.registry.mu.Lock()
	dss := make([]*dataset, 0, len(s.registry.datasets))
	for name, ds := range s.registry.datasets {
		dss = append(dss, ds)
		delete(s.registry.datasets, name)
	}
	s.registry.mu.Unlock()
	var errs []error
	for _, ds := range dss {
		if ds.maint != nil {
			ds.maint.stop()
		}
		ds.markUnloaded()
		if ds.refs.Load() == 0 {
			// Synchronize with whichever goroutine ran the close, then
			// read its recorded outcome.
			ds.closeOnce.Do(func() {})
			if ds.closeErr != nil {
				errs = append(errs, fmt.Errorf("dataset %s: %w", ds.name, ds.closeErr))
			}
		}
	}
	return errors.Join(errs...)
}

func validDatasetName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for _, c := range []byte(name) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// maxLoadBody bounds a POST /v1/admin/datasets body.
const maxLoadBody = 1 << 20

// loadRequest is the POST /v1/admin/datasets body.
type loadRequest struct {
	// Name registers the dataset for routing (?dataset=name).
	Name string `json:"name"`
	// Path is the server-side file to load: a graph file for the memory
	// backend, an edge file for the semiext backend.
	Path string `json:"path"`
	// Backend selects "memory" (default), "semiext", or "mutable".
	Backend string `json:"backend,omitempty"`
	// Mutable opens the path (an edge file) as a durable mutable dataset;
	// shorthand for Backend "mutable".
	Mutable bool `json:"mutable,omitempty"`
	// Index optionally loads a prebuilt index file; it needs whole-graph
	// access, so only the memory and mutable backends carry one.
	Index string `json:"index,omitempty"`
	// Workers splits the semi-external backend's v2 prefix decodes across
	// up to this many goroutines (see store.WithWorkers); 0 or 1 decodes
	// sequentially. Other backends refuse it.
	Workers int `json:"workers,omitempty"`
	// Reindex selects index maintenance for mutable datasets: "auto"
	// keeps the index current across updates; "off" or empty drops it on
	// the first effective update.
	Reindex string `json:"reindex,omitempty"`
}

// adminAllowed enforces the optional bearer token on admin endpoints.
func (s *Server) adminAllowed(w http.ResponseWriter, r *http.Request) bool {
	if s.adminToken == "" {
		return true
	}
	got := []byte(r.Header.Get("Authorization"))
	want := []byte("Bearer " + s.adminToken)
	if subtle.ConstantTimeCompare(got, want) == 1 {
		return true
	}
	w.Header().Set("WWW-Authenticate", "Bearer")
	writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "admin endpoints need a valid bearer token"})
	return false
}

func (s *Server) handleLoadDataset(w http.ResponseWriter, r *http.Request) {
	if !s.adminAllowed(w, r) {
		return
	}
	var req loadRequest
	// Unknown fields are refused, not ignored: a misspelt option would
	// otherwise load the dataset with defaults and still answer 201.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxLoadBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, bodyStatus(err), map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	if req.Name == "" || req.Path == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "name and path are required"})
		return
	}
	backend := req.Backend
	if req.Mutable {
		if backend != "" && backend != "mutable" {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("mutable conflicts with backend %q", backend)})
			return
		}
		backend = "mutable"
	}
	var opts []store.OpenOption
	if req.Workers != 0 {
		if backend != "semiext" {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "workers splits semi-external decodes; only the semiext backend takes it"})
			return
		}
		opts = append(opts, store.WithWorkers(req.Workers))
	}
	st, err := store.Open(req.Path, backend, opts...)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	cfg := DatasetConfig{Store: st, Reindex: req.Reindex}
	if req.Index != "" {
		g := st.Graph()
		if g == nil {
			st.Close()
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": indexBackendError(st)})
			return
		}
		ix, err := index.Load(req.Index, g)
		if err != nil {
			st.Close()
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		cfg.Index = ix
	}
	ds, err := s.addDataset(req.Name, cfg)
	if err != nil {
		st.Close()
		code := http.StatusBadRequest
		if errors.Is(err, errAlreadyLoaded) {
			code = http.StatusConflict
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, ds.info())
}

func (s *Server) handleUnloadDataset(w http.ResponseWriter, r *http.Request) {
	if !s.adminAllowed(w, r) {
		return
	}
	name := r.PathValue("name")
	if err := s.RemoveDataset(name); err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "unloaded", "dataset": name})
}
