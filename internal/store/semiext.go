package store

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/semiext"
)

// SemiExt is the semi-external backend (Eval-VI/VII of the paper): edges
// live on disk sorted in decreasing edge-weight order and only per-vertex
// state — weights, up-degrees, and the prefix-size vector derived from
// them — is resident, O(n) memory for an O(n+m) graph.
//
// The read path is built around zero-copy access and cross-query sharing:
//
//   - The edge file is served through a semiext.View — one memory mapping
//     (with a positioned-read fallback on platforms or files the mapping
//     cannot cover) opened at store creation, so a query pays no os.Open,
//     no header re-parse, and no per-edge decode loop; whole adjacency runs
//     are handed to the O(p+E) CSR assembler as typed slices over the
//     mapping.
//
//   - LocalSearch's geometric growth means virtually every query touches
//     the heavy prefix [0, p), so the store can keep one immutable decoded
//     prefix graph — budgeted by WithPrefixCacheBytes, grown on demand
//     under a singleflight guard, swapped atomically — that all concurrent
//     queries read lock-free, each through pooled engines bound to it.
//     Queries whose growth stays inside the cache are allocation-free in
//     steady state apart from their Result; queries that outgrow it fall
//     back to materializing a private prefix from the view.
//
// Results and access statistics are byte-identical to the in-memory
// backend for the same graph, whichever path serves the query.
type SemiExt struct {
	path string
	mode string // "mmap" or "pread"

	// workers splits v2 bulk prefix decodes across up to this many
	// goroutines; 0 or 1 decodes sequentially.
	workers int

	// view is the shared zero-copy window over the edge file; it also
	// holds the resident per-vertex state the growth policy runs on.
	view *semiext.View

	// cacheBudget caps the decoded-prefix cache's extra resident bytes;
	// maxCacheP is the largest prefix that fits it (0 disables caching).
	cacheBudget int64
	maxCacheP   int
	cache       atomic.Pointer[prefixCache]
	// growSem serializes cache growth (singleflight) as a 1-slot channel
	// rather than a mutex so waiters can abandon the wait when their
	// query's context expires instead of blocking uncancellably behind a
	// large build.
	growSem chan struct{}

	srcPool sync.Pool // *seSource: per-query scratch, reused across queries

	// refs counts in-flight queries; the mapping is released only once the
	// store is closed and the last query has drained, so a zero-copy slice
	// can never outlive its mapping.
	refs      atomic.Int64
	closed    atomic.Bool
	closeOnce sync.Once
}

// prefixCache is one immutable decoded prefix [0, p) shared by every query
// that fits in it, with an engine pool bound to its graph. Growth builds a
// new prefixCache and swaps the pointer; queries holding the old one finish
// on it unaffected.
type prefixCache struct {
	p    int
	g    *graph.Graph
	pool *core.Pool
}

// OpenOption configures Open and OpenEdgeFile.
type OpenOption func(*openConfig)

type openConfig struct {
	prefixCacheBytes int64
	workers          int
}

// WithPrefixCacheBytes budgets the semi-external decoded-prefix cache: the
// store keeps up to n extra resident bytes of decoded CSR covering the
// heavy prefix every LocalSearch query starts in. 0 (the default) disables
// the cache, preserving the strict O(n)-resident semi-external model; a
// budget of at least the decoded file size lets the cache grow to the
// whole graph, making steady-state queries as fast as the in-memory
// backend. Ignored by the memory backend.
func WithPrefixCacheBytes(n int64) OpenOption {
	return func(c *openConfig) { c.prefixCacheBytes = n }
}

// WithWorkers splits the semi-external backend's bulk prefix decodes of
// compressed (v2) edge files across up to n goroutines. Results are
// byte-identical at any setting. 0 or 1 (the default) decodes
// sequentially: on two cores a split halves a whole-file decode but leaves
// serving latency unchanged (docs/OPERATIONS.md). Ignored by the memory
// backend.
func WithWorkers(n int) OpenOption {
	return func(c *openConfig) { c.workers = n }
}

// OpenEdgeFile opens a semi-external edge file written by
// semiext.WriteEdgeFile (format v1 or v2, detected from the header) and
// loads its per-vertex state.
func OpenEdgeFile(path string, opts ...OpenOption) (*SemiExt, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.prefixCacheBytes < 0 {
		return nil, fmt.Errorf("store: negative prefix-cache budget %d", cfg.prefixCacheBytes)
	}
	if cfg.workers < 0 {
		return nil, fmt.Errorf("store: negative worker count %d", cfg.workers)
	}
	v, err := semiext.OpenView(path)
	if err != nil {
		return nil, err
	}
	s := &SemiExt{path: path, mode: "pread", workers: cfg.workers, view: v, cacheBudget: cfg.prefixCacheBytes}
	if v.Mapped() {
		s.mode = "mmap"
	}
	if s.cacheBudget > 0 {
		// Largest prefix whose decoded CSR fits the budget; estCacheBytes
		// is monotone in p, so the frontier is a binary search.
		n := v.NumVertices()
		s.maxCacheP = sort.Search(n, func(p int) bool { return s.estCacheBytes(p+1) > s.cacheBudget })
	}
	s.growSem = make(chan struct{}, 1)
	s.srcPool.New = func() any { return &seSource{st: s} }
	return s, nil
}

// estCacheBytes estimates the extra resident bytes of a decoded prefix
// [0, p): the offset and up-prefix arrays plus both CSR directions of every
// edge. Weights and up-degrees alias the store's already-resident vectors
// and cost nothing extra; pooled engines (O(p) each, bounded by query
// concurrency) are deliberately not charged to the budget.
func (s *SemiExt) estCacheBytes(p int) int64 {
	return 16*int64(p+1) + 8*(s.view.PrefixSize(p)-int64(p))
}

// Backend returns "semiext".
func (s *SemiExt) Backend() string { return "semiext" }

// Mode reports how the edge file is accessed: "mmap" (zero-copy mapping)
// or "pread" (positioned reads on platforms or files without the mapping).
func (s *SemiExt) Mode() string { return s.mode }

// Format returns the edge-file format version the store serves:
// semiext.FormatV1 (fixed-width adjacency) or semiext.FormatV2 (delta-gap
// varint compressed adjacency).
func (s *SemiExt) Format() int { return s.view.Format() }

// Workers returns the v2 decode split (0 or 1 means sequential decodes).
func (s *SemiExt) Workers() int { return s.workers }

// NumVertices returns the vertex count.
func (s *SemiExt) NumVertices() int { return s.view.NumVertices() }

// NumEdges returns the edge count.
func (s *SemiExt) NumEdges() int64 { return s.view.NumEdges() }

// Path returns the edge file the store reads from.
func (s *SemiExt) Path() string { return s.path }

// Graph returns nil: the backend never holds the whole graph.
func (s *SemiExt) Graph() *graph.Graph { return nil }

// CachedPrefix reports how many vertices the decoded-prefix cache currently
// covers; 0 when disabled or not yet grown.
func (s *SemiExt) CachedPrefix() int {
	if c := s.cache.Load(); c != nil {
		return c.p
	}
	return 0
}

// TopK answers a query through the generic LocalSearch driver over
// whichever access path serves it best: the shared decoded-prefix cache
// when the query fits, the zero-copy view otherwise. Communities and
// access statistics are identical to an in-memory query over the same
// graph.
func (s *SemiExt) TopK(ctx context.Context, k int, gamma int32, opts core.Options) (*core.Result, error) {
	// Pin the store before re-checking closed: Close only releases the
	// mapping once the reference count drains, so a query that got its
	// reference in can never observe a dead mapping.
	s.refs.Add(1)
	defer s.release()
	if s.closed.Load() {
		return nil, fmt.Errorf("store: %s is closed", s.path)
	}
	src := s.srcPool.Get().(*seSource)
	src.ctx = ctx
	defer s.putSource(src)
	return core.TopKOver(ctx, src, k, gamma, opts)
}

// maxPooledScratchBytes caps how much private-build scratch a pooled
// source may retain between queries. Without a cap, one k≈n query on a
// large graph would pin O(m)-sized buffers per pooled source indefinitely
// — exactly the resident footprint the semi-external model exists to
// avoid. Oversized scratch is dropped; the occasional deep query pays a
// reallocation, the steady state stays bounded.
const maxPooledScratchBytes = 32 << 20

func (s *SemiExt) putSource(q *seSource) {
	q.ctx = nil
	if q.scratchBytes() > maxPooledScratchBytes {
		q.csr = graph.PrefixScratch{}
		q.adjBuf = nil
	}
	s.srcPool.Put(q)
}

func (s *SemiExt) release() {
	if s.refs.Add(-1) == 0 && s.closed.Load() {
		s.closeOnce.Do(s.closeResources)
	}
}

// Close marks the store closed; subsequent queries fail, in-flight queries
// complete normally — the mapping is released only after the last one
// drains.
func (s *SemiExt) Close() error {
	s.closed.Store(true)
	if s.refs.Load() == 0 {
		s.closeOnce.Do(s.closeResources)
	}
	return nil
}

func (s *SemiExt) closeResources() {
	s.view.Close()
}

// growCache extends the decoded-prefix cache to cover at least p and
// returns the new cache graph, or (nil, nil) when p does not fit the
// budget. One grower builds at a time; racers re-check once admitted and
// adopt the freshly swapped cache instead of rebuilding, and a waiter
// whose context expires abandons the wait with ctx.Err(). The build
// itself — one bulk decode+assembly at memory speed — is the one
// uninterruptible unit.
func (s *SemiExt) growCache(ctx context.Context, p int) (*graph.Graph, error) {
	if p > s.maxCacheP {
		return nil, nil
	}
	select {
	case s.growSem <- struct{}{}:
		defer func() { <-s.growSem }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if c := s.cache.Load(); c != nil && c.p >= p {
		return c.g, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Overshoot geometrically (cover 2× the requested size, clamped to the
	// budget) so consecutive query rounds don't each trigger a rebuild;
	// total rebuild work stays linear in the final cached size.
	target := s.view.PrefixForSize(2 * s.view.PrefixSize(p))
	if target > s.maxCacheP {
		target = s.maxCacheP
	}
	if target < p {
		target = p
	}
	g, err := s.view.PrefixGraph(target, s.workers, nil, nil)
	if err != nil {
		return nil, err
	}
	s.cache.Store(&prefixCache{p: target, g: g, pool: core.NewPool(g)})
	return g, nil
}

// seSource adapts the store to core.SearchSource for one query. It is
// pooled: the CSR scratch and decode buffer are reused by later queries
// once the query returns.
type seSource struct {
	st  *SemiExt
	ctx context.Context

	// Private-build state, used only by rounds that outgrow (or bypass)
	// the cache. The graphs built into csr alias its arrays, so the
	// scratch is reused only across rounds/queries, never while such a
	// graph is still referenced.
	csr    graph.PrefixScratch
	adjBuf []int32 // bulk-decode target when the view cannot alias the mapping
}

// scratchBytes is the memory the source would keep alive while pooled.
func (q *seSource) scratchBytes() int64 {
	return q.csr.Bytes() + 4*int64(cap(q.adjBuf))
}

func (q *seSource) NumVertices() int { return q.st.view.NumVertices() }

func (q *seSource) PrefixSize(p int) int64 { return q.st.view.PrefixSize(p) }

func (q *seSource) PrefixForSize(want int64) int { return q.st.view.PrefixForSize(want) }

// Materialize returns an in-memory graph covering at least the prefix
// [0, p): the shared cache when p fits (growing it if the budget allows),
// a query-private build otherwise.
func (q *seSource) Materialize(p int) (*graph.Graph, error) {
	if c := q.st.cache.Load(); c != nil && p <= c.p {
		return c.g, nil
	}
	if g, err := q.st.growCache(q.ctx, p); g != nil || err != nil {
		return g, err
	}
	if err := q.ctx.Err(); err != nil {
		return nil, err
	}
	return q.st.view.PrefixGraph(p, q.st.workers, &q.adjBuf, &q.csr)
}

// SourcePool hands TopKOver the engine pool bound to the shared cache
// graph, so cache-fitting queries check pooled engines, CVS buffers, and
// enumeration state out instead of allocating per query.
func (q *seSource) SourcePool(g *graph.Graph) *core.Pool {
	if c := q.st.cache.Load(); c != nil && c.g == g {
		return c.pool
	}
	return nil
}
