package store

import (
	"context"
	"fmt"
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
// The edge file is served through one semiext.View — a memory mapping
// (with a positioned-read fallback on platforms or files the mapping
// cannot cover) opened at store creation, so a query pays no os.Open, no
// header re-parse, and no per-edge decode loop on v1 files: whole
// adjacency runs are handed to the O(p+E) CSR assembler as typed slices
// over the mapping. Each query round decodes just the prefix [0, p) the
// growth has reached into pooled per-query scratch.
//
// Results and access statistics are byte-identical to the in-memory
// backend for the same graph.
type SemiExt struct {
	path string
	mode string // "mmap" or "pread"

	// workers splits v2 bulk prefix decodes across up to this many
	// goroutines; 0 or 1 decodes sequentially.
	workers int

	// view is the shared zero-copy window over the edge file; it also
	// holds the resident per-vertex state the growth policy runs on.
	view *semiext.View

	srcPool sync.Pool // *semiext.Source: per-query scratch, reused across queries

	// refs counts in-flight queries; the mapping is released only once the
	// store is closed and the last query has drained, so a zero-copy slice
	// can never outlive its mapping.
	refs      atomic.Int64
	closed    atomic.Bool
	closeOnce sync.Once
}

// OpenOption configures Open and OpenEdgeFile.
type OpenOption func(*openConfig)

type openConfig struct {
	workers int
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
	if cfg.workers < 0 {
		return nil, fmt.Errorf("store: negative worker count %d", cfg.workers)
	}
	v, err := semiext.OpenView(path)
	if err != nil {
		return nil, err
	}
	s := &SemiExt{path: path, mode: "pread", workers: cfg.workers, view: v}
	if v.Mapped() {
		s.mode = "mmap"
	}
	s.srcPool.New = func() any { return &semiext.Source{View: v, Workers: cfg.workers} }
	return s, nil
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

// Pin returns the store itself at epoch 0: the edge file never changes.
func (s *SemiExt) Pin() (core.Searcher, uint64) { return s, 0 }

// TopK answers a query through the generic LocalSearch driver over the
// shared view. Communities and access statistics are identical to an
// in-memory query over the same graph.
func (s *SemiExt) TopK(ctx context.Context, k int, gamma int32, opts core.Options) (*core.Result, error) {
	src, err := s.checkout()
	if err != nil {
		return nil, err
	}
	defer s.checkin(src)
	return core.TopKOver(ctx, src, k, gamma, opts)
}

// Stream answers a progressive query (LocalSearch-P) over the shared view:
// each round decodes only the prefix the stream has grown to, so a stream
// stopped after its first communities reads only as far into the edge
// file as they need. Communities and access statistics are identical to
// an in-memory stream over the same graph.
func (s *SemiExt) Stream(ctx context.Context, gamma int32, opts core.Options, yield func(*core.Community) bool) (core.Stats, error) {
	src, err := s.checkout()
	if err != nil {
		return core.Stats{}, err
	}
	defer s.checkin(src)
	return core.StreamOver(ctx, src, gamma, opts, yield)
}

// checkout pins the store for one query and checks a pooled source out
// for it; checkin returns both. The store is pinned before closed is
// re-checked: Close only releases the mapping once the reference count
// drains, so a query that got its reference in can never observe a dead
// mapping.
func (s *SemiExt) checkout() (*semiext.Source, error) {
	s.refs.Add(1)
	if s.closed.Load() {
		s.release()
		return nil, fmt.Errorf("store: %s is closed", s.path)
	}
	return s.srcPool.Get().(*semiext.Source), nil
}

func (s *SemiExt) checkin(src *semiext.Source) {
	s.putSource(src)
	s.release()
}

// maxPooledScratchBytes caps how much decode and CSR scratch a pooled
// source may retain between queries. Without a cap, one k≈n query on a
// large graph would pin O(m)-sized buffers per pooled source indefinitely
// — exactly the resident footprint the semi-external model exists to
// avoid. Oversized scratch is dropped; the occasional deep query pays a
// reallocation, the steady state stays bounded.
const maxPooledScratchBytes = 32 << 20

func (s *SemiExt) putSource(src *semiext.Source) {
	if src.ScratchBytes() > maxPooledScratchBytes {
		src.DropScratch()
	}
	s.srcPool.Put(src)
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
