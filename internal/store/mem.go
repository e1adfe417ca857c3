package store

import (
	"context"
	"errors"

	"influcomm/internal/core"
	"influcomm/internal/graph"
)

// Mem is the in-memory backend: the whole graph is resident and queries run
// on pooled engines, so steady-state queries allocate only their results.
type Mem struct {
	g    *graph.Graph
	pool *core.Pool
}

// OpenMem returns the in-memory Store over g.
func OpenMem(g *graph.Graph) (*Mem, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, errors.New("store: nil or empty graph")
	}
	return &Mem{g: g, pool: core.NewPool(g)}, nil
}

// Backend returns "memory".
func (s *Mem) Backend() string { return "memory" }

// NumVertices returns the vertex count.
func (s *Mem) NumVertices() int { return s.g.NumVertices() }

// NumEdges returns the edge count.
func (s *Mem) NumEdges() int64 { return s.g.NumEdges() }

// Graph returns the resident graph.
func (s *Mem) Graph() *graph.Graph { return s.g }

// Pool returns the store's engine pool, so callers that mix store-routed
// and direct pooled queries (batching alongside serving) share warm
// scratch state.
func (s *Mem) Pool() *core.Pool { return s.pool }

// Pin returns the store's pool at epoch 0: the graph never changes.
func (s *Mem) Pin() (core.Searcher, uint64) { return s.pool, 0 }

// TopK answers a query on a pooled engine; equivalent to core.TopKCtx.
func (s *Mem) TopK(ctx context.Context, k int, gamma int32, opts core.Options) (*core.Result, error) {
	return s.pool.TopK(ctx, k, gamma, opts)
}

// Close is a no-op: the graph is owned by the caller.
func (s *Mem) Close() error { return nil }
