package core

import (
	"context"
	"sync"

	"influcomm/internal/graph"
)

// Pool amortizes per-query setup cost for repeated LocalSearch queries over
// one graph. A fresh query through TopK builds four O(n) engine slices and
// per-round CVS buffers; under serving traffic that allocation dominates
// small queries and pressures the GC. A Pool keeps engines (rebound to each
// query's γ on checkout, which subsumes keeping one pool per γ — the
// scratch depends only on the graph) and CVS buffers in sync.Pools, so
// steady-state queries perform zero engine allocations.
//
// A Pool is also the in-memory Searcher and SearchSource over its graph:
// Materialize hands back the pool's graph, so TopKOver and StreamOver run
// every round of a query on one engine checked out of the pool.
//
// A Pool is safe for concurrent use; each checked-out engine is used by one
// goroutine at a time.
type Pool struct {
	g *graph.Graph
	*pools
}

// pools holds a Pool's recycled state apart from its graph, and a pooled
// engine drops its graph until Get binds it again. The runtime keeps every
// sync.Pool used since the last collection reachable through the next one;
// holding the graph, they would keep a superseded snapshot alive that long
// after its last query let go of it.
type pools struct {
	engines sync.Pool // *Engine
	buffers sync.Pool // *CVS
	enums   sync.Pool // *EnumState
}

// NewPool returns a Pool serving queries over g.
func NewPool(g *graph.Graph) *Pool {
	p := &Pool{g: g, pools: &pools{}}
	p.buffers.New = func() any { return new(CVS) }
	return p
}

// Graph returns the pool's graph.
func (p *Pool) Graph() *graph.Graph { return p.g }

// NumVertices, PrefixSize, PrefixForSize and Materialize make the pool a
// SearchSource over its graph.
func (p *Pool) NumVertices() int                      { return p.g.NumVertices() }
func (p *Pool) PrefixSize(n int) int64                { return p.g.PrefixSize(n) }
func (p *Pool) PrefixForSize(want int64) int          { return p.g.PrefixForSize(want) }
func (p *Pool) Materialize(int) (*graph.Graph, error) { return p.g, nil }

// Get checks an engine out of the pool, reset to the given γ. Return it
// with Put when the query is done.
func (p *Pool) Get(gamma int32) *Engine {
	e, _ := p.engines.Get().(*Engine)
	if e == nil {
		e = NewEngine(p.g, 0)
	}
	e.g = p.g
	e.Reset(gamma)
	return e
}

// Put returns an engine obtained from Get to the pool.
func (p *Pool) Put(e *Engine) {
	e.SetContext(nil)
	e.g = nil
	p.engines.Put(e)
}

// TopK answers a top-k query with pooled scratch state: TopKOver over the
// pool's graph, allocation-free in steady state apart from the returned
// Result, which owns its own memory.
func (p *Pool) TopK(ctx context.Context, k int, gamma int32, opts Options) (*Result, error) {
	if p.g == nil {
		return nil, errNilGraph
	}
	return TopKOver(ctx, p, k, gamma, opts)
}

// EnumIC runs EnumIC (Algorithm 3) over the pool's graph on a pooled
// EnumState, which Recycle resets in output-size time, so a call
// allocates only the communities it returns.
func (p *Pool) EnumIC(c *CVS, k int) []*Community {
	enum, _ := p.enums.Get().(*EnumState)
	if enum == nil {
		enum = NewEnumState(p.g.NumVertices())
	}
	comms := enum.Process(p.g, c, k)
	enum.Recycle()
	p.enums.Put(enum)
	return comms
}

// Stream answers a progressive query with a pooled engine: StreamOver
// over the pool, equivalent to StreamCtx. CVS buffers are not reused here
// — the yielded communities retain each round's group slices — so only the
// engine allocation is saved.
func (p *Pool) Stream(ctx context.Context, gamma int32, opts Options, yield func(*Community) bool) (Stats, error) {
	if p.g == nil {
		return Stats{}, errNilGraph
	}
	return StreamOver(ctx, p, gamma, opts, yield)
}
