package core

import (
	"context"
	"fmt"

	"influcomm/internal/graph"
)

// SearchSource abstracts where the ranked graph lives for LocalSearch. The
// driver only ever inspects prefix subgraphs G≥τ, so a backend needs two
// capabilities: the prefix-size geometry (PrefixSizer, answerable from O(n)
// per-vertex state) and the ability to materialize a prefix in memory. The
// in-memory source is the graph itself at zero cost; a semi-external source
// streams just enough of its on-disk edge file.
type SearchSource interface {
	PrefixSizer

	// Materialize returns an in-memory graph covering at least the prefix
	// [0, p). Vertex IDs equal global weight ranks, so vertex u < p of the
	// returned graph is vertex u of the backing graph with the same weight
	// and the same prefix-internal edges. Implementations may return a
	// graph larger than requested (the in-memory source returns the whole
	// graph) and may reuse the returned value across calls; the driver
	// detects reuse by pointer identity.
	Materialize(p int) (*graph.Graph, error)
}

// PooledSource is an optional SearchSource extension: a source whose
// Materialize hands out a long-lived shared graph (an in-memory graph, a
// semi-external store's decoded prefix cache) also exposes the engine pool
// bound to that graph, and TopKOver then checks engines, CVS buffers, and
// enumeration state out of it instead of allocating O(p) scratch per query
// — the difference between a serving hot path that allocates only its
// Result and one that rebuilds four vertex-sized slices per request.
type PooledSource interface {
	// SourcePool returns the pool whose engines are bound to exactly g, or
	// nil when g is query-private and must get a fresh engine.
	SourcePool(g *graph.Graph) *Pool
}

// memSource adapts a fully in-memory graph to SearchSource.
type memSource struct{ g *graph.Graph }

func (s memSource) NumVertices() int                      { return s.g.NumVertices() }
func (s memSource) PrefixSize(p int) int64                { return s.g.PrefixSize(p) }
func (s memSource) PrefixForSize(want int64) int          { return s.g.PrefixForSize(want) }
func (s memSource) Materialize(int) (*graph.Graph, error) { return s.g, nil }

// poolSource is a memSource whose graph carries an engine pool: Pool.TopK
// runs TopKOver over it, so pooled queries check engines, CVS buffers and
// enumeration state out of the pool. Like memSource it is pointer-shaped,
// so passing it as a SearchSource does not allocate.
type poolSource struct{ p *Pool }

func (s poolSource) NumVertices() int                      { return s.p.g.NumVertices() }
func (s poolSource) PrefixSize(p int) int64                { return s.p.g.PrefixSize(p) }
func (s poolSource) PrefixForSize(want int64) int          { return s.p.g.PrefixForSize(want) }
func (s poolSource) Materialize(int) (*graph.Graph, error) { return s.p.g, nil }
func (s poolSource) SourcePool(*graph.Graph) *Pool         { return s.p }

// GraphSource returns the SearchSource view of an in-memory graph:
// Materialize hands back g itself, so TopKOver over it is exactly TopKCtx.
func GraphSource(g *graph.Graph) SearchSource { return memSource{g} }

// TopKOver runs LocalSearch (Algorithm 1) against an arbitrary SearchSource:
// the rounds of Search, each running CountIC on whatever graph the source
// materializes for the prefix. Over GraphSource it is equivalent to
// TopKCtx; over a semi-external source the full graph is never loaded —
// each round touches only the prefix the search has grown to, which is how
// a query can execute against a graph larger than RAM.
func TopKOver(ctx context.Context, src SearchSource, k int, gamma int32, opts Options) (*Result, error) {
	flags := WantSeq
	if opts.NonContainment {
		flags |= WantNC
	}
	ps, _ := src.(PooledSource)
	var (
		cnt int
		cvs *CVS
		g   *graph.Graph
		eng *Engine
		// pool, when non-nil, owns eng (invariant: eng came from pool.Get
		// and goes back with pool.Put). scratchPool likewise owns scratch;
		// the CVS buffer only depends on output size, so it is kept across
		// graph changes and returned to the pool it came from.
		pool        *Pool
		scratch     *CVS
		scratchPool *Pool
	)
	defer func() {
		if pool != nil && eng != nil {
			pool.Put(eng)
		}
		if scratchPool != nil && scratch != nil {
			scratchPool.buffers.Put(scratch)
		}
	}()
	st, err := Search(ctx, src, k, gamma, opts, func(p, _ int) (bool, error) {
		mg, err := src.Materialize(p)
		if err != nil {
			return false, err
		}
		if mg.NumVertices() < p {
			return false, fmt.Errorf("core: source materialized %d vertices, prefix needs %d", mg.NumVertices(), p)
		}
		// Engines are bound to one graph; reuse only while the source keeps
		// returning the same one (the in-memory case, or a cached prefix
		// large enough for every round of this query).
		if eng == nil || mg != g {
			if pool != nil {
				pool.Put(eng)
			}
			g = mg
			pool = nil
			if ps != nil {
				pool = ps.SourcePool(g)
			}
			if pool != nil {
				eng = pool.Get(gamma)
				if scratch == nil {
					scratchPool = pool
					scratch = pool.buffers.Get().(*CVS)
				}
			} else {
				eng = NewEngine(g, gamma)
			}
			eng.SetContext(ctx)
		}
		cvs, err = eng.RunInto(scratch, p, 0, flags)
		if err != nil {
			return false, err
		}
		cnt = countOf(cvs, opts.NonContainment)
		return cnt >= k, nil
	})
	if err != nil {
		return nil, err
	}
	st.Communities = cnt

	if scratch != nil {
		// cvs aliases the pooled buffer; enumeration retains group slices,
		// so hand it a compact copy and let the buffer go back to the pool.
		// Non-containment keynodes are sparse among all keynodes, so the
		// whole tail may be needed to collect k of them.
		if opts.NonContainment {
			cvs = cvs.CompactTail(-1)
		} else {
			cvs = cvs.CompactTail(k)
		}
	}
	var comms []*Community
	switch {
	case opts.NonContainment:
		comms = nonContainmentCommunities(g, cvs, k)
	case pool != nil:
		enum := pool.enums.Get().(*EnumState)
		comms = enum.Process(g, cvs, k)
		enum.Recycle()
		pool.enums.Put(enum)
	default:
		comms = EnumIC(g, cvs, k)
	}
	return &Result{Communities: comms, Stats: st}, nil
}
