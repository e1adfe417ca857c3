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
// decodes just enough of its on-disk edge file.
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

// memSource adapts a fully in-memory graph to SearchSource.
type memSource struct{ g *graph.Graph }

func (s memSource) NumVertices() int                      { return s.g.NumVertices() }
func (s memSource) PrefixSize(p int) int64                { return s.g.PrefixSize(p) }
func (s memSource) PrefixForSize(want int64) int          { return s.g.PrefixForSize(want) }
func (s memSource) Materialize(int) (*graph.Graph, error) { return s.g, nil }

// poolSource is a memSource whose graph carries an engine pool: Pool.TopK
// runs TopKOver over it, and TopKOver checks one engine, one CVS buffer
// and the enumeration state out of the pool for the whole query. Like
// memSource it is pointer-shaped, so passing it as a SearchSource does not
// allocate.
type poolSource struct{ p *Pool }

func (s poolSource) NumVertices() int                      { return s.p.g.NumVertices() }
func (s poolSource) PrefixSize(p int) int64                { return s.p.g.PrefixSize(p) }
func (s poolSource) PrefixForSize(want int64) int          { return s.p.g.PrefixForSize(want) }
func (s poolSource) Materialize(int) (*graph.Graph, error) { return s.p.g, nil }

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
	var (
		cnt int
		cvs *CVS
		g   *graph.Graph
		eng *Engine
		// pool, when non-nil, owns eng and scratch: a pooled source always
		// materializes the pool's graph, so the engine and CVS buffer the
		// first round checks out serve every round of the query.
		pool    *Pool
		scratch *CVS
	)
	if ps, ok := src.(poolSource); ok {
		pool = ps.p
	}
	defer func() {
		if pool != nil && eng != nil {
			pool.Put(eng)
			pool.buffers.Put(scratch)
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
		// Engines are bound to one graph: a round that materializes a new
		// graph gets a fresh engine.
		if eng == nil || mg != g {
			g = mg
			if pool != nil {
				eng, scratch = pool.Get(gamma), pool.buffers.Get().(*CVS)
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
		comms = pool.EnumIC(cvs, k)
	default:
		comms = EnumIC(g, cvs, k)
	}
	return &Result{Communities: comms, Stats: st}, nil
}
