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

// GraphSource returns the SearchSource view of an in-memory graph:
// Materialize hands back g itself, so TopKOver over it is exactly TopKCtx.
func GraphSource(g *graph.Graph) SearchSource { return memSource{g} }

// Searcher answers queries over one pinned snapshot of a graph: the
// executor's whole view of a dataset. Graph is the whole in-memory graph
// when the backend holds one and nil otherwise; TopK is LocalSearch and
// Stream is LocalSearch-P over the snapshot. *Pool is the in-memory
// Searcher; store.Store.Pin hands one out per request.
type Searcher interface {
	Graph() *graph.Graph
	TopK(ctx context.Context, k int, gamma int32, opts Options) (*Result, error)
	Stream(ctx context.Context, gamma int32, opts Options, yield func(*Community) bool) (Stats, error)
}

// roundEngine applies the engine rule TopKOver and StreamOver share.
// Engines are bound to one graph, so a round that materializes a new graph
// gets a fresh engine. A *Pool source always materializes its own graph,
// so one engine checked out of the pool serves every round of the query.
type roundEngine struct {
	pool *Pool // non-nil when the source is a pool; it owns eng
	eng  *Engine
}

func newRoundEngine(src SearchSource) roundEngine {
	pool, _ := src.(*Pool)
	return roundEngine{pool: pool}
}

// materialize returns the graph src materializes for the prefix [0, p) and
// the engine bound to it.
func (r *roundEngine) materialize(ctx context.Context, src SearchSource, p int, gamma int32) (*graph.Graph, *Engine, error) {
	g, err := src.Materialize(p)
	if err != nil {
		return nil, nil, err
	}
	if g.NumVertices() < p {
		return nil, nil, fmt.Errorf("core: source materialized %d vertices, prefix needs %d", g.NumVertices(), p)
	}
	if r.eng == nil || r.eng.Graph() != g {
		if r.pool != nil {
			r.eng = r.pool.Get(gamma)
		} else {
			r.eng = NewEngine(g, gamma)
		}
		r.eng.SetContext(ctx)
	}
	return g, r.eng, nil
}

// release returns a pooled engine to its pool.
func (r *roundEngine) release() {
	if r.pool != nil && r.eng != nil {
		r.pool.Put(r.eng)
	}
}

// TopKOver runs LocalSearch (Algorithm 1) against an arbitrary SearchSource:
// the rounds of Search, each running CountIC on whatever graph the source
// materializes for the prefix. Over GraphSource it is equivalent to
// TopKCtx; over a semi-external source the full graph is never loaded —
// each round touches only the prefix the search has grown to, which is how
// a query can execute against a graph larger than RAM. Over a *Pool the
// query also runs on one pooled CVS buffer and a pooled enumeration state.
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
		// scratch is the pool's CVS buffer, checked out with its engine.
		scratch *CVS
	)
	engines := newRoundEngine(src)
	pool := engines.pool
	defer func() {
		engines.release()
		if scratch != nil {
			pool.buffers.Put(scratch)
		}
	}()
	st, err := Search(ctx, src, k, gamma, opts, func(p, _ int) (bool, error) {
		var err error
		if g, eng, err = engines.materialize(ctx, src, p, gamma); err != nil {
			return false, err
		}
		if pool != nil && scratch == nil {
			scratch = pool.buffers.Get().(*CVS)
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

	// The communities retain their group slices, so they get copies of
	// exactly the groups they hold: the final round's whole sequence (or
	// the pooled buffer, which goes back to the pool) stays out of the
	// answer, whatever the source.
	var comms []*Community
	switch {
	case opts.NonContainment:
		comms = nonContainmentCommunities(g, cvs, k)
	case pool != nil:
		comms = pool.EnumIC(cvs.CompactTail(k), k)
	default:
		comms = EnumIC(g, cvs.CompactTail(k), k)
	}
	return &Result{Communities: comms, Stats: st}, nil
}

// StreamOver runs LocalSearch-P (Algorithm 4) against an arbitrary
// SearchSource: the rounds of Search with k = 1, each running ConstructCVS
// (Algorithm 5) on the graph the source materializes for the prefix and
// yielding the round's new communities in decreasing influence order,
// until yield returns false or the whole graph has been processed. Over a
// semi-external source the stream reads only as far into the edge file as
// the communities it has yielded require.
//
// One EnumState carries across rounds even when every round materializes
// a new graph. That is exact: EnumState.Process reads only ranks below the
// keynode, and every round's graph holds those vertices with the same
// weights and edges. Unlike TopKOver, no CVS buffer is reused: the
// yielded communities retain each round's group slices.
func StreamOver(ctx context.Context, src SearchSource, gamma int32, opts Options, yield func(*Community) bool) (Stats, error) {
	flags := WantSeq
	if opts.NonContainment {
		flags |= WantNC
	}
	var enum *EnumState
	engines := newRoundEngine(src)
	defer engines.release()
	yielded := 0
	// k = 1: Line 1 of Algorithm 4 starts from the largest τ that could
	// hold one community; rounds then run until yield stops the search.
	st, err := Search(ctx, src, 1, gamma, opts, func(p, prev int) (bool, error) {
		g, eng, err := engines.materialize(ctx, src, p, gamma)
		if err != nil {
			return false, err
		}
		// Only keynodes not already reported in the previous round's
		// prefix are produced: the computation sharing that makes
		// LocalSearch-P no slower than LocalSearch (Figure 15).
		cvs, err := eng.RunInto(nil, p, prev, flags)
		if err != nil {
			return false, err
		}
		var comms []*Community
		if opts.NonContainment {
			comms = nonContainmentCommunities(g, cvs, -1)
		} else {
			if enum == nil {
				enum = NewEnumState(src.NumVertices())
			}
			comms = enum.Process(g, cvs, -1)
		}
		for _, c := range comms {
			yielded++
			if !yield(c) {
				return true, nil
			}
		}
		return false, nil
	})
	st.Communities = yielded
	return st, err
}
