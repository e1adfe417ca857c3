// Package influcomm is a Go implementation of "An Optimal and Progressive
// Approach to Online Search of Top-K Influential Communities" (Bi, Chang,
// Lin, Zhang; VLDB 2018). It answers top-k influential γ-community queries
// over vertex-weighted graphs with the instance-optimal LocalSearch
// algorithm, streams results progressively in decreasing influence order
// with LocalSearch-P, and extends both to non-containment semantics and the
// k-truss cohesiveness measure.
//
// # Quick start
//
//	g, err := influcomm.LoadGraph("graph.txt") // or build with a Builder
//	res, err := influcomm.TopK(g, 10, 5)       // top-10, γ = 5
//	for _, c := range res.Communities {
//	    fmt.Println(c.Influence(), c.Size())
//	}
//
// Vertices are identified by weight rank: ID 0 is the heaviest vertex. Use
// Graph.OrigID and Graph.Label to map results back to input identifiers.
package influcomm

import (
	"context"
	"fmt"
	"io"
	"os"

	"influcomm/internal/atomicio"
	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/pagerank"
	"influcomm/internal/queryweight"
	"influcomm/internal/store"
	"influcomm/internal/truss"
)

// Graph is an immutable vertex-weighted undirected graph, stored in
// decreasing weight order. Build one with a Builder or load one with
// LoadGraph / ReadGraph.
type Graph = graph.Graph

// Builder accumulates vertices, weights and edges and produces a Graph.
type Builder = graph.Builder

// Community is an influential γ-community: a node of the community
// containment forest with its influence value, keynode, and nested
// children.
type Community = core.Community

// TrussCommunity is an influential γ-truss community (§5.2 semantics). It
// is Community: truss communities that share a vertex are nested, so they
// form the same containment forest.
type TrussCommunity = Community

// Options tunes the LocalSearch algorithms; the zero value uses the
// paper's recommended settings (growth ratio δ = 2, (k+γ)-heuristic start).
type Options = core.Options

// Result bundles the communities of a query with access statistics.
type Result = core.Result

// Stats describes how much of the graph a query touched.
type Stats = core.Stats

// TopK returns the k influential γ-communities of g with the highest
// influence values, in decreasing influence order, using the
// instance-optimal LocalSearch algorithm (Algorithm 1 of the paper). Fewer
// than k communities are returned when the graph has fewer.
func TopK(g *Graph, k int, gamma int) (*Result, error) {
	return core.TopK(g, k, int32(gamma), core.Options{})
}

// TopKWithOptions is TopK with explicit algorithm options (growth ratio,
// initial prefix, non-containment semantics).
func TopKWithOptions(g *Graph, k int, gamma int, opts Options) (*Result, error) {
	return core.TopK(g, k, int32(gamma), opts)
}

// Stream progressively computes and reports the influential γ-communities
// of g in decreasing influence order (LocalSearch-P, Algorithm 4). yield is
// invoked for each community as soon as it is available; return false to
// stop. No k needs to be specified.
func Stream(g *Graph, gamma int, yield func(*Community) bool) (Stats, error) {
	return core.Stream(g, int32(gamma), core.Options{}, yield)
}

// StreamWithOptions is Stream with explicit algorithm options.
func StreamWithOptions(g *Graph, gamma int, opts Options, yield func(*Community) bool) (Stats, error) {
	return core.Stream(g, int32(gamma), opts, yield)
}

// TopKContext is TopK under a context: the search observes cancellation at
// round boundaries and every few thousand peeling steps inside a round, so
// a call with an already-expired deadline returns ctx.Err() promptly and a
// cancelled request stops the search mid-query.
func TopKContext(ctx context.Context, g *Graph, k int, gamma int) (*Result, error) {
	return core.TopKCtx(ctx, g, k, int32(gamma), core.Options{})
}

// TopKContextWithOptions is TopKContext with explicit algorithm options.
func TopKContextWithOptions(ctx context.Context, g *Graph, k int, gamma int, opts Options) (*Result, error) {
	return core.TopKCtx(ctx, g, k, int32(gamma), opts)
}

// StreamContext is Stream under a context: cancellation stops the
// progressive search between yields, returning ctx.Err().
func StreamContext(ctx context.Context, g *Graph, gamma int, yield func(*Community) bool) (Stats, error) {
	return core.StreamCtx(ctx, g, int32(gamma), core.Options{}, yield)
}

// StreamContextWithOptions is StreamContext with explicit algorithm options.
func StreamContextWithOptions(ctx context.Context, g *Graph, gamma int, opts Options, yield func(*Community) bool) (Stats, error) {
	return core.StreamCtx(ctx, g, int32(gamma), opts, yield)
}

// QueryPool amortizes per-query setup for repeated queries over one graph:
// search engines (four O(n) scratch slices each) and round buffers are
// pooled and reused, so steady-state queries allocate only their results.
// Use one QueryPool per graph for serving workloads; it is safe for
// concurrent use. A QueryPool is the in-memory Store backend under its
// original name — Store exposes the same pooled path for serving stacks
// that mix backends.
type QueryPool struct {
	g  *Graph
	st *store.Mem
}

// NewQueryPool returns a QueryPool answering queries over g.
func NewQueryPool(g *Graph) *QueryPool {
	st, _ := store.OpenMem(g) // nil/empty graphs report their error per query
	return &QueryPool{g: g, st: st}
}

// Graph returns the pool's graph.
func (q *QueryPool) Graph() *Graph { return q.g }

// Store returns the pool as the in-memory Store backend.
func (q *QueryPool) Store() Store { return q.st }

// TopK answers a top-k query with pooled scratch state; semantically
// identical to TopKContext.
func (q *QueryPool) TopK(ctx context.Context, k int, gamma int) (*Result, error) {
	return q.TopKWithOptions(ctx, k, gamma, Options{})
}

// TopKWithOptions is TopK with explicit algorithm options.
func (q *QueryPool) TopKWithOptions(ctx context.Context, k int, gamma int, opts Options) (*Result, error) {
	if q.st == nil {
		return core.TopKCtx(ctx, q.g, k, int32(gamma), opts) // reports the nil/empty-graph error
	}
	return q.st.TopK(ctx, k, int32(gamma), opts)
}

// Stream answers a progressive query with a pooled engine; semantically
// identical to StreamContext.
func (q *QueryPool) Stream(ctx context.Context, gamma int, yield func(*Community) bool) (Stats, error) {
	if q.st == nil {
		return core.StreamCtx(ctx, q.g, int32(gamma), core.Options{}, yield)
	}
	return q.st.Pool().Stream(ctx, int32(gamma), core.Options{}, yield)
}

// TopKNonContainment returns the top-k non-containment influential
// γ-communities (§5.1): communities with no nested sub-community. The
// result set is pairwise disjoint.
func TopKNonContainment(g *Graph, k int, gamma int) (*Result, error) {
	return core.TopK(g, k, int32(gamma), core.Options{NonContainment: true})
}

// TopKTruss returns the top-k influential γ-truss communities (§5.2):
// cohesiveness requires every edge to close at least γ−2 triangles.
func TopKTruss(g *Graph, k int, gamma int) ([]*TrussCommunity, error) {
	res, err := truss.LocalSearch(truss.NewIndex(g), k, int32(gamma))
	if err != nil {
		return nil, err
	}
	return res.Communities, nil
}

// StreamTruss progressively reports influential γ-truss communities in
// decreasing influence order, the §4 progressive technique applied to the
// truss measure; yield returning false stops the search.
func StreamTruss(g *Graph, gamma int, yield func(*TrussCommunity) bool) error {
	_, err := truss.Stream(truss.NewIndex(g), int32(gamma), yield)
	return err
}

// TopKTrussContext is TopKTruss under a context: cancellation is observed
// at round boundaries and inside the truss peeling loops.
func TopKTrussContext(ctx context.Context, g *Graph, k int, gamma int) ([]*TrussCommunity, error) {
	res, err := truss.LocalSearchCtx(ctx, truss.NewIndex(g), k, int32(gamma))
	if err != nil {
		return nil, err
	}
	return res.Communities, nil
}

// StreamTrussContext is StreamTruss under a context.
func StreamTrussContext(ctx context.Context, g *Graph, gamma int, yield func(*TrussCommunity) bool) error {
	_, err := truss.StreamCtx(ctx, truss.NewIndex(g), int32(gamma), yield)
	return err
}

// PageRankWeights returns a copy of g whose vertex weights are PageRank
// scores (damping 0.85), the weighting the paper's experiments use.
func PageRankWeights(g *Graph) (*Graph, error) {
	return pagerank.Reweight(g, pagerank.Options{})
}

// TopKNearQuery answers a query-centric top-k search (the extension of the
// paper's footnote 1): vertex weights are computed online as the
// reciprocal shortest distance to the seed vertices, so the reported
// communities are the most cohesive groups closest to the seeds. Seeds are
// rank IDs of g; the returned graph's OrigID maps community members back
// to g's original identifiers.
func TopKNearQuery(g *Graph, seeds []int32, k int, gamma int) (*Graph, *Result, error) {
	rw, err := queryweight.Reweight(g, seeds)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.TopK(rw, k, int32(gamma), core.Options{})
	if err != nil {
		return nil, nil, err
	}
	return rw, res, nil
}

// ReadGraph parses a graph from r in the text format of WriteGraph
// ("v id weight" and "e u v" lines; bare "u v" edge lines are accepted with
// unit weights).
func ReadGraph(r io.Reader) (*Graph, error) {
	return graph.ReadText(r)
}

// WriteGraph serializes g to w in the text format accepted by ReadGraph.
func WriteGraph(w io.Writer, g *Graph) error {
	return graph.WriteText(w, g)
}

// LoadGraph reads a graph from the file at path; files ending in ".bin"
// use the compact binary format, anything else the text format.
func LoadGraph(path string) (*Graph, error) {
	g, err := graph.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("influcomm: loading %s: %w", path, err)
	}
	return g, nil
}

// SaveGraph writes g to the file at path, choosing the format by extension
// as in LoadGraph. Like SaveIndex, the write is atomic (temporary file plus
// rename), so an interrupted save never truncates a graph file in place.
func SaveGraph(path string, g *Graph) error {
	err := atomicio.WriteFile(path, func(f *os.File) error {
		if isBinaryPath(path) {
			return graph.WriteBinary(f, g)
		}
		return graph.WriteText(f, g)
	})
	if err != nil {
		return fmt.Errorf("influcomm: saving graph: %w", err)
	}
	return nil
}

func isBinaryPath(path string) bool { return graph.IsBinaryPath(path) }
