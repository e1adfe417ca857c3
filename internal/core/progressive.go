package core

import (
	"context"
	"fmt"

	"influcomm/internal/graph"
)

// Stream runs LocalSearch-P (Algorithm 4): it computes and reports
// influential γ-communities progressively in decreasing influence order,
// invoking yield for each one as soon as it is available. No k needs to be
// specified; iteration ends when yield returns false or the whole graph has
// been processed. The returned Stats describe the portion of the graph
// accessed up to termination, which by §4 is O(size(G≥τ*_k)) when the
// caller stops after k communities — LocalSearch's instance-optimality
// carries over.
func Stream(g *graph.Graph, gamma int32, opts Options, yield func(*Community) bool) (Stats, error) {
	return StreamCtx(context.Background(), g, gamma, opts, yield)
}

// StreamCtx is Stream under a context: cancellation is observed at round
// boundaries and inside rounds every few thousand steps, so a cancelled
// context stops the search promptly between yields. It is StreamOver over
// GraphSource(g).
func StreamCtx(ctx context.Context, g *graph.Graph, gamma int32, opts Options, yield func(*Community) bool) (Stats, error) {
	if g == nil {
		return Stats{}, errNilGraph
	}
	return StreamOver(ctx, GraphSource(g), gamma, opts, yield)
}

// TopKProgressive answers a top-k query with LocalSearch-P, collecting the
// first k streamed communities. It exists so benchmarks can compare the
// progressive and non-progressive algorithms on identical queries
// (Figures 14 and 15).
func TopKProgressive(g *graph.Graph, k int, gamma int32, opts Options) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	res := &Result{}
	st, err := Stream(g, gamma, opts, func(c *Community) bool {
		res.Communities = append(res.Communities, c)
		return len(res.Communities) < k
	})
	if err != nil {
		return nil, err
	}
	res.Stats = st
	return res, nil
}
