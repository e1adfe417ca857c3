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
// context stops the search promptly between yields.
func StreamCtx(ctx context.Context, g *graph.Graph, gamma int32, opts Options, yield func(*Community) bool) (Stats, error) {
	if g == nil {
		return Stats{}, errNilGraph
	}
	eng := NewEngine(g, gamma)
	eng.SetContext(ctx)
	return runStream(ctx, eng, opts, yield)
}

// runStream runs LocalSearch-P as rounds of Search over the engine's
// graph; it is shared by StreamCtx and Pool.Stream. Unlike TopKOver it
// never reuses CVS buffers across rounds: progressive enumeration retains
// each round's group slices in the communities it yields, so every round's
// CVS must own its memory.
func runStream(ctx context.Context, eng *Engine, opts Options, yield func(*Community) bool) (Stats, error) {
	g := eng.Graph()
	enum := NewEnumState(g.NumVertices())
	flags := WantSeq
	if opts.NonContainment {
		flags |= WantNC
	}
	yielded := 0
	// k = 1: Line 1 of Algorithm 4 starts from the largest τ that could
	// hold one community; rounds then run until yield stops the search.
	st, err := Search(ctx, g, 1, eng.Gamma(), opts, func(p, prev int) (bool, error) {
		// ConstructCVS (Algorithm 5): only keynodes not already reported
		// in the previous round's prefix are produced, implementing the
		// computation sharing that makes LocalSearch-P no slower than
		// LocalSearch (Figure 15).
		cvs, err := eng.RunInto(nil, p, prev, flags)
		if err != nil {
			return false, err
		}
		var comms []*Community
		if opts.NonContainment {
			comms = nonContainmentCommunities(g, cvs, -1)
		} else {
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
