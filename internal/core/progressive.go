package core

import (
	"context"

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
	var st Stats
	if err := validateQuery(g, 1, gamma); err != nil {
		return st, err
	}
	if err := opts.validate(); err != nil {
		return st, err
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	eng := NewEngine(g, gamma)
	eng.SetContext(ctx)
	return runStream(ctx, eng, g, opts, yield)
}

// runStream is the shared LocalSearch-P driver behind StreamCtx and
// Pool.Stream. Unlike TopKOver it never reuses CVS buffers across rounds:
// progressive enumeration retains each round's group slices in the
// communities it yields, so every round's CVS must own its memory.
func runStream(ctx context.Context, eng *Engine, g *graph.Graph, opts Options, yield func(*Community) bool) (Stats, error) {
	var st Stats
	n := g.NumVertices()
	// Line 1 of Algorithm 4: largest τ that could hold one community.
	p := initialPrefix(g, 1, eng.Gamma(), opts)
	prev := 0
	enum := NewEnumState(n)
	flags := WantSeq
	if opts.NonContainment {
		flags |= WantNC
	}
	for {
		// ConstructCVS (Algorithm 5): only keynodes not already reported
		// in the previous round's prefix are produced, implementing the
		// computation sharing that makes LocalSearch-P no slower than
		// LocalSearch (Figure 15).
		cvs, err := eng.RunInto(nil, p, prev, flags)
		if err != nil {
			return st, err
		}
		st.Rounds++
		st.TotalWork += g.PrefixSize(p)
		st.FinalPrefix = p
		st.FinalSize = g.PrefixSize(p)

		if opts.NonContainment {
			for j := len(cvs.Keys) - 1; j >= 0; j-- {
				if !cvs.NC[j] {
					continue
				}
				st.Communities++
				seg := cvs.Group(j)
				c := &Community{
					keynode:   cvs.Keys[j],
					influence: g.Weight(cvs.Keys[j]),
					group:     seg,
					size:      len(seg),
				}
				if !yield(c) {
					return st, nil
				}
			}
		} else {
			for _, c := range enum.Process(g, cvs, -1) {
				st.Communities++
				if !yield(c) {
					return st, nil
				}
			}
		}
		if p == n {
			return st, nil
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
		prev = p
		p = growPrefix(g, p, opts)
	}
}

// TopKProgressive answers a top-k query with LocalSearch-P, collecting the
// first k streamed communities. It exists so benchmarks can compare the
// progressive and non-progressive algorithms on identical queries
// (Figures 14 and 15).
func TopKProgressive(g *graph.Graph, k int, gamma int32, opts Options) (*Result, error) {
	if err := validateQuery(g, k, gamma); err != nil {
		return nil, err
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
