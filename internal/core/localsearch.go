package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"influcomm/internal/graph"
)

// DefaultDelta is the subgraph growth ratio δ of Algorithm 1. The paper
// proves the 2δ²/(δ−1) constant of Theorem 3.3 is minimized at δ = 2 and
// confirms it empirically (Figure 13).
const DefaultDelta = 2.0

// Options tunes LocalSearch. The zero value means: δ = DefaultDelta,
// initial prefix from the paper's (k+γ)-th weight heuristic, geometric
// growth, containment semantics.
type Options struct {
	// Delta is the geometric growth ratio; must be finite and > 1 if set.
	Delta float64

	// InitialPrefix overrides the starting prefix length τ₁ heuristic
	// (Line 1 of Algorithm 1) when > 0.
	InitialPrefix int

	// ArithmeticGrowth, when > 0, replaces geometric growth with fixed
	// increments of that many size units per round. The paper's §3.3
	// remark predicts (and BenchmarkAblationArithmeticGrowth confirms)
	// super-linear behavior; the option exists only for that ablation.
	ArithmeticGrowth int64

	// NonContainment switches to non-containment community semantics
	// (§5.1): only communities with no nested sub-community are reported.
	NonContainment bool
}

func (o Options) delta() float64 {
	if o.Delta == 0 {
		return DefaultDelta
	}
	return o.Delta
}

func (o Options) validate() error {
	if math.IsNaN(o.Delta) || math.IsInf(o.Delta, 0) {
		return fmt.Errorf("core: growth ratio δ must be finite, got %v", o.Delta)
	}
	if o.Delta != 0 && o.Delta <= 1 {
		return fmt.Errorf("core: growth ratio δ must exceed 1, got %v", o.Delta)
	}
	if o.ArithmeticGrowth < 0 {
		return fmt.Errorf("core: negative arithmetic growth %d", o.ArithmeticGrowth)
	}
	return nil
}

// Stats reports how much of the graph a run accessed; the quantities of the
// instance-optimality analysis (§3.3).
type Stats struct {
	// Rounds counts the prefixes G≥τ₁ … G≥τ_h processed.
	Rounds int
	// FinalPrefix is the vertex count of the last prefix G≥τ_h.
	FinalPrefix int
	// FinalSize is size(G≥τ_h) = |V| + |E| of the last prefix: the largest
	// subgraph accessed, bounded by 2δ·size(G≥τ*) (Lemma 3.8).
	FinalSize int64
	// TotalWork is Σᵢ size(G≥τᵢ): the total counting work, bounded by
	// (1 + 1/(δ−1))·FinalSize (Lemma 3.7).
	TotalWork int64
	// Communities is the number of communities in the final prefix.
	Communities int
}

// Result is the output of TopK.
type Result struct {
	// Communities holds at most k communities in decreasing influence
	// order. Fewer are returned when the whole graph has fewer.
	Communities []*Community
	Stats       Stats
}

var errNilGraph = errors.New("core: nil graph")

// PrefixSizer exposes the prefix-size geometry of a ranked graph: the only
// facts the LocalSearch growth policy (Lines 1 and 4 of Algorithm 1) needs,
// with no access to the adjacency itself. *graph.Graph implements it
// directly; semi-external backends implement it from the in-memory
// up-degree vector without touching disk.
type PrefixSizer interface {
	NumVertices() int
	// PrefixSize returns size(G≥τ) = p + |E(G≥τ)| for the prefix [0, p).
	PrefixSize(p int) int64
	// PrefixForSize returns the smallest prefix length p with
	// PrefixSize(p) >= want, or NumVertices() if no prefix is that large.
	PrefixForSize(want int64) int
}

// initialPrefix implements Line 1 of Algorithm 1: the largest τ such that
// G≥τ could possibly hold k influential γ-communities. k communities span
// at least k+γ distinct vertices, so τ₁ is the (k+γ)-th largest weight.
func initialPrefix(g PrefixSizer, k int, gamma int32, opts Options) int {
	n := g.NumVertices()
	p := opts.InitialPrefix
	if p <= 0 {
		p = k + int(gamma)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// growPrefix implements Line 4 of Algorithm 1: the largest τ (smallest
// prefix) whose size is at least δ times the current size. A target at or
// beyond size(G) — including one too large for int64 — yields the whole
// graph.
func growPrefix(g PrefixSizer, p int, opts Options) int {
	n := g.NumVertices()
	cur, total := g.PrefixSize(p), g.PrefixSize(n)
	var want int64
	if opts.ArithmeticGrowth > 0 {
		if opts.ArithmeticGrowth > total-cur {
			return n
		}
		want = cur + opts.ArithmeticGrowth
	} else {
		target := opts.delta() * float64(cur)
		if target >= float64(total) {
			return n
		}
		want = int64(target)
		if want <= cur {
			want = cur + 1
		}
	}
	next := g.PrefixForSize(want)
	if next <= p {
		next = p + 1
	}
	if next > n {
		next = n
	}
	return next
}

// Search is the one LocalSearch growth loop: Algorithm 6 of §5.2, of which
// LocalSearch (Algorithm 1), LocalSearch-P (Algorithm 4), the truss search
// and the LocalSearch-OA ablation are instances. It validates the query,
// starts from the initial prefix of Line 1, and calls round on the prefix
// [0, p) — prev is the previous round's prefix (0 in the first round),
// which progressive rounds hand to ConstructCVS — growing p geometrically
// (Line 4) until round reports done or the whole graph has been processed.
// The context is checked before the first round and between rounds.
//
// The returned Stats account every completed round: Rounds, TotalWork
// (Σ size of the prefixes, Lemma 3.7), and FinalPrefix/FinalSize of the
// last one (Lemma 3.8). Communities is left for the caller, which alone
// knows what its rounds found. A round error ends the search and is
// returned with the Stats of the rounds completed before it.
func Search(ctx context.Context, sizer PrefixSizer, k int, gamma int32, opts Options, round func(p, prev int) (done bool, err error)) (Stats, error) {
	var st Stats
	if sizer == nil {
		return st, errors.New("core: nil search source")
	}
	n := sizer.NumVertices()
	if n == 0 {
		return st, errors.New("core: empty graph")
	}
	if k < 1 {
		return st, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if gamma < 1 {
		return st, fmt.Errorf("core: gamma must be >= 1, got %d", gamma)
	}
	if err := opts.validate(); err != nil {
		return st, err
	}
	if err := ctx.Err(); err != nil {
		return st, err
	}
	p, prev := initialPrefix(sizer, k, gamma, opts), 0
	for {
		done, err := round(p, prev)
		if err != nil {
			return st, err
		}
		st.Rounds++
		st.FinalPrefix = p
		st.FinalSize = sizer.PrefixSize(p)
		st.TotalWork += st.FinalSize
		if done || p == n {
			return st, nil
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
		prev, p = p, growPrefix(sizer, p, opts)
	}
}

// TopK computes the top-k influential γ-communities of g with the
// LocalSearch algorithm (Algorithm 1). Communities are returned in
// decreasing influence order. The run touches only prefixes of the graph;
// by Theorem 3.3 its total work is O(2δ²/(δ−1) · size(G≥τ*)) where G≥τ* is
// the smallest subgraph any index-free algorithm must access.
func TopK(g *graph.Graph, k int, gamma int32, opts Options) (*Result, error) {
	return TopKCtx(context.Background(), g, k, gamma, opts)
}

// TopKCtx is TopK under a context: cancellation is observed at round
// boundaries and every few thousand removal/traversal steps inside a round,
// so an expired context makes the call return ctx.Err() promptly even on
// graphs where a single round is large.
func TopKCtx(ctx context.Context, g *graph.Graph, k int, gamma int32, opts Options) (*Result, error) {
	if g == nil {
		return nil, errNilGraph
	}
	return TopKOver(ctx, GraphSource(g), k, gamma, opts)
}

func countOf(c *CVS, nonContainment bool) int {
	if !nonContainment {
		return c.Count()
	}
	cnt := 0
	for _, nc := range c.NC {
		if nc {
			cnt++
		}
	}
	return cnt
}

// nonContainmentCommunities extracts the top-k non-containment communities
// (all of them when k < 0): the non-containment keynodes' groups are
// exactly their communities (§5.1). The selected groups are copied into
// one array of their total size, so the communities do not retain c.
func nonContainmentCommunities(g *graph.Graph, c *CVS, k int) []*Community {
	var picked []int
	total := 0
	for j := len(c.Keys) - 1; j >= 0 && (k < 0 || len(picked) < k); j-- {
		if c.NC[j] {
			picked = append(picked, j)
			total += len(c.Group(j))
		}
	}
	members := make([]int32, 0, total)
	var out []*Community
	for _, j := range picked {
		start := len(members)
		members = append(members, c.Group(j)...)
		out = append(out, &Community{
			keynode:   c.Keys[j],
			influence: g.Weight(c.Keys[j]),
			group:     members[start:],
			size:      len(members) - start,
		})
	}
	return out
}
