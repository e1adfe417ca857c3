package truss

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"influcomm/internal/core"
)

// Community is one influential γ-truss community, a node of the containment
// forest exactly like core.Community (truss communities that share a vertex
// are nested, so the same forest representation applies).
type Community struct {
	keynode   int32
	influence float64
	group     []int32 // vertices first claimed by this community
	children  []*Community
	size      int
}

// Keynode returns the community's minimum-weight vertex.
func (c *Community) Keynode() int32 { return c.keynode }

// Influence returns f(g), the minimum vertex weight.
func (c *Community) Influence() float64 { return c.influence }

// Size returns the total number of vertices including nested children.
func (c *Community) Size() int { return c.size }

// Group returns the vertices first claimed by this community rather than
// by a nested child. The caller must not modify the returned slice.
func (c *Community) Group() []int32 { return c.group }

// Children returns the directly nested communities.
func (c *Community) Children() []*Community { return c.children }

// Vertices materializes the community's vertex set in ascending rank order.
func (c *Community) Vertices() []int32 {
	out := make([]int32, 0, c.size)
	var walk func(x *Community)
	walk = func(x *Community) {
		out = append(out, x.group...)
		for _, ch := range x.children {
			walk(ch)
		}
	}
	walk(c)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CVS is the edge-sequence output of CountICC (Algorithm 7): keynodes in
// increasing weight order and the removed-edge sequence partitioned into one
// group per keynode.
type CVS struct {
	P      int
	Keys   []int32
	KeyPos []int32
	Seq    []int64 // edge IDs
}

// Count returns the number of influential γ-truss communities found.
func (c *CVS) Count() int { return len(c.Keys) }

// Group returns the edge group of keynode j.
func (c *CVS) Group(j int) []int64 { return c.Seq[c.KeyPos[j]:c.KeyPos[j+1]] }

// CountICC runs Algorithm 7 on the prefix subgraph [0, p): reduce to the
// γ-truss, then repeatedly remove the minimum-weight vertex and restore the
// γ-truss, recording keynodes and the community-aware edge sequence.
func CountICC(ix *Index, p int, gamma int32) *CVS {
	return CountICCFrom(ix, p, 0, gamma)
}

// EnumICC reconstructs the top-k influential γ-truss communities (all of
// them when k < 0) from a CountICC run, in decreasing influence order: the
// one-round use of EnumState.
func EnumICC(ix *Index, c *CVS, k int) []*Community {
	return NewEnumState(ix).Process(c, k)
}

// Stats is core.Stats: the truss rounds run in core.Search and are
// accounted exactly like the min-degree ones.
type Stats = core.Stats

// Result is the output of LocalSearch and GlobalSearch.
type Result struct {
	Communities []*Community
	Stats       Stats
}

func validate(ix *Index, k int, gamma int32) error {
	if ix == nil || ix.g == nil {
		return errors.New("truss: nil index")
	}
	if ix.g.NumVertices() == 0 {
		return errors.New("truss: empty graph")
	}
	if k < 1 {
		return fmt.Errorf("truss: k must be >= 1, got %d", k)
	}
	if gamma < 2 {
		return fmt.Errorf("truss: gamma must be >= 2, got %d", gamma)
	}
	return nil
}

// LocalSearch computes the top-k influential γ-truss communities with the
// generalized local search framework (Algorithm 6): rounds of core.Search,
// each running CountICC on the grown prefix (δ = 2), until the prefix
// holds k communities, then EnumICC.
func LocalSearch(ix *Index, k int, gamma int32) (*Result, error) {
	return LocalSearchCtx(context.Background(), ix, k, gamma)
}

// LocalSearchCtx is LocalSearch under a context: cancellation is observed
// at round boundaries and inside CountICC every few thousand edge removals,
// so the call returns ctx.Err() promptly once the context expires.
func LocalSearchCtx(ctx context.Context, ix *Index, k int, gamma int32) (*Result, error) {
	if err := validate(ix, k, gamma); err != nil {
		return nil, err
	}
	var cvs *CVS
	st, err := core.Search(ctx, ix.g, k, gamma, core.Options{}, func(p, _ int) (bool, error) {
		var err error
		cvs, err = countICCFromCtx(ctx, ix, p, 0, gamma)
		if err != nil {
			return false, err
		}
		return cvs.Count() >= k, nil
	})
	if err != nil {
		return nil, err
	}
	st.Communities = cvs.Count()
	return &Result{Communities: EnumICC(ix, cvs, k), Stats: st}, nil
}

// GlobalSearch is the baseline of Eval-VIII: CountICC over the entire graph
// followed by EnumICC for the top-k.
func GlobalSearch(ix *Index, k int, gamma int32) (*Result, error) {
	if err := validate(ix, k, gamma); err != nil {
		return nil, err
	}
	n := ix.g.NumVertices()
	cvs := CountICC(ix, n, gamma)
	st := Stats{
		Rounds:      1,
		FinalPrefix: n,
		FinalSize:   ix.g.Size(),
		TotalWork:   ix.g.Size(),
		Communities: cvs.Count(),
	}
	return &Result{Communities: EnumICC(ix, cvs, k), Stats: st}, nil
}
