package truss

import (
	"context"
	"errors"
	"fmt"

	"influcomm/internal/core"
)

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
// them when k < 0) from a CountICC run, in decreasing influence order, on
// a fresh core.EnumState: the one-round use of enumerate.
func EnumICC(ix *Index, c *CVS, k int) []*core.Community {
	return enumerate(core.NewEnumState(ix.g.NumVertices()), ix, c, k)
}

// enumerate builds the communities of c's last k keynodes (all of them
// when k < 0) in decreasing influence order on s, linking them to the
// communities s holds from earlier rounds. Two truss communities sharing a
// vertex are nested, so EnumIC's containment forest carries over: each
// keynode's community claims both endpoints of every edge in its group.
func enumerate(s *core.EnumState, ix *Index, c *CVS, k int) []*core.Community {
	start := 0
	if k >= 0 && len(c.Keys) > k {
		start = len(c.Keys) - k
	}
	out := make([]*core.Community, 0, len(c.Keys)-start)
	for j := len(c.Keys) - 1; j >= start; j-- {
		u := c.Keys[j]
		out = append(out, s.Open(u, ix.g.Weight(u)))
		for _, e := range c.Group(j) {
			s.Claim(ix.elo[e])
			s.Claim(ix.ehi[e])
		}
	}
	return out
}

// Stats is core.Stats: the truss rounds run in core.Search and are
// accounted exactly like the min-degree ones.
type Stats = core.Stats

// Result is the output of LocalSearch and GlobalSearch: core.Result, since
// truss communities are nodes of core's containment forest.
type Result = core.Result

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
