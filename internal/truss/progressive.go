package truss

import (
	"context"

	"influcomm/internal/core"
)

// CountICCFrom is the truss ConstructCVS (the Algorithm 5 counterpart for
// the truss measure): it runs CountICC on the prefix [0, p) but stops
// before processing any keynode with rank < stopBefore, producing only the
// keynodes new to this round. The suffix property of §4 carries over to
// the truss measure (Property-II of §5.2), which the property tests check.
func CountICCFrom(ix *Index, p, stopBefore int, gamma int32) *CVS {
	c, _ := countICCFromCtx(context.Background(), ix, p, stopBefore, gamma)
	return c
}

// ctxCheckInterval is the number of work units (support computations,
// removed edges, keynode iterations) between two context polls inside a
// CountICC run.
const ctxCheckInterval = 4096

// countICCFromCtx is CountICCFrom under a context: the runner polls it
// throughout support initialization, truss peeling, and keynode removal —
// the peel is the dominant cost, so a cancelled context aborts the run
// promptly with ctx.Err().
func countICCFromCtx(ctx context.Context, ix *Index, p, stopBefore int, gamma int32) (*CVS, error) {
	r := newRunner(ctx, ix, p, gamma)
	r.peelTruss()
	if r.err != nil {
		return nil, r.err
	}
	c := &CVS{P: p, KeyPos: []int32{0}}
	for u := int32(p) - 1; u >= int32(stopBefore); u-- {
		if !r.tick(1) {
			return nil, r.err
		}
		if r.vdeg[u] == 0 {
			continue
		}
		c.Keys = append(c.Keys, u)
		r.removeVertex(u, &c.Seq)
		if r.err != nil {
			return nil, r.err
		}
		c.KeyPos = append(c.KeyPos, int32(len(c.Seq)))
	}
	return c, nil
}

// EnumState implements EnumICC and its progressive sibling, mirroring
// core.EnumState: EnumICC uses a fresh state for one CVS, while Stream
// shares one state across rounds so enumeration work is never repeated.
type EnumState struct {
	ix     *Index
	vgroup []int32
	parent []int32
	comms  []*Community
}

// NewEnumState returns an EnumState for the indexed graph.
func NewEnumState(ix *Index) *EnumState {
	s := &EnumState{ix: ix, vgroup: make([]int32, ix.g.NumVertices())}
	for i := range s.vgroup {
		s.vgroup[i] = -1
	}
	return s
}

func (s *EnumState) find(j int32) int32 {
	for s.parent[j] != j {
		s.parent[j] = s.parent[s.parent[j]]
		j = s.parent[j]
	}
	return j
}

// Process enumerates the communities of one round's CVS in decreasing
// influence order, restricted to the last k keynodes (all of them when
// k < 0), linking them to communities from earlier rounds. Two truss
// communities sharing a vertex are nested, so the EnumIC disjoint-set
// construction carries over with vertex sharing as the linking relation.
func (s *EnumState) Process(c *CVS, k int) []*Community {
	start := 0
	if k >= 0 && len(c.Keys) > k {
		start = len(c.Keys) - k
	}
	out := make([]*Community, 0, len(c.Keys)-start)
	for j := len(c.Keys) - 1; j >= start; j-- {
		u := c.Keys[j]
		gid := int32(len(s.comms))
		s.parent = append(s.parent, gid)
		com := &Community{keynode: u, influence: s.ix.g.Weight(u)}
		claim := func(w int32) {
			if s.vgroup[w] < 0 {
				s.vgroup[w] = gid
				com.group = append(com.group, w)
				com.size++
				return
			}
			r := s.find(s.vgroup[w])
			if r == gid {
				return
			}
			child := s.comms[r]
			com.children = append(com.children, child)
			com.size += child.size
			s.parent[r] = gid
		}
		for _, e := range c.Group(j) {
			lo, hi := s.ix.Endpoints(e)
			claim(lo)
			claim(hi)
		}
		s.comms = append(s.comms, com)
		out = append(out, com)
	}
	return out
}

// Stream progressively reports influential γ-truss communities in
// decreasing influence order (the §4 progressive technique applied to the
// §5.2 truss measure). yield returning false stops the search; the number
// of vertices of the largest prefix processed is returned.
func Stream(ix *Index, gamma int32, yield func(*Community) bool) (int, error) {
	return StreamCtx(context.Background(), ix, gamma, yield)
}

// StreamCtx is Stream under a context: cancellation is observed at round
// boundaries and inside CountICC, stopping the search promptly. It runs
// the rounds of core.Search with k = 1, each enumerating only the keynodes
// new to its prefix; on error the returned prefix is the last completed
// round's.
func StreamCtx(ctx context.Context, ix *Index, gamma int32, yield func(*Community) bool) (int, error) {
	if err := validate(ix, 1, gamma); err != nil {
		return 0, err
	}
	enum := NewEnumState(ix)
	st, err := core.Search(ctx, ix.g, 1, gamma, core.Options{}, func(p, prev int) (bool, error) {
		cvs, err := countICCFromCtx(ctx, ix, p, prev, gamma)
		if err != nil {
			return false, err
		}
		for _, c := range enum.Process(cvs, -1) {
			if !yield(c) {
				return true, nil
			}
		}
		return false, nil
	})
	return st.FinalPrefix, err
}
