package core

import "influcomm/internal/graph"

// EnumState implements EnumIC (Algorithm 3) and its progressive sibling
// EnumIC-P. It owns the v2key disjoint-set structure mapping each vertex to
// the smallest keynode whose community contains it; for LocalSearch-P the
// same state is shared across rounds so enumeration work is never repeated.
// The truss search (EnumICC, Algorithm 7) builds its communities on the
// same state through Open and Claim, so both measures share one
// containment forest. An EnumState is bound to one graph; after Recycle it
// serves any γ of that graph (Pool relies on this). It is not safe for
// concurrent use.
type EnumState struct {
	vgroup []int32      // per vertex: group index, or -1 when unassigned
	parent []int32      // disjoint sets over group indices
	comms  []*Community // community per group index
}

// NewEnumState returns an EnumState for a graph with n vertices.
func NewEnumState(n int) *EnumState {
	s := &EnumState{vgroup: make([]int32, n)}
	for i := range s.vgroup {
		s.vgroup[i] = -1
	}
	return s
}

// Recycle returns the state to its freshly-constructed condition by
// undoing exactly the assignments the previous enumeration made (touched
// vertices are recorded in the communities' group slices), so a pooled
// state resets in output-size rather than O(n) time. The communities
// themselves are not touched — they are owned by the caller of Process.
func (s *EnumState) Recycle() {
	for i, c := range s.comms {
		for _, v := range c.group {
			s.vgroup[v] = -1
		}
		s.comms[i] = nil // drop the reference; the result owns the community
	}
	s.comms = s.comms[:0]
	s.parent = s.parent[:0]
}

// find returns the representative group of j with path halving. Combined
// with the directed unions of nest this gives the amortized near-constant
// Find/Union of Algorithm 3 [12].
func (s *EnumState) find(j int32) int32 {
	for s.parent[j] != j {
		s.parent[j] = s.parent[s.parent[j]]
		j = s.parent[j]
	}
	return j
}

// open starts the community of the next keynode as a new group, the
// representative of its own set, and returns the group's index.
func (s *EnumState) open(com *Community) int32 {
	gid := int32(len(s.comms))
	s.parent = append(s.parent, gid)
	s.comms = append(s.comms, com)
	return gid
}

// nest links the community holding group gw under com, the community of
// group gid, unless it is already there (Lines 10-13 of Algorithm 3). The
// union is directed: gid stays the representative, so the set keeps
// naming the smallest community that contains it.
func (s *EnumState) nest(com *Community, gid, gw int32) {
	r := s.find(gw)
	if r == gid {
		return
	}
	child := s.comms[r]
	com.children = append(com.children, child)
	com.size += child.size
	s.parent[r] = gid
}

// Open starts the community of keynode u, of influence f, as the open
// community that Claim extends. Communities must be opened in decreasing
// influence order, like Process visits them.
func (s *EnumState) Open(u int32, f float64) *Community {
	com := &Community{keynode: u, influence: f}
	s.open(com)
	return com
}

// Claim adds vertex w to the open community: an unassigned w joins its
// group, and an assigned w nests the community holding it inside the open
// one. Any measure whose communities sharing a vertex are nested can build
// its containment forest this way; the truss search claims both endpoints
// of every edge in a keynode's group.
func (s *EnumState) Claim(w int32) {
	gid := int32(len(s.comms) - 1)
	com := s.comms[gid]
	if gw := s.vgroup[w]; gw >= 0 {
		s.nest(com, gid, gw)
		return
	}
	s.vgroup[w] = gid
	com.group = append(com.group, w)
	com.size++
}

// Process runs EnumIC over the keynodes of c, in decreasing weight order,
// restricted to the last k keynodes (all of them when k < 0). It returns
// the corresponding communities in decreasing influence order. Each group
// slice of c is retained by the resulting communities; c must therefore not
// be reused as a scratch buffer by the caller.
//
// In progressive mode the method is called once per round with the round's
// fresh CVS; the persistent v2key state makes each new community link to
// the already-built communities nested inside it (Lemma 3.6).
//
// The neighbour scan of keynode u stops at rank u, which bounds the work
// by the edges of G≥f(u) rather than of the prefix c.P. The bound loses
// nothing. Keynodes arrive in decreasing weight, within one call and
// across progressive rounds, so a vertex assigned before u's group lies in
// the community of an earlier keynode: it weighs more than f(u) and has
// rank below u (Lemma 3.4). A neighbour of rank u or more is therefore
// unassigned or u itself, and the scan would skip it anyway.
func (s *EnumState) Process(g *graph.Graph, c *CVS, k int) []*Community {
	start := 0
	if k >= 0 && len(c.Keys) > k {
		start = len(c.Keys) - k
	}
	out := make([]*Community, 0, len(c.Keys)-start)
	for j := len(c.Keys) - 1; j >= start; j-- {
		u := c.Keys[j]
		seg := c.Group(j)
		com := &Community{
			keynode:   u,
			influence: g.Weight(u),
			group:     seg,
			size:      len(seg),
		}
		gid := s.open(com)

		// Line 8: v2key(v) <- u for all v in gp(u).
		for _, v := range seg {
			s.vgroup[v] = gid
		}

		// Lines 9-13: collect child communities through edges from gp(u)
		// to already-assigned vertices, merging their sets into gid.
		for _, v := range seg {
			for _, w := range g.NeighborsWithin(v, int(u)) {
				if gw := s.vgroup[w]; gw >= 0 && gw != gid {
					s.nest(com, gid, gw)
				}
			}
		}
		out = append(out, com)
	}
	return out
}

// EnumIC computes the top-k influential γ-communities of the prefix
// subgraph that c was computed on, in decreasing influence order
// (Algorithm 3). c must have been produced with WantSeq.
func EnumIC(g *graph.Graph, c *CVS, k int) []*Community {
	return NewEnumState(g.NumVertices()).Process(g, c, k)
}
