// Package core implements the paper's primary contribution: the
// instance-optimal LocalSearch algorithm (Algorithm 1) for top-k influential
// γ-community search, its counting (CountIC, Algorithm 2) and enumeration
// (EnumIC, Algorithm 3) subroutines, the progressive LocalSearch-P variant
// (Algorithms 4–5), and the non-containment extension (§5.1).
//
// The growth loop lives in one place, Search: Lines 1 and 4 of Algorithm 1
// as the generalized framework of §5.2 (Algorithm 6). TopKOver, the
// progressive Stream, the truss package and the LocalSearch-OA baseline
// each supply only the round that runs on the grown prefix. The answer
// lives in one place too: EnumState builds the containment forest of
// Community nodes for both measures, and MemberMerger renders it.
package core

import (
	"slices"

	"influcomm/internal/graph"
)

// Community is one influential γ-community, represented as a node of the
// community containment forest: its own group gp(u) of vertices plus child
// communities that are nested inside it (paper Lemma 3.6). This linked form
// is what makes EnumIC run in time linear in the graph rather than in the
// (potentially much larger) total output size. The truss package's
// communities are Community values too (see EnumState.Claim).
type Community struct {
	keynode   int32
	influence float64
	group     []int32
	children  []*Community
	size      int
}

// Keynode returns the rank ID of the community's keynode: its unique
// minimum-weight vertex (Lemma 3.4).
func (c *Community) Keynode() int32 { return c.keynode }

// Influence returns f(g), the minimum vertex weight of the community.
func (c *Community) Influence() float64 { return c.influence }

// Size returns the number of vertices in the community, including all
// nested child communities. It is O(1).
func (c *Community) Size() int { return c.size }

// Group returns gp(u): the vertices that belong to this community but to no
// nested child community. The caller must not modify the returned slice.
func (c *Community) Group() []int32 { return c.group }

// Children returns the communities nested directly inside this one, i.e.
// Ch(u) of Algorithm 3. The caller must not modify the returned slice.
func (c *Community) Children() []*Community { return c.children }

// Vertices materializes the full vertex set of the community in ascending
// rank order. It sorts, so it costs O(Size log Size), and allocates;
// prefer walking Group and Children for large nested results.
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
	slices.Sort(out)
	return out
}

// Contains reports whether vertex u belongs to the community.
func (c *Community) Contains(u int32) bool {
	for _, v := range c.group {
		if v == u {
			return true
		}
	}
	for _, ch := range c.children {
		if ch.Contains(u) {
			return true
		}
	}
	return false
}

// MinDegree returns the minimum degree of the community's induced subgraph
// in g. It is a verification helper (tests, examples); cost O(output edges).
func (c *Community) MinDegree(g *graph.Graph) int32 {
	vs := c.Vertices()
	in := make(map[int32]bool, len(vs))
	for _, v := range vs {
		in[v] = true
	}
	minDeg := int32(-1)
	for _, v := range vs {
		var d int32
		for _, w := range g.Neighbors(v) {
			if in[w] {
				d++
			}
		}
		if minDeg < 0 || d < minDeg {
			minDeg = d
		}
	}
	return minDeg
}
