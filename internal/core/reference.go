package core

import (
	"sort"

	"influcomm/internal/graph"
)

// NaiveCommunity is a fully materialized influential γ-community produced
// by a definitional reference implementation: this package's, or the
// truss package's for the truss measure.
type NaiveCommunity struct {
	Keynode   int32
	Influence float64
	Vertices  []int32 // ascending rank order
}

// NaiveCommunities computes every influential γ-community of g directly
// from Definition 2.2, independently of the CountIC/EnumIC machinery: a
// vertex u is a keynode iff it survives the γ-core of the prefix [0, u],
// and its community is then u's connected component in that core (the
// maximal connected cohesive subgraph whose minimum weight is ω(u)).
//
// The cost is O(n·(n+m)); it exists purely as a test oracle for
// cross-validating the optimized algorithms and baselines.
func NaiveCommunities(g *graph.Graph, gamma int32) []NaiveCommunity {
	n := g.NumVertices()
	var out []NaiveCommunity
	eng := NewEngine(g, gamma)
	for u := int32(0); int(u) < n; u++ {
		eng.Peel(int(u) + 1)
		if !eng.Alive(u) {
			continue
		}
		comp := eng.Component(u)
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		out = append(out, NaiveCommunity{
			Keynode:   u,
			Influence: g.Weight(u),
			Vertices:  comp,
		})
	}
	// Vertices ascend in rank = descend in weight, so out is already in
	// decreasing influence order.
	return out
}

// NaiveTopK returns the k highest-influence communities of the naive
// enumeration, in decreasing influence order.
func NaiveTopK(g *graph.Graph, k int, gamma int32) []NaiveCommunity {
	all := NaiveCommunities(g, gamma)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// NaiveNonContainment filters the naive enumeration down to communities
// with no other community nested inside them (Definition 5.1), by pairwise
// subset tests. Quadratic; test oracle only.
func NaiveNonContainment(g *graph.Graph, gamma int32) []NaiveCommunity {
	all := NaiveCommunities(g, gamma)
	sets := make([]map[int32]bool, len(all))
	for i, c := range all {
		sets[i] = make(map[int32]bool, len(c.Vertices))
		for _, v := range c.Vertices {
			sets[i][v] = true
		}
	}
	var out []NaiveCommunity
	for i, c := range all {
		nc := true
		for j, other := range all {
			if i == j || len(other.Vertices) >= len(c.Vertices) {
				continue
			}
			subset := true
			for _, v := range other.Vertices {
				if !sets[i][v] {
					subset = false
					break
				}
			}
			if subset {
				nc = false
				break
			}
		}
		if nc {
			out = append(out, c)
		}
	}
	return out
}
