package truss

import (
	"context"
	"sort"

	"influcomm/internal/core"
	"influcomm/internal/graph"
)

// NaiveCommunities enumerates every influential γ-truss community of g
// straight from Definition 5.2: vertex u is a keynode iff it retains an
// edge in the γ-truss of the prefix [0, u], and its community is then u's
// connected component over the truss's surviving edges. The communities
// are core.NaiveCommunity values, like the min-degree reference's.
// O(n · m^1.5); test oracle only.
func NaiveCommunities(g *graph.Graph, gamma int32) []core.NaiveCommunity {
	ix := NewIndex(g)
	n := g.NumVertices()
	var out []core.NaiveCommunity
	for u := int32(0); int(u) < n; u++ {
		p := int(u) + 1
		r := newRunner(context.Background(), ix, p, gamma)
		r.peelTruss()
		if r.vdeg[u] == 0 {
			continue
		}
		comp := aliveComponent(r, u)
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		out = append(out, core.NaiveCommunity{Keynode: u, Influence: g.Weight(u), Vertices: comp})
	}
	return out
}

// aliveComponent BFS-traverses from u over alive edges only.
func aliveComponent(r *runner, u int32) []int32 {
	seen := map[int32]bool{u: true}
	comp := []int32{u}
	for i := 0; i < len(comp); i++ {
		v := comp[i]
		for _, w := range r.ix.g.NeighborsWithin(v, r.p) {
			if seen[w] {
				continue
			}
			e := r.ix.EdgeID(v, w)
			if e < 0 || !r.alive[e] {
				continue
			}
			seen[w] = true
			comp = append(comp, w)
		}
	}
	return comp
}

// NaiveTopK returns the k highest-influence truss communities in decreasing
// influence order.
func NaiveTopK(g *graph.Graph, k int, gamma int32) []core.NaiveCommunity {
	all := NaiveCommunities(g, gamma)
	if len(all) > k {
		all = all[:k]
	}
	return all
}
