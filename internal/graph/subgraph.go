package graph

import "fmt"

// InducedSubgraph returns the subgraph of g induced by the given vertex set,
// identified by rank and sorted strictly ascending. Weights, original IDs,
// and labels carry over untouched, and because the global rank order is
// already (weight desc, original ID asc), the restriction of that order is
// the subgraph's rank order: any two retained vertices keep their relative
// ranks, ties included. That property is what lets a component-closed
// partition of a graph answer queries byte-identically to the whole graph
// (see internal/cluster.Partition).
//
// Cost is O(len(vertices) + deg(vertices)) plus one O(n) scratch vector; no
// sorting: each kept vertex's up-list is filtered from g's already-sorted
// one and the graph is assembled by FromUpAdjacency.
func InducedSubgraph(g *Graph, vertices []int32) (*Graph, error) {
	if g == nil {
		return nil, fmt.Errorf("graph: induced subgraph of a nil graph")
	}
	p := len(vertices)
	if p == 0 {
		return nil, fmt.Errorf("graph: induced subgraph over an empty vertex set")
	}
	// local[u] is u's rank in the subgraph, or -1 when u is dropped. The
	// strictly-ascending requirement makes the mapping monotone, so a kept
	// vertex's kept up-neighbours map to its subgraph up-list, still
	// strictly ascending.
	local := make([]int32, g.n)
	for i := range local {
		local[i] = -1
	}
	prev := int32(-1)
	for i, u := range vertices {
		if u < 0 || int(u) >= g.n {
			return nil, fmt.Errorf("graph: induced subgraph vertex %d out of range [0, %d)", u, g.n)
		}
		if u <= prev {
			return nil, fmt.Errorf("graph: induced subgraph vertices must be strictly ascending (saw %d after %d)", u, prev)
		}
		local[u] = int32(i)
		prev = u
	}

	weights := make([]float64, p)
	origID := make([]int32, p)
	upDeg := make([]int32, p)
	var upAdj []int32
	for i, u := range vertices {
		weights[i] = g.weights[u]
		origID[i] = g.OrigID(u)
		before := len(upAdj)
		for _, v := range g.UpNeighbors(u) {
			if lv := local[v]; lv >= 0 {
				upAdj = append(upAdj, lv)
			}
		}
		upDeg[i] = int32(len(upAdj) - before)
	}
	sub, err := FromUpAdjacency(weights, upDeg, upAdj, nil)
	if err != nil {
		return nil, err
	}
	sub.origID = origID
	if len(g.labels) > 0 {
		sub.labels = make([]string, p)
		for i, u := range vertices {
			sub.labels[i] = g.labels[u]
		}
	}
	return sub, nil
}
