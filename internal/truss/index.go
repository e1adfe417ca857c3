// Package truss implements the paper's extension of the local search
// framework to the k-truss cohesiveness measure (§5.2): truss decomposition
// of prefix subgraphs, the CountICC / EnumICC subroutines (Algorithm 7) for
// influential γ-truss communities, and the LocalSearch-Truss /
// GlobalSearch-Truss algorithms compared in Eval-VIII (Figure 19).
// LocalSearch and Stream are rounds of core.Search, the one growth loop,
// with zero Options (δ = 2). Only the counting round is the truss
// measure's own: truss communities that share a vertex are nested, so
// EnumICC builds core's containment forest on core.EnumState and the
// answers are core.Community values, rendered like every other answer.
//
// A graph has cohesiveness γ under the truss measure when every edge
// participates in at least γ−2 triangles.
package truss

import (
	"sort"

	"influcomm/internal/graph"
)

// Index assigns every undirected edge of a graph a dense ID grouped by the
// edge's lower-weight (higher-rank) endpoint in ascending rank order. With
// that numbering the edges of the prefix subgraph [0, p) are exactly the
// IDs [0, g.PrefixEdges(p)) — the truss analogue of the prefix property the
// core package relies on.
type Index struct {
	g   *graph.Graph
	elo []int32 // higher-weight endpoint (smaller rank) per edge ID
	ehi []int32 // lower-weight endpoint (larger rank) per edge ID
}

// NewIndex builds the edge index of g in O(m).
func NewIndex(g *graph.Graph) *Index {
	m := g.NumEdges()
	ix := &Index{g: g, elo: make([]int32, m), ehi: make([]int32, m)}
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		base := g.PrefixEdges(int(u))
		for i, v := range g.UpNeighbors(u) {
			ix.elo[base+int64(i)] = v
			ix.ehi[base+int64(i)] = u
		}
	}
	return ix
}

// Graph returns the indexed graph.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// Endpoints returns the two endpoints of edge e, higher-weight first.
func (ix *Index) Endpoints(e int64) (lo, hi int32) { return ix.elo[e], ix.ehi[e] }

// EdgeID returns the ID of edge {a, b}, or -1 when absent. O(log deg).
func (ix *Index) EdgeID(a, b int32) int64 {
	if a == b {
		return -1
	}
	if a > b {
		a, b = b, a
	}
	row := ix.g.UpNeighbors(b)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= a })
	if i == len(row) || row[i] != a {
		return -1
	}
	return ix.g.PrefixEdges(int(b)) + int64(i)
}
