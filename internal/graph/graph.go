// Package graph provides the weighted undirected graph representation used
// throughout the repository.
//
// Vertices are stored in strictly decreasing weight order and the vertex ID
// is its weight rank: vertex 0 carries the highest weight. With this
// convention the induced subgraph G≥τ of the paper is always a prefix
// [0, p) of the vertex array, and the paper's pre-partitioned neighbor set
// N≥(u) (neighbors with weight no smaller than ω(u)) is exactly the leading
// run of u's ascending-sorted adjacency list. Ties between equal raw weights
// are broken by original vertex ID, which realizes the paper's "distinct
// weights" assumption as a strict total order.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Graph is an immutable vertex-weighted undirected graph in CSR form.
// Construct one with a Builder, FromEdges, or one of the loaders in this
// package. The zero value is an empty graph.
type Graph struct {
	n int   // number of vertices
	m int64 // number of undirected edges

	// weights[u] is the raw weight of vertex u; non-increasing in u, and the
	// effective total order (weight desc, original ID asc) is strictly
	// decreasing in u.
	weights []float64

	// origID[u] is the identifier the vertex had in the Builder's input.
	origID []int32

	// labels is either empty or has length n; optional display names.
	labels []string

	// CSR adjacency. adj[off[u]:off[u+1]] lists the neighbors of u sorted by
	// ascending rank. The first upDeg[u] of them have rank < u (these are the
	// paper's N≥(u)); the rest have rank > u.
	off   []int64
	adj   []int32
	upDeg []int32

	// upPrefix[p] is the total number of edges whose both endpoints lie in
	// the prefix [0, p); upPrefix has length n+1. It makes size(G≥τ) an O(1)
	// lookup for every prefix.
	upPrefix []int64
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return g.m }

// Size returns size(G) = |V| + |E| as defined in the paper.
func (g *Graph) Size() int64 { return int64(g.n) + g.m }

// Weight returns the raw weight of vertex u.
func (g *Graph) Weight(u int32) float64 { return g.weights[u] }

// Weights returns the weight vector indexed by rank. The caller must not
// modify it.
func (g *Graph) Weights() []float64 { return g.weights }

// OrigID returns the identifier vertex u had before rank-sorting.
func (g *Graph) OrigID(u int32) int32 {
	if len(g.origID) == 0 {
		return u
	}
	return g.origID[u]
}

// Label returns the display name of vertex u, or a numeric fallback when the
// graph carries no labels.
func (g *Graph) Label(u int32) string {
	if len(g.labels) == 0 {
		return fmt.Sprintf("v%d", g.OrigID(u))
	}
	return g.labels[u]
}

// HasLabels reports whether the graph carries display names.
func (g *Graph) HasLabels() bool { return len(g.labels) > 0 }

// Degree returns the number of neighbors of u in the full graph.
func (g *Graph) Degree(u int32) int32 { return int32(g.off[u+1] - g.off[u]) }

// Neighbors returns the neighbors of u sorted by ascending rank. The caller
// must not modify the returned slice.
func (g *Graph) Neighbors(u int32) []int32 { return g.adj[g.off[u]:g.off[u+1]] }

// UpNeighbors returns N≥(u): the neighbors of u whose weight is larger than
// ω(u) (equivalently, rank smaller than u). The caller must not modify the
// returned slice.
func (g *Graph) UpNeighbors(u int32) []int32 {
	return g.adj[g.off[u] : g.off[u]+int64(g.upDeg[u])]
}

// UpDegree returns |N≥(u)|.
func (g *Graph) UpDegree(u int32) int32 { return g.upDeg[u] }

// PrefixSize returns size(G≥τ) for the prefix subgraph induced by the first
// p vertices: p plus the number of edges with both endpoints in [0, p).
func (g *Graph) PrefixSize(p int) int64 {
	return int64(p) + g.upPrefix[p]
}

// PrefixEdges returns the number of edges with both endpoints in [0, p).
func (g *Graph) PrefixEdges(p int) int64 { return g.upPrefix[p] }

// PrefixForSize returns the smallest prefix length p such that
// PrefixSize(p) >= want, or n if no prefix is that large. It implements
// Line 4 of Algorithm 1 (grow G≥τ to at least δ times its size) in
// O(log n) using the prefix-sum array.
func (g *Graph) PrefixForSize(want int64) int {
	if want <= 0 {
		return 0
	}
	p := sort.Search(g.n, func(p int) bool { return g.PrefixSize(p+1) >= want })
	if p == g.n {
		return g.n
	}
	return p + 1
}

// DegreeWithin returns the number of neighbors of u with rank < p, i.e. u's
// degree inside the prefix subgraph [0, p). It runs in O(log deg(u)), and
// in O(1) when p >= n: the prefix is then the whole graph, so the whole
// row counts, which is what every peel over the whole graph (an index
// build or repair) asks for.
func (g *Graph) DegreeWithin(u int32, p int) int32 {
	if p >= g.n {
		return g.Degree(u)
	}
	row := g.adj[g.off[u]:g.off[u+1]]
	return int32(sort.Search(len(row), func(i int) bool { return int(row[i]) >= p }))
}

// NeighborsWithin returns the neighbors of u with rank < p. The caller must
// not modify the returned slice.
func (g *Graph) NeighborsWithin(u int32, p int) []int32 {
	d := g.DegreeWithin(u, p)
	return g.adj[g.off[u] : g.off[u]+int64(d)]
}

// RankOfWeight returns the number of vertices with weight strictly greater
// than w under the effective total order; equivalently the prefix length p
// such that G≥w = [0, p) when w matches no vertex, using raw weights.
func (g *Graph) RankOfWeight(w float64) int {
	// weights is non-increasing; find first index with weights[i] < w.
	return sort.Search(g.n, func(i int) bool { return g.weights[i] < w })
}

// Validate checks the invariants of the CSR representation, finite
// non-increasing weights included. Loaders do not call it: every loader
// assembles through Builder or FromUpAdjacency, which hold these
// invariants by construction. Tests and fuzzers use it to check that.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return fmt.Errorf("graph: negative vertex count %d", g.n)
	}
	if len(g.weights) != g.n || len(g.off) != g.n+1 || len(g.upDeg) != g.n || len(g.upPrefix) != g.n+1 {
		return fmt.Errorf("graph: inconsistent array lengths (n=%d)", g.n)
	}
	if len(g.labels) != 0 && len(g.labels) != g.n {
		return fmt.Errorf("graph: labels length %d != n %d", len(g.labels), g.n)
	}
	var halfEdges int64
	for u := 0; u < g.n; u++ {
		if math.IsNaN(g.weights[u]) || math.IsInf(g.weights[u], 0) {
			return fmt.Errorf("graph: vertex %d has non-finite weight %v", u, g.weights[u])
		}
		if u > 0 && g.weights[u] > g.weights[u-1] {
			return fmt.Errorf("graph: weights not sorted at vertex %d", u)
		}
		lo, hi := g.off[u], g.off[u+1]
		if lo > hi || hi > int64(len(g.adj)) {
			return fmt.Errorf("graph: bad offsets for vertex %d", u)
		}
		row := g.adj[lo:hi]
		up := 0
		for i, v := range row {
			if v < 0 || int(v) >= g.n {
				return fmt.Errorf("graph: neighbor %d of vertex %d out of range", v, u)
			}
			if int(v) == u {
				return fmt.Errorf("graph: self loop at vertex %d", u)
			}
			if i > 0 && row[i-1] >= v {
				return fmt.Errorf("graph: adjacency of vertex %d not strictly ascending", u)
			}
			if int(v) < u {
				up++
			}
		}
		if int(g.upDeg[u]) != up {
			return fmt.Errorf("graph: upDeg[%d]=%d, want %d", u, g.upDeg[u], up)
		}
		if g.upPrefix[u+1]-g.upPrefix[u] != int64(up) {
			return fmt.Errorf("graph: upPrefix inconsistent at vertex %d", u)
		}
		halfEdges += int64(len(row))
	}
	if halfEdges != 2*g.m {
		return fmt.Errorf("graph: adjacency lists sum to %d half-edges, want %d", halfEdges, 2*g.m)
	}
	return nil
}
