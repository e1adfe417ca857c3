package graph

import (
	"fmt"
	"math"
)

// PrefixScratch holds the backing arrays FromUpAdjacency assembles a graph
// into, so a caller that materializes many prefix subgraphs (a semi-external
// query running one round after another) reuses one set of allocations
// instead of rebuilding them per round. A graph returned by FromUpAdjacency
// with a scratch aliases the scratch's arrays: the scratch must not be
// passed to FromUpAdjacency again while that graph is still in use.
//
// The zero value is ready to use.
type PrefixScratch struct {
	off      []int64
	adj      []int32
	upPrefix []int64
	fill     []int64
}

// Bytes returns the scratch's retained capacity in bytes, so pools holding
// scratches can bound how much memory idles between uses.
func (s *PrefixScratch) Bytes() int64 {
	return 8*int64(cap(s.off)+cap(s.upPrefix)+cap(s.fill)) + 4*int64(cap(s.adj))
}

// growI64 returns s resized to n entries, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growI64(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int64, n)
}

// growI32 is growI64 for []int32.
func growI32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

// FromUpAdjacency assembles a Graph directly from the components a
// semi-external edge file stores: per-vertex weights (non-increasing in
// rank), per-vertex up-degrees, and the concatenation of every up-adjacency
// list in ascending rank order of its owner, each list strictly ascending.
// Vertex IDs equal positions, exactly as a prefix of a rank-sorted graph.
// It is the one assembler of rank-ordered input: edge-file prefixes,
// .bin files (ReadBinary) and induced subgraphs (InducedSubgraph) all
// come through it, and the latter two attach original IDs afterwards.
//
// Unlike Builder — which re-sorts vertices, normalizes, sorts, and
// deduplicates the edge list on every Build — this runs in O(p + E) with
// two passes over upAdj and no sorting at all, which is what makes
// re-materializing a grown prefix per query round cheap. Malformed input
// (an out-of-range or non-ascending neighbor, a degree exceeding its
// vertex's rank, a degree sum that disagrees with len(upAdj)) is rejected,
// so corrupt edge files cannot produce a graph that violates CSR
// invariants.
//
// The returned graph aliases weights and upDeg (they must stay immutable
// while it lives) and, when sc is non-nil, the scratch's arrays.
func FromUpAdjacency(weights []float64, upDeg []int32, upAdj []int32, sc *PrefixScratch) (*Graph, error) {
	p := len(weights)
	if p == 0 {
		return nil, ErrNoVertices
	}
	if len(upDeg) != p {
		return nil, fmt.Errorf("graph: %d weights but %d up-degrees", p, len(upDeg))
	}
	if int64(p) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d vertices exceed int32 range", p)
	}
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("graph: vertex %d has non-finite weight %v", i, w)
		}
		if i > 0 && w > weights[i-1] {
			return nil, fmt.Errorf("graph: weights not sorted at vertex %d", i)
		}
	}
	if sc == nil {
		sc = &PrefixScratch{}
	}

	// Pass 1: validate every list and count each vertex's total degree into
	// off[v+1] (up-degree contributed by its own list, down-degree by each
	// occurrence in a later list), building the up-edge prefix sums along
	// the way.
	off := growI64(sc.off, p+1)
	for i := range off {
		off[i] = 0
	}
	upPrefix := growI64(sc.upPrefix, p+1)
	upPrefix[0] = 0
	idx := 0
	for u := 0; u < p; u++ {
		d := int(upDeg[u])
		if d < 0 || d > u {
			return nil, fmt.Errorf("graph: vertex %d claims %d up-neighbors, at most %d possible", u, d, u)
		}
		if d > len(upAdj)-idx {
			return nil, fmt.Errorf("graph: up-adjacency holds %d entries, degrees need more", len(upAdj))
		}
		prev := int32(-1)
		for _, v := range upAdj[idx : idx+d] {
			if v <= prev || int(v) >= u {
				return nil, fmt.Errorf("graph: corrupt up-adjacency entry %d of vertex %d", v, u)
			}
			off[v+1]++
			prev = v
		}
		off[u+1] += int64(d)
		upPrefix[u+1] = upPrefix[u] + int64(d)
		idx += d
	}
	if idx != len(upAdj) {
		return nil, fmt.Errorf("graph: up-degrees sum to %d entries, up-adjacency holds %d", idx, len(upAdj))
	}
	m := int64(idx)

	for u := 0; u < p; u++ {
		off[u+1] += off[u]
	}

	// Pass 2: place each list as the up-run of its owner's row and scatter
	// the reverse (down) entries. Down-neighbors of v are written in
	// ascending u, so every row ends up strictly ascending with exactly
	// upDeg[u] leading up-entries — the CSR invariants — by construction.
	adj := growI32(sc.adj, int(2*m))
	fill := growI64(sc.fill, p)
	for u := 0; u < p; u++ {
		fill[u] = off[u] + int64(upDeg[u])
	}
	idx = 0
	for u := 0; u < p; u++ {
		d := int(upDeg[u])
		copy(adj[off[u]:off[u]+int64(d)], upAdj[idx:idx+d])
		for _, v := range upAdj[idx : idx+d] {
			adj[fill[v]] = int32(u)
			fill[v]++
		}
		idx += d
	}

	sc.off, sc.adj, sc.upPrefix, sc.fill = off, adj, upPrefix, fill
	return &Graph{
		n:        p,
		m:        m,
		weights:  weights,
		off:      off,
		adj:      adj,
		upDeg:    upDeg,
		upPrefix: upPrefix,
	}, nil
}
