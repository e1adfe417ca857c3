package semiext

import (
	"context"
	"fmt"

	"influcomm/internal/baseline"
	"influcomm/internal/core"
	"influcomm/internal/graph"
)

// IOStats quantifies the disk and memory behavior of a semi-external run;
// the quantities plotted in Figures 16 and 17.
type IOStats struct {
	// BytesRead is the edge payload volume fetched from disk for the final
	// prefix: 4 bytes per loaded edge on a v1 file, the compressed bytes
	// through the end of the last touched block on v2.
	BytesRead int64
	// EdgesLoaded is the peak number of edges resident in memory: the
	// "size of visited graph" of Figure 17.
	EdgesLoaded int64
	// VisitedFraction is EdgesLoaded / total edges.
	VisitedFraction float64
	// Rounds counts the prefix subgraphs processed (LocalSearchSE only).
	Rounds int
	// Communities found in the final subgraph.
	Communities int
}

// Source adapts a View to core.SearchSource: the View answers the
// prefix-size geometry from its resident up-degrees, and each round
// decodes just the prefix [0, p) from the edge file. A Source keeps its
// decode buffer and CSR scratch across rounds and queries, so it serves
// one query at a time, and the graph Materialize returns is valid only
// until the next Materialize or DropScratch.
type Source struct {
	*View
	// Workers splits v2 bulk decodes as in AdjPrefix.
	Workers int

	buf []int32 // decode target when the adjacency cannot alias the mapping
	csr graph.PrefixScratch
}

// Materialize assembles the prefix graph [0, p) in the source's scratch:
// AdjPrefix at the source's worker count, then the O(p+E) CSR assembly,
// which rejects any out-of-range or non-ascending entry. The graph's
// weights and up-degrees alias the View's vectors, so it must not be used
// after Close.
func (s *Source) Materialize(p int) (*graph.Graph, error) {
	adj, err := s.AdjPrefix(p, s.edges(p), s.Workers, s.buf)
	if err != nil {
		return nil, err
	}
	if !s.ZeroCopy() {
		s.buf = adj
	}
	return graph.FromUpAdjacency(s.weights[:p], s.upDeg[:p], adj, &s.csr)
}

// ScratchBytes is the memory the source's scratch keeps alive.
func (s *Source) ScratchBytes() int64 {
	return s.csr.Bytes() + 4*int64(cap(s.buf))
}

// DropScratch releases the source's scratch.
func (s *Source) DropScratch() {
	s.buf = nil
	s.csr = graph.PrefixScratch{}
}

// LocalSearchSE answers a top-k influential γ-community query over the edge
// file at path, reading only as far into the file as the geometric growth
// of LocalSearch requires (see the semi-external remark of §3.1): it is
// core.TopKOver over the file's View. Communities are returned in
// decreasing influence order; vertex IDs are global ranks.
func LocalSearchSE(path string, k int, gamma int32) ([]*core.Community, IOStats, error) {
	var st IOStats
	if k < 1 || gamma < 1 {
		return nil, st, fmt.Errorf("semiext: invalid query k=%d γ=%d", k, gamma)
	}
	v, err := OpenView(path)
	if err != nil {
		return nil, st, err
	}
	defer v.Close()
	if v.NumVertices() == 0 {
		return nil, st, fmt.Errorf("semiext: empty graph in %s", path)
	}
	res, err := core.TopKOver(context.Background(), &Source{View: v}, k, gamma, core.Options{})
	if err != nil {
		return nil, st, err
	}
	p := res.Stats.FinalPrefix
	st = IOStats{
		BytesRead:   v.payloadSpan(p),
		EdgesLoaded: v.edges(p),
		Rounds:      res.Stats.Rounds,
		Communities: res.Stats.Communities,
	}
	if v.NumEdges() > 0 {
		st.VisitedFraction = float64(st.EdgesLoaded) / float64(v.NumEdges())
	}
	return res.Communities, st, nil
}

// OnlineAllSE is the semi-external OnlineAll of [27]: it ingests the entire
// edge file in decreasing weight order (the file order) into memory and
// runs the global OnlineAll enumeration. Its visited graph is therefore
// always the whole graph — the behavior Figure 17 contrasts with
// LocalSearchSE. ([27] additionally evicts edges of already-reported
// communities to bound peak RAM; that optimization changes neither the I/O
// volume nor the visited-graph size, so this reproduction omits it — see
// DESIGN.md §4.)
func OnlineAllSE(path string, k int, gamma int32) ([]baseline.Community, IOStats, error) {
	var st IOStats
	if k < 1 || gamma < 1 {
		return nil, st, fmt.Errorf("semiext: invalid query k=%d γ=%d", k, gamma)
	}
	v, err := OpenView(path)
	if err != nil {
		return nil, st, err
	}
	defer v.Close()
	n := v.NumVertices()
	if n == 0 {
		return nil, st, fmt.Errorf("semiext: empty graph in %s", path)
	}
	g, err := v.Graph(1)
	if err != nil {
		return nil, st, err
	}
	comms, bs, err := baseline.OnlineAll(g, k, gamma)
	if err != nil {
		return nil, st, err
	}
	st.BytesRead = v.payloadSpan(n)
	st.EdgesLoaded = v.NumEdges()
	st.VisitedFraction = 1
	st.Rounds = 1
	st.Communities = bs.Communities
	return comms, st, nil
}
