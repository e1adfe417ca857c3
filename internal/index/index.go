// Package index implements the index-based algorithm category that the
// paper contrasts LocalSearch against (IndexAll, Li et al. [26]): a
// pre-built structure that materializes the keynode and community-aware
// vertex sequences of *every* γ value in compact form, so any (k, γ) query
// is answered in time proportional to its output: the groups of the
// reported communities and, for each group vertex, its neighbours within
// G≥f(u) of its community's keynode u. A query touches no O(n) state; its
// enumeration state comes from a pool and is reset in output-size time.
//
// The index exhibits exactly the trade-offs the paper's introduction
// describes: construction costs O(γmax · size(G)), the structure must be
// rebuilt when the graph changes, and it serves only the single vertex
// weight vector it was built with — whereas LocalSearch needs no
// preparation at all. BenchmarkIndexAll* and BenchmarkIndexBuild quantify
// both sides.
//
// The per-γ decompositions are independent, and one routine computes them
// all: ApplyDeltaContext fans them out over a bounded worker pool, and a
// build is its repair at cut 0 (BuildContext controls worker count and
// cancellation). A built index can be persisted with WriteTo and attached
// to its graph again with ReadFrom, which is what the icindex command and
// the server's index-first serving path are built on.
package index

import (
	"context"
	"fmt"

	"influcomm/internal/core"
	"influcomm/internal/graph"
)

// Index holds one CountIC decomposition per γ ∈ [1, γmax]. Queries share
// the graph the index was built on and a pool of enumeration states over
// it.
type Index struct {
	g        *graph.Graph
	pool     *core.Pool
	gammaMax int32
	perGamma []*core.CVS // index γ-1
}

// Build constructs the full index in O(γmax · size(G)) total work, using
// all available cores (the per-γ decompositions are independent). Use
// BuildContext for cancellation or an explicit worker count.
func Build(g *graph.Graph) (*Index, error) {
	return BuildContext(context.Background(), g, 0)
}

// BuildContext constructs the index as the delta repair, at cut 0, of an
// index with no decomposition: every γ is then above the old γmax, so each
// repair runs the whole peeling and splices nothing. Worker count (0 =
// GOMAXPROCS, 1 = sequential), scheduling and cancellation are
// ApplyDeltaContext's, and the result is identical at any worker count.
func BuildContext(ctx context.Context, g *graph.Graph, workers int) (*Index, error) {
	return (&Index{g: g}).ApplyDeltaContext(ctx, g, 0, workers)
}

// Graph returns the graph the index serves.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// GammaMax returns the largest γ with a non-empty γ-core.
func (ix *Index) GammaMax() int32 { return ix.gammaMax }

// CommunityCount returns the number of influential γ-communities in the
// whole graph, in O(1).
func (ix *Index) CommunityCount(gamma int32) int {
	if gamma < 1 || gamma > ix.gammaMax {
		return 0
	}
	return ix.perGamma[gamma-1].Count()
}

// TopK answers a query from the materialized sequences: it runs EnumIC
// restricted to the last k keynodes on a pooled enumeration state. Each
// group vertex of the answer scans only its neighbours within G≥f(u) of
// its community's keynode u, so the cost is proportional to the reported
// communities and their edges, with no O(n) term. It is safe for
// concurrent use.
func (ix *Index) TopK(k int, gamma int32) ([]*core.Community, error) {
	if k < 1 {
		return nil, fmt.Errorf("index: k must be >= 1, got %d", k)
	}
	if gamma < 1 {
		return nil, fmt.Errorf("index: gamma must be >= 1, got %d", gamma)
	}
	if gamma > ix.gammaMax {
		return nil, nil // no γ-core, no communities
	}
	return ix.pool.EnumIC(ix.perGamma[gamma-1], k), nil
}

// MemoryFootprint returns the number of int32 slots the materialized
// sequences occupy: the index-size burden the paper's introduction warns
// about.
func (ix *Index) MemoryFootprint() int64 {
	var total int64
	for _, c := range ix.perGamma {
		total += int64(len(c.Keys)) + int64(len(c.KeyPos)) + int64(len(c.Seq))
	}
	return total
}
