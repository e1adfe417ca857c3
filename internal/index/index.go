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
// The per-γ decompositions are independent, so Build fans them out over a
// bounded worker pool (BuildContext controls worker count and
// cancellation). A built index can be persisted with WriteTo and attached
// to its graph again with ReadFrom, which is what the icindex command and
// the server's index-first serving path are built on.
package index

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/kcore"
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

// parallelBuildMinWork is the total build work — γmax · size(G) elementary
// peeling units — below which BuildContext skips the worker pool even when
// asked for several workers: under roughly two million units the whole
// build completes in a few milliseconds, where goroutine startup, the
// shared claim counter, and cross-core cache traffic cost more than the
// parallelism recovers (the seed's benchmark showed "parallel" slower than
// sequential on exactly such a graph).
const parallelBuildMinWork = 2 << 20

// BuildContext constructs the index with a bounded pool of workers, each
// owning one search engine and pulling γ values off a shared counter.
// workers <= 0 uses GOMAXPROCS, dropping to a sequential build when the
// total work is below parallelBuildMinWork; workers == 1 builds
// sequentially on the calling goroutine; an explicit count is always
// honored. Cancelling ctx aborts the build (workers observe the context
// every few thousand peeling steps) and returns ctx.Err().
//
// Scheduling is size-aware: workers claim γ values in decreasing order.
// The high-γ decompositions peel the largest fraction of the graph in
// their initial cascade and are the longest tasks on the skewed graphs
// real workloads serve, so fronting them keeps the pool busy to the end
// instead of leaving the slowest task to run alone after the others drain
// (longest-processing-time-first scheduling).
//
// The result is deterministic: every worker computes the same per-γ
// decomposition a sequential build would, so the index content is
// identical regardless of worker count or claim order.
func BuildContext(ctx context.Context, g *graph.Graph, workers int) (*Index, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, errors.New("index: nil or empty graph")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gmax := kcore.MaxCore(g)
	ix := &Index{g: g, pool: core.NewPool(g), gammaMax: gmax, perGamma: make([]*core.CVS, gmax)}
	if gmax == 0 {
		return ix, nil
	}
	n := g.NumVertices()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		// Only the automatic sizing applies the work threshold: an
		// explicit worker count is a caller decision (and what the
		// determinism tests use to force the pool on small graphs).
		if int64(gmax)*g.Size() < parallelBuildMinWork {
			workers = 1
		}
	}
	if workers > int(gmax) {
		workers = int(gmax)
	}
	if workers == 1 {
		// Sequential fast path: one engine, reset per γ, no goroutines.
		eng := core.NewEngine(g, 1)
		for gamma := int32(1); gamma <= gmax; gamma++ {
			eng.Reset(gamma)
			eng.SetContext(ctx)
			cvs, err := eng.RunInto(nil, n, 0, core.WantSeq)
			if err != nil {
				return nil, err
			}
			ix.perGamma[gamma-1] = cvs
		}
		return ix, nil
	}

	var (
		claims   atomic.Int32 // γ claim counter; claim c maps to γ = gmax-c+1
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := core.NewEngine(g, 1)
			for !failed.Load() {
				c := claims.Add(1)
				if c > gmax {
					return
				}
				gamma := gmax - c + 1
				eng.Reset(gamma)
				eng.SetContext(ctx)
				cvs, err := eng.RunInto(nil, n, 0, core.WantSeq)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
				ix.perGamma[gamma-1] = cvs
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return ix, nil
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
