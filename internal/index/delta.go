package index

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/kcore"
)

// ApplyDelta repairs the index for a graph produced by
// graph.ApplyEdgeDeltaCut, recomputing only the part of every γ
// decomposition the delta can have changed. See ApplyDeltaContext.
func (ix *Index) ApplyDelta(ng *graph.Graph, cut int) (*Index, error) {
	return ix.ApplyDeltaContext(context.Background(), ng, cut, 0)
}

// parallelBuildMinWork is the total work — γmax · size(G) elementary
// peeling units — below which ApplyDeltaContext skips the worker pool even
// when asked for several workers: under roughly two million units the
// whole build completes in a few milliseconds, where goroutine startup,
// the shared claim counter, and cross-core cache traffic cost more than
// the parallelism recovers (the seed's benchmark showed "parallel" slower
// than sequential on exactly such a graph).
const parallelBuildMinWork = 2 << 20

// ApplyDeltaContext returns a fresh index over ng, equal in content to a
// fresh build on ng but computed by reusing ix: ng must come from
// graph.ApplyEdgeDeltaCut on ix's graph, and cut is the returned delta
// cut. The repair exploits that every prefix subgraph G[0, p) with
// p <= cut is identical in the old and new graphs, so for each γ the
// keynodes with rank < cut — and their groups, byte-for-byte including
// segment order — are unchanged: when the peeling loop first reaches a
// keynode below the cut, every vertex still alive has rank < cut (the
// iteration removes the maximum-rank alive keynode each step), and from
// that state on the old and new runs see identical degrees, adjacency
// rows, and queues. The repair therefore runs the peeling only down to
// the cut on the new graph (the head) and splices the old decomposition's
// below-cut tail behind it verbatim.
//
// A γ beyond the old γmax (degeneracy grew) has no tail: a keynode below
// the cut would witness a non-empty γ-core in an unchanged prefix of the
// old graph, which contradicts the old γmax. Symmetrically, a γ beyond
// the new γmax is dropped with nothing lost: any old below-cut keynode
// would still witness a non-empty γ-core in the new graph. A build is
// therefore this repair at cut 0 of an index with no decomposition (γmax
// 0), which is how BuildContext computes every index.
//
// The per-γ repairs are independent and run on a bounded pool of workers,
// each owning one search engine and pulling γ values off a shared counter.
// workers <= 0 uses GOMAXPROCS, dropping to a sequential run when the
// total work is below parallelBuildMinWork; workers == 1 runs sequentially
// on the calling goroutine; an explicit count is always honored. Workers
// claim γ values in decreasing order: the high-γ decompositions peel the
// largest fraction of the graph in their initial cascade and are the
// longest tasks on the skewed graphs real workloads serve, so fronting
// them keeps the pool busy to the end instead of leaving the slowest task
// to run alone after the others drain (longest-processing-time-first
// scheduling).
//
// The result is deterministic and, serialized, byte-identical to a fresh
// build at any worker count — the property tests enforce exactly that.
// The cost is still O(size(G)) per γ to peel down to the cut, but the
// below-cut suffix — the bulk of the decomposition when updates touch
// only high-rank (low-weight) vertices — is spliced, not recomputed.
// Cancelling ctx aborts the repair (workers observe the context every few
// thousand peeling steps) and returns ctx.Err(). ix is never modified;
// queries may keep serving from it throughout.
func (ix *Index) ApplyDeltaContext(ctx context.Context, ng *graph.Graph, cut, workers int) (*Index, error) {
	if ng == nil || ng.NumVertices() == 0 {
		return nil, errors.New("index: nil or empty graph")
	}
	n := ng.NumVertices()
	if ix.g == nil || n != ix.g.NumVertices() {
		return nil, fmt.Errorf("index: delta graph has %d vertices, index was built for %d", n, ix.g.NumVertices())
	}
	if cut < 0 || cut > n {
		return nil, fmt.Errorf("index: delta cut %d out of range [0, %d]", cut, n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cut == n {
		// Empty delta: same edge set, so the decompositions carry over;
		// only the graph binding changes.
		return &Index{g: ng, pool: core.NewPool(ng), gammaMax: ix.gammaMax, perGamma: ix.perGamma}, nil
	}
	gmax := kcore.MaxCore(ng)
	out := &Index{g: ng, pool: core.NewPool(ng), gammaMax: gmax, perGamma: make([]*core.CVS, gmax)}
	if gmax == 0 {
		return out, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		// Only the automatic sizing applies the work threshold: an
		// explicit worker count is a caller decision (and what the
		// determinism tests use to force the pool on small graphs).
		if int64(gmax)*ng.Size() < parallelBuildMinWork {
			workers = 1
		}
	}
	if workers > int(gmax) {
		workers = int(gmax)
	}
	if workers == 1 {
		eng := core.NewEngine(ng, 1)
		for gamma := int32(1); gamma <= gmax; gamma++ {
			cvs, err := ix.repairGamma(ctx, eng, gamma, cut)
			if err != nil {
				return nil, err
			}
			out.perGamma[gamma-1] = cvs
		}
		return out, nil
	}

	var (
		claims   atomic.Int32 // claim c maps to γ = gmax-c+1, largest first
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := core.NewEngine(ng, 1)
			for !failed.Load() {
				c := claims.Add(1)
				if c > gmax {
					return
				}
				gamma := gmax - c + 1
				cvs, err := ix.repairGamma(ctx, eng, gamma, cut)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
				out.perGamma[gamma-1] = cvs
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// repairGamma computes the γ decomposition of the post-delta graph: the
// at-or-above-cut head by peeling eng's graph, plus the old
// decomposition's below-cut tail spliced on unchanged.
func (ix *Index) repairGamma(ctx context.Context, eng *core.Engine, gamma int32, cut int) (*core.CVS, error) {
	eng.Reset(gamma)
	eng.SetContext(ctx)
	head, err := eng.RunInto(nil, ix.g.NumVertices(), cut, core.WantSeq)
	if err != nil {
		return nil, err
	}
	if gamma > ix.gammaMax {
		return head, nil // no old decomposition; the head is complete
	}
	old := ix.perGamma[gamma-1]
	// Keys are emitted in decreasing rank order, so the tail of keynodes
	// below the cut is a suffix.
	j := sort.Search(len(old.Keys), func(i int) bool { return old.Keys[i] < int32(cut) })
	if j == len(old.Keys) {
		return head, nil
	}
	base := old.KeyPos[j]
	shift := int32(len(head.Seq)) - base
	head.Keys = append(head.Keys, old.Keys[j:]...)
	for _, kp := range old.KeyPos[j+1:] {
		head.KeyPos = append(head.KeyPos, kp+shift)
	}
	head.Seq = append(head.Seq, old.Seq[base:]...)
	return head, nil
}
