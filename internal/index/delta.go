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
// A γ beyond the old γmax has no tail: a keynode below the cut would
// witness a non-empty γ-core in an unchanged prefix of the old graph,
// which contradicts the old γmax. Its head is therefore already complete.
// That fixes which γ the repair visits without a core decomposition of
// ng: the pool repairs γ = 1 … γmax_old + 1 (the last being the γ that
// inserts can add), trailing empty decompositions are trimmed (deletes
// can lower γmax, and cores nest, so the empty ones are a suffix), and
// only when γmax_old + 1 came back non-empty does the repair probe
// upward, one γ at a time, until a γ is empty. An index with no
// decomposition (γmax 0) sizes its pool with kcore.MaxCore(ng) instead,
// which is how BuildContext computes every index: a build is this repair
// at cut 0 of an index with no decomposition.
//
// The per-γ repairs are independent and run on a bounded pool of workers,
// each owning one search engine and one scratch head and pulling γ values
// off a shared counter. workers <= 0 uses GOMAXPROCS, dropping to a
// sequential run when the total work is below parallelBuildMinWork;
// workers == 1 runs sequentially on the calling goroutine; an explicit
// count is always honored. Workers claim γ values in decreasing order: the
// high-γ decompositions peel the largest fraction of the graph in their
// initial cascade and are the longest tasks on the skewed graphs real
// workloads serve, so fronting them keeps the pool busy to the end instead
// of leaving the slowest task to run alone after the others drain
// (longest-processing-time-first scheduling).
//
// The result is deterministic and, serialized, byte-identical to a fresh
// build at any worker count — the property tests enforce exactly that.
// Per γ the repair costs one O(1)-per-vertex degree pass and the initial
// peel over ng, the removals down to the cut, and one exact-size copy of
// the head and the old below-cut tail; the tail — the bulk of the
// decomposition when updates touch only high-rank (low-weight) vertices —
// is copied, not recomputed. Cancelling ctx aborts the repair (workers
// observe the context every few thousand peeling steps) and returns
// ctx.Err(). ix is never modified; queries may keep serving from it
// throughout.
func (ix *Index) ApplyDeltaContext(ctx context.Context, ng *graph.Graph, cut, workers int) (*Index, error) {
	if ng == nil || ng.NumVertices() == 0 {
		return nil, errors.New("index: nil or empty graph")
	}
	if ix.g == nil {
		return nil, errors.New("index: the index to repair has no graph")
	}
	n := ng.NumVertices()
	if n != ix.g.NumVertices() {
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
	top := ix.gammaMax + 1
	if ix.gammaMax == 0 {
		top = kcore.MaxCore(ng)
	}
	perGamma := make([]*core.CVS, top)
	if err := ix.repairAll(ctx, ng, cut, workers, perGamma); err != nil {
		return nil, err
	}
	gmax := top
	for gmax > 0 && perGamma[gmax-1].Count() == 0 {
		gmax--
	}
	clear(perGamma[gmax:])
	perGamma = perGamma[:gmax]
	if ix.gammaMax > 0 && gmax == top {
		eng, scratch := core.NewEngine(ng, 1), &core.CVS{}
		for {
			cvs, err := ix.repairGamma(ctx, eng, scratch, gmax+1, cut)
			if err != nil {
				return nil, err
			}
			if cvs.Count() == 0 {
				break
			}
			perGamma = append(perGamma, cvs)
			gmax++
		}
	}
	return &Index{g: ng, pool: core.NewPool(ng), gammaMax: gmax, perGamma: perGamma}, nil
}

// repairAll fills perGamma[γ-1] with the repaired γ decomposition for
// every γ in [1, len(perGamma)], on the worker pool ApplyDeltaContext
// describes.
func (ix *Index) repairAll(ctx context.Context, ng *graph.Graph, cut, workers int, perGamma []*core.CVS) error {
	top := int32(len(perGamma))
	if top == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		// Only the automatic sizing applies the work threshold: an
		// explicit worker count is a caller decision (and what the
		// determinism tests use to force the pool on small graphs).
		if int64(top)*ng.Size() < parallelBuildMinWork {
			workers = 1
		}
	}
	if workers > int(top) {
		workers = int(top)
	}
	if workers == 1 {
		eng, scratch := core.NewEngine(ng, 1), &core.CVS{}
		for gamma := int32(1); gamma <= top; gamma++ {
			cvs, err := ix.repairGamma(ctx, eng, scratch, gamma, cut)
			if err != nil {
				return err
			}
			perGamma[gamma-1] = cvs
		}
		return nil
	}

	var (
		claims   atomic.Int32 // claim c maps to γ = top-c+1, largest first
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng, scratch := core.NewEngine(ng, 1), &core.CVS{}
			for !failed.Load() {
				c := claims.Add(1)
				if c > top {
					return
				}
				gamma := top - c + 1
				cvs, err := ix.repairGamma(ctx, eng, scratch, gamma, cut)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
				perGamma[gamma-1] = cvs
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// repairGamma computes the γ decomposition of the post-delta graph: the
// at-or-above-cut head by peeling eng's graph into scratch, which the
// caller reuses across γ, followed by the old decomposition's below-cut
// tail, both copied once into a result allocated once, at its exact size.
func (ix *Index) repairGamma(ctx context.Context, eng *core.Engine, scratch *core.CVS, gamma int32, cut int) (*core.CVS, error) {
	eng.Reset(gamma)
	eng.SetContext(ctx)
	head, err := eng.RunInto(scratch, eng.Graph().NumVertices(), cut, core.WantSeq)
	if err != nil {
		return nil, err
	}
	var tailKeys, tailPos, tailSeq []int32
	var shift int32
	if gamma <= ix.gammaMax {
		old := ix.perGamma[gamma-1]
		// Keys are emitted in decreasing rank order, so the tail of
		// keynodes below the cut is a suffix.
		j := sort.Search(len(old.Keys), func(i int) bool { return old.Keys[i] < int32(cut) })
		base := old.KeyPos[j]
		tailKeys, tailPos, tailSeq = old.Keys[j:], old.KeyPos[j+1:], old.Seq[base:]
		shift = int32(len(head.Seq)) - base
	}
	// One allocation holds all three slices, each capped at its length.
	hk, nk := len(head.Keys), len(head.Keys)+len(tailKeys)
	buf := make([]int32, 2*nk+1+len(head.Seq)+len(tailSeq))
	out := &core.CVS{P: head.P, Keys: buf[:nk:nk], KeyPos: buf[nk : 2*nk+1 : 2*nk+1], Seq: buf[2*nk+1:]}
	copy(out.Keys, head.Keys)
	copy(out.Keys[hk:], tailKeys)
	copy(out.KeyPos, head.KeyPos)
	for i, kp := range tailPos {
		out.KeyPos[hk+1+i] = kp + shift
	}
	copy(out.Seq, head.Seq)
	copy(out.Seq[len(head.Seq):], tailSeq)
	return out, nil
}
