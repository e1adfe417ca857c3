package server

import (
	"context"
	"fmt"
	"net/http"
	"net/url"

	"influcomm/internal/cluster"
	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/query"
	"influcomm/internal/store"
	"influcomm/internal/truss"
)

// This file is the engine boundary of the serving layer: one place where a
// parsed query is executed against a pinned dataset. Both the single-process
// HTTP handler (/v1/topk) and the shard stream the cluster coordinator
// consumes (/v1/shard/stream) enter through it, so a query answers
// identically whether it arrives from a client or from a coordinator
// scatter — the property the distributed tier's byte-identical guarantee is
// built on.

// queryParams is the engine-boundary description of one query: what to
// search for, independent of how the request arrived or where the answer
// goes.
type queryParams = cluster.TopKParams

// parseQueryParams reads k/gamma/mode from URL query values with the one
// parser every top-k route shares, under the server's k bound.
func parseQueryParams(q url.Values, maxK int) (queryParams, error) {
	p, err := cluster.ParseTopKParams(q, maxK)
	if err != nil {
		return p, &httpError{http.StatusBadRequest, err.Error()}
	}
	return p, nil
}

// execResult is what one executed query produced, before any transport
// framing (HTTP envelope, stream lines) is applied.
type execResult struct {
	Communities []communityJSON
	// Accessed is the final LocalSearch prefix; 0 on the index path.
	Accessed int
	// Path is the access path that answered: query.PathIndex, PathLocal
	// or PathTruss.
	Path string
}

// executeTopK runs one top-k query against the pinned dataset ds. epoch is
// the snapshot epoch the caller read before executing; the prebuilt index
// answers only while it still equals the index's attach epoch, so a query
// racing an update can never serve a pre-update index answer as current.
// Serving-path metrics are counted here, shared by every entry point.
func (s *Server) executeTopK(ctx context.Context, ds *dataset, p queryParams, epoch uint64) (*execResult, error) {
	out := &execResult{Path: query.PathLocal}
	ix := ds.indexAt(epoch)
	switch {
	case p.Mode == cluster.ModeTruss:
		out.Path = query.PathTruss
		// Graph and epoch must be one coherent read for mutable datasets,
		// so the truss index is always built on exactly the snapshot the
		// epoch names (possibly newer than the keyed epoch above, which is
		// the harmless direction).
		g, tepoch := snapshotOf(ds.st)
		if err := validateTruss(ds, g, p.Gamma); err != nil {
			return nil, err
		}
		res, err := truss.LocalSearchCtx(ctx, ds.truss(g, tepoch), p.K, p.Gamma)
		if err != nil {
			return nil, queryError(err)
		}
		s.metrics.localServed.Add(1)
		ds.localServed.Add(1)
		for _, c := range res.Communities {
			out.Communities = append(out.Communities, cluster.Render(g, c.Influence(), c.Keynode(), c.Vertices()))
		}
		out.Accessed = res.Stats.FinalPrefix
	case ix != nil && p.Mode == cluster.ModeCore:
		// Index-first path: the materialized decomposition answers the
		// default semantics in output-proportional time. Accessed stays 0 —
		// the point of the index is that no part of the graph outside the
		// reported communities is touched.
		out.Path = query.PathIndex
		comms, err := ix.TopK(p.K, p.Gamma)
		if err != nil {
			return nil, queryError(err)
		}
		s.metrics.indexServed.Add(1)
		ds.indexServed.Add(1)
		for _, c := range comms {
			out.Communities = append(out.Communities, cluster.Render(ds.st.Graph(), c.Influence(), c.Keynode(), c.Vertices()))
		}
	default:
		res, err := ds.st.TopK(ctx, p.K, p.Gamma, core.Options{NonContainment: p.Mode == cluster.ModeNonContainment})
		if err != nil {
			return nil, queryError(err)
		}
		s.metrics.localServed.Add(1)
		ds.localServed.Add(1)
		for _, c := range res.Communities {
			out.Communities = append(out.Communities, cluster.Render(ds.st.Graph(), c.Influence(), c.Keynode(), c.Vertices()))
		}
		out.Accessed = res.Stats.FinalPrefix
	}
	return out, nil
}

// validateTruss rejects truss queries the dataset cannot answer.
func validateTruss(ds *dataset, g *graph.Graph, gamma int32) error {
	if g == nil {
		return &httpError{http.StatusBadRequest,
			fmt.Sprintf("truss queries need whole-graph access; dataset %q uses the %s backend", ds.name, ds.st.Backend())}
	}
	if gamma < 2 {
		return &httpError{http.StatusBadRequest, "truss queries need gamma >= 2"}
	}
	return nil
}

// streamResult describes how a progressive stream ended.
type streamResult struct {
	// Sent is the number of communities emitted.
	Sent int
	// Exhausted reports the shard ran out of communities before the
	// requested limit was reached: the stream's bound for any further
	// candidate is "none", not the last emitted influence.
	Exhausted bool
	// Accessed is the final LocalSearch prefix; 0 on the index path.
	Accessed int
}

// executeStream runs one progressive query against the pinned dataset ds,
// emitting communities in decreasing influence order until emit returns
// false or limit communities have been sent. g and epoch are the caller's
// pinned snapshot (g nil for semi-external backends). Three execution paths
// share the entry point:
//
//   - a valid prebuilt index serves core-semantics streams in
//     output-proportional time;
//   - whole-graph backends run LocalSearch-P (core.StreamCtx) or the truss
//     stream, which do only the work the emitted prefix requires — an early
//     cancellation from the coordinator stops the search right there;
//   - semi-external backends, which cannot stream progressively, fall back
//     to executeTopK with k = limit; the results are identical, the work is
//     not output-proportional.
func (s *Server) executeStream(ctx context.Context, ds *dataset, p queryParams, limit int, g *graph.Graph, epoch uint64, emit func(communityJSON) bool) (streamResult, error) {
	var sr streamResult
	stopped := false
	yield := func(c communityJSON) bool {
		if !emit(c) {
			stopped = true
			return false
		}
		sr.Sent++
		if sr.Sent >= limit {
			stopped = true
			return false
		}
		return true
	}

	if p.Mode == cluster.ModeTruss {
		if err := validateTruss(ds, g, p.Gamma); err != nil {
			return sr, err
		}
		prefix, err := truss.StreamCtx(ctx, ds.truss(g, epoch), p.Gamma, func(c *truss.Community) bool {
			return yield(cluster.Render(g, c.Influence(), c.Keynode(), c.Vertices()))
		})
		if err != nil {
			return sr, queryError(err)
		}
		s.metrics.localServed.Add(1)
		ds.localServed.Add(1)
		sr.Accessed = prefix
		sr.Exhausted = !stopped
		return sr, nil
	}

	if ix := ds.indexAt(epoch); ix != nil && p.Mode == cluster.ModeCore {
		comms, err := ix.TopK(limit, p.Gamma)
		if err != nil {
			return sr, queryError(err)
		}
		s.metrics.indexServed.Add(1)
		ds.indexServed.Add(1)
		for _, c := range comms {
			if !yield(cluster.Render(ds.st.Graph(), c.Influence(), c.Keynode(), c.Vertices())) {
				break
			}
		}
		sr.Exhausted = len(comms) < limit
		return sr, nil
	}

	if g == nil {
		// Semi-external fallback: no whole graph to stream over, so answer
		// with one bounded top-k. limit == the coordinator's global k, and a
		// global top-k never needs more than k communities from one shard.
		er, err := s.executeTopK(ctx, ds, queryParams{K: limit, Gamma: p.Gamma, Mode: p.Mode}, epoch)
		if err != nil {
			return sr, err
		}
		for _, c := range er.Communities {
			if !yield(c) {
				break
			}
		}
		sr.Accessed = er.Accessed
		sr.Exhausted = len(er.Communities) < limit
		return sr, nil
	}

	opts := core.Options{NonContainment: p.Mode == cluster.ModeNonContainment}
	var st core.Stats
	var err error
	if mem, ok := ds.st.(*store.Mem); ok && mem.Graph() == g {
		// The in-memory backend streams on pooled engines.
		st, err = mem.Stream(ctx, p.Gamma, opts, func(c *core.Community) bool {
			return yield(cluster.Render(g, c.Influence(), c.Keynode(), c.Vertices()))
		})
	} else {
		// Mutable backends: stream over the pinned snapshot, which stays
		// valid (and immutable) however many update batches land meanwhile.
		st, err = core.StreamCtx(ctx, g, p.Gamma, opts, func(c *core.Community) bool {
			return yield(cluster.Render(g, c.Influence(), c.Keynode(), c.Vertices()))
		})
	}
	if err != nil {
		return sr, queryError(err)
	}
	s.metrics.localServed.Add(1)
	ds.localServed.Add(1)
	sr.Accessed = st.FinalPrefix
	sr.Exhausted = !stopped
	return sr, nil
}
