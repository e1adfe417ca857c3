package server

import (
	"context"
	"fmt"
	"net/http"
	"net/url"

	"influcomm/internal/cluster"
	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/index"
	"influcomm/internal/query"
)

// This file is the engine boundary of the serving layer: one place where a
// query is executed against a pinned dataset snapshot. The single-process
// HTTP handler (/v1/topk), every node of a DSL batch (/v1/query) and the
// shard stream the cluster coordinator consumes (/v1/shard/stream) enter
// through it, so a query answers identically whether it arrives from a
// client or from a coordinator scatter — the property the distributed
// tier's byte-identical guarantee is built on.

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

// execResult is what one executed node produced, before any transport
// framing (HTTP envelope, stream lines) is applied.
type execResult struct {
	// Answer is the node's communities as the search returned them, with
	// the snapshot's graph to render them, when execute collected them;
	// nil when the communities went to an emit function instead. It is
	// rendered only while a response is written, so the memo holds forests.
	Answer *cluster.Answer
	// Sent counts the communities an emit function accepted.
	Sent int
	// Accessed is the final LocalSearch prefix; 0 on the index path.
	Accessed int
	// Path is the access path that answered: query.PathIndex, PathLocal
	// or PathTruss.
	Path string
}

// pinned is one request's read of its dataset: the snapshot every node of
// the request runs on, its epoch, and the prebuilt index valid at that
// epoch (nil when none is). The epoch keys the Sharer, the truss index
// and the shard stream header, so each of them describes exactly the
// snapshot that answered.
type pinned struct {
	ds     *dataset
	search core.Searcher
	epoch  uint64
	ix     *index.Index
}

// pin reads the dataset's snapshot and its index once. The index answers
// only while its attach epoch equals the pinned one, so a query racing an
// update can never serve a pre-update index answer as current.
func (d *dataset) pin() pinned {
	search, epoch := d.st.Pin()
	return pinned{ds: d, search: search, epoch: epoch, ix: d.indexAt(epoch)}
}

// execute runs plan node n on the pinned snapshot through query.Exec — the
// one path switch every route shares. With emit nil the communities are
// collected, unrendered, into the result's Answer, which renders against
// the snapshot's graph (weight ranks when the backend has none);
// otherwise each goes to emit, and the run stops once emit refuses one or
// n.K were sent. Only the shard stream sets progressive. Serving-path
// metrics are counted here.
func (s *Server) execute(ctx context.Context, pin *pinned, n query.Node, progressive bool, emit func(*core.Community) bool) (*execResult, error) {
	g := pin.search.Graph()
	t := query.Target{Search: pin.search, Index: pin.ix}
	if n.Mode == query.SemTruss {
		if err := validateTruss(pin.ds, g, n.Gamma); err != nil {
			return nil, err
		}
		t.Truss = pin.ds.truss(g, pin.epoch)
	}
	out := &execResult{}
	if emit == nil {
		out.Answer = cluster.NewAnswer(g)
	}
	limit := n.K
	path, accessed, err := query.Exec(ctx, t, n, progressive, func(c *core.Community) bool {
		if emit == nil {
			out.Answer.Add(c)
			return true
		}
		if !emit(c) {
			return false
		}
		out.Sent++
		return out.Sent < limit
	})
	if err != nil {
		return nil, queryError(err)
	}
	if path == query.PathIndex {
		s.metrics.indexServed.Add(1)
		pin.ds.indexServed.Add(1)
	} else {
		s.metrics.localServed.Add(1)
		pin.ds.localServed.Add(1)
	}
	out.Path, out.Accessed = path, accessed
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
