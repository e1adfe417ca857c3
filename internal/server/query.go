package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"influcomm/internal/cluster"
	"influcomm/internal/core"
	"influcomm/internal/query"
	"influcomm/internal/queryweight"
)

// This file is the single-node side of the query DSL (internal/query):
// POST /v1/query parses a batch, plans it into fixed-shape nodes, and
// executes the nodes through executeNode, the path /v1/topk takes too.
// Repeated nodes of one batch are answered once; identical canonical nodes
// at the same snapshot epoch are computed once across all concurrent
// batches and /v1/topk requests via the dataset's Sharer; and seed-scoped
// (near) statements additionally share the reweighted graph across their γ
// expansion.

// maxQueryBody bounds a /v1/query request body.
const maxQueryBody = 1 << 20

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	// Query is the DSL batch source text (see docs/ARCHITECTURE.md for
	// the grammar).
	Query string `json:"query"`
	// Dataset routes the batch; empty means the default dataset.
	Dataset string `json:"dataset,omitempty"`
}

// queryResponse is the /v1/query payload, as appendQueryResponse writes
// it.
type queryResponse struct {
	// Query echoes the batch in canonical form.
	Query string `json:"query"`
	// Dataset is the dataset the batch ran against.
	Dataset string `json:"dataset"`
	// Results holds one entry per statement, in input order.
	Results []statementResult `json:"results"`
	// PlanNodes is how many plan nodes the batch expanded to.
	PlanNodes int `json:"plan_nodes"`
	// CSEHits is how many of those nodes were served by work shared with
	// another node (of this batch or a concurrent one) instead of a fresh
	// decomposition.
	CSEHits int `json:"cse_hits"`
	// SnapshotEpoch is the snapshot epoch the batch pinned (mutable
	// datasets; 0 otherwise).
	SnapshotEpoch uint64  `json:"snapshot_epoch,omitempty"`
	ElapsedMS     float64 `json:"elapsed_ms"`
}

// statementResult is one statement's executed plan nodes, in plan order,
// under the statement's canonical form.
type statementResult struct {
	Statement string       `json:"statement"`
	Nodes     []nodeResult `json:"nodes"`
}

// nodeResult is one executed plan node: its fixed shape, the access path
// that answered it, and the communities after the statement's filters.
type nodeResult struct {
	K     int    `json:"k"`
	Gamma int    `json:"gamma"`
	Mode  string `json:"mode"`
	Path  string `json:"path"`
	// Shared marks nodes served by shared work (a memo hit or a join on an
	// in-flight identical node) rather than a fresh execution.
	Shared bool `json:"shared,omitempty"`
	// Communities is the node's answer after the statement's filters,
	// rendered while the response is written; the server never fills the
	// field.
	Communities []communityJSON `json:"communities"`
	// AccessedVertices reports the LocalSearch prefix the node's execution
	// touched; 0 on the index path.
	AccessedVertices int `json:"accessed_vertices,omitempty"`

	// answer, filtered by filters, is what the writer renders as
	// Communities.
	answer  *cluster.Answer
	filters []query.Filter
}

func (s *Server) handleQuery(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	// DSL batches are counted separately (dsl_queries, by admit) so the
	// classic per-query latency average stays comparable.
	start := time.Now()
	body := getBody()
	defer putBody(body)
	if err := s.runQueryBatch(ctx, w, r, start, body); err != nil {
		writeJSON(w, s.classify(err), map[string]string{"error": err.Error()})
		return
	}
	writeBody(w, http.StatusOK, *body)
}

// runQueryBatch executes one batch and renders its response into body;
// elapsed_ms counts from start.
func (s *Server) runQueryBatch(ctx context.Context, w http.ResponseWriter, r *http.Request, start time.Time, body *[]byte) error {
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		return &httpError{http.StatusBadRequest, "bad request body: " + err.Error()}
	}
	q, err := query.Parse(req.Query)
	if err != nil {
		return &httpError{http.StatusBadRequest, err.Error()}
	}

	// One pin serves the whole batch: every node runs on the pinned
	// snapshot and shares work under its epoch, exactly like a /v1/topk
	// request, so the reported snapshot_epoch is the one that answered.
	pin, err := s.acquire(req.Dataset)
	if err != nil {
		return err
	}
	defer pin.ds.release()
	nodes, err := query.PlanQuery(q, nil)
	if err != nil {
		return &httpError{http.StatusBadRequest, err.Error()}
	}
	for _, n := range nodes {
		if n.K > s.maxK {
			return &httpError{http.StatusBadRequest, "k must be in [1, " + strconv.Itoa(s.maxK) + "]"}
		}
	}
	s.metrics.planNodes.Add(int64(len(nodes)))

	resp := &queryResponse{
		Query:         q.String(),
		Dataset:       pin.ds.name,
		PlanNodes:     len(nodes),
		SnapshotEpoch: pin.epoch,
	}
	for _, st := range q.Statements {
		resp.Results = append(resp.Results, statementResult{Statement: st.String()})
	}
	// A node repeated within the batch is answered from the batch's own
	// results, and a seed set is reweighted once per batch, whatever the
	// memo holds (it memoizes nothing for a batch pinned before an update).
	done := make(map[string]*execResult, len(nodes))
	reweighted := make(map[string]*core.Pool)
	for _, n := range nodes {
		er, shared := done[n.Key], true
		if er == nil {
			var err error
			if er, shared, err = s.executeNode(ctx, &pin, n, reweighted); err != nil {
				return err
			}
			done[n.Key] = er
		}
		if shared {
			s.metrics.cseHits.Add(1)
			resp.CSEHits++
		}
		resp.Results[n.Stmt].Nodes = append(resp.Results[n.Stmt].Nodes, nodeResult{
			K:                n.K,
			Gamma:            int(n.Gamma),
			Mode:             n.Mode,
			Path:             er.Path,
			Shared:           shared,
			AccessedVertices: er.Accessed,
			answer:           er.Answer,
			filters:          q.Statements[n.Stmt].Filters,
		})
	}
	// The statement's filters run on each community's size and influence
	// before anything renders; only what survives is written.
	*body = appendQueryResponse(*body, resp, func(b []byte, n *nodeResult) []byte {
		return n.answer.AppendJSON(b, n.filters)
	}, func() float64 {
		return float64(time.Since(start)) / float64(time.Millisecond)
	})
	return nil
}

// executeNode runs one plan node on the pinned snapshot with cross-query
// sharing: the node's canonical key plus the snapshot epoch identify the
// computation, so any concurrent or recent identical node — a /v1/topk
// request, another batch, another client — yields one execution. Every
// node runs through execute, which is what makes a DSL node's communities
// byte-identical to its /v1/topk equivalent. reweighted holds the caller's
// reweighted graphs by seed set (nil for a fixed-shape node).
func (s *Server) executeNode(ctx context.Context, pin *pinned, n query.Node, reweighted map[string]*core.Pool) (*execResult, bool, error) {
	ds, on := pin.ds, pin
	if !n.FixedShape() {
		// near: reweight by seed distance, then search the reweighted
		// graph. The reweighting is itself a shareable prefix — every γ
		// and semantics expansion of one seed set, across all concurrent
		// batches, uses one BFS + rebuild and one engine pool over it.
		g := pin.search.Graph()
		if g == nil {
			return nil, false, &httpError{http.StatusBadRequest,
				"near queries need whole-graph access; dataset " + strconv.Quote(ds.name) + " uses the " + ds.st.Backend() + " backend"}
		}
		// Seeds are canonical (sorted, deduplicated), so they name the
		// reweighting exactly.
		key := "reweight|" + fmt.Sprint(n.Seeds)
		pool := reweighted[key]
		if pool == nil {
			rwVal, _, err := ds.sharer.Do(ctx, pin.epoch, key, func() (any, error) {
				rw, err := queryweight.Reweight(g, n.Seeds)
				if err != nil {
					return nil, &httpError{http.StatusBadRequest, err.Error()}
				}
				return core.NewPool(rw), nil
			})
			if err != nil {
				return nil, false, err
			}
			pool = rwVal.(*core.Pool)
			reweighted[key] = pool
		}
		on = &pinned{ds: ds, search: pool, epoch: pin.epoch}
	}
	val, shared, err := ds.sharer.Do(ctx, pin.epoch, n.Key, func() (any, error) {
		return s.execute(ctx, on, n, false, nil)
	})
	if err != nil {
		return nil, false, err
	}
	return val.(*execResult), shared, nil
}
