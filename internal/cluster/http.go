package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"
)

// NewHandler wraps a Coordinator in the iccoord HTTP front: the same /v1/topk
// query surface as a single icserver node, answered by scatter-gather.
//
//	GET /healthz                          liveness + shard count
//	GET /v1/cluster                       the configured shard topology
//	GET /v1/stats                         coordinator serving counters
//	GET /v1/topk?k=10&gamma=5             merged global top-k
//	    [&dataset=D][&mode=core|noncontainment|truss]
//	    [&truss=1][&noncontainment=1]     single-node flag spelling, same meaning
//	POST /v1/query                        DSL batch, fragments deduplicated
//	    {"query": "...", "dataset": "D"}  then scattered down the shard streams
//
// maxK bounds k exactly like icserver's -maxk.
func NewHandler(c *Coordinator, maxK int) http.Handler {
	h := &handler{c: c, maxK: maxK}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /v1/cluster", h.cluster)
	mux.HandleFunc("GET /v1/stats", h.stats)
	mux.HandleFunc("GET /v1/topk", h.topK)
	mux.HandleFunc("POST /v1/query", h.query)
	return mux
}

type handler struct {
	c    *Coordinator
	maxK int
}

// topKResponse is the coordinator's /v1/topk envelope. Communities carries
// the same Community JSON as a shard stream and a single-node response;
// the cluster-only fields are the epoch vector and the degradation markers.
type topKResponse struct {
	K            int               `json:"k"`
	Gamma        int               `json:"gamma"`
	Mode         string            `json:"mode"`
	Communities  []Community       `json:"communities"`
	Epochs       map[string]uint64 `json:"epochs"`
	Partial      bool              `json:"partial"`
	FailedShards []string          `json:"failed_shards,omitempty"`
	ElapsedMS    float64           `json:"elapsed_ms"`
}

// queryRequest is the body of a coordinator POST /v1/query.
type queryRequest struct {
	// Query is the DSL batch source text.
	Query string `json:"query"`
	// Dataset optionally names the dataset on every shard (a shard's
	// configured dataset override still wins).
	Dataset string `json:"dataset,omitempty"`
}

// queryResponse is the coordinator's /v1/query envelope. Each node carries
// the same Community JSON as every other surface plus its fragment's
// cluster markers (epoch vector, partial, failed shards).
type queryResponse struct {
	Query     string                 `json:"query"`
	Dataset   string                 `json:"dataset,omitempty"`
	Results   []QueryStatementResult `json:"results"`
	PlanNodes int                    `json:"plan_nodes"`
	CSEHits   int                    `json:"cse_hits"`
	ElapsedMS float64                `json:"elapsed_ms"`
}

// maxQueryBody bounds a /v1/query request body.
const maxQueryBody = 1 << 20

// writeJSON encodes like icserver's writeJSON, HTML escaping included, so a
// labelled answer is byte-identical from either front.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorStatus maps a coordinator error to its HTTP status: the client's
// fault is a 400 (a 404 for a dataset no replica serves), a missed deadline
// a 504, and any shard failure a 502.
func errorStatus(err error) int {
	var re *RequestError
	switch {
	case errors.As(err, &re) && re.NotFound:
		return http.StatusNotFound
	case re != nil:
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusBadGateway
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards": len(h.c.Shards())})
}

func (h *handler) cluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"shards": h.c.Shards(),
		"status": h.c.Status(),
	})
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.c.Stats())
}

func (h *handler) topK(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	p, err := ParseTopKParams(q, h.maxK)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}

	start := time.Now()
	res, err := h.c.TopK(r.Context(), q.Get("dataset"), p.K, p.Gamma, p.Mode)
	if err != nil {
		writeJSON(w, errorStatus(err), map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, &topKResponse{
		K:            p.K,
		Gamma:        int(p.Gamma),
		Mode:         p.Mode,
		Communities:  res.Communities,
		Epochs:       res.Epochs,
		Partial:      res.Partial,
		FailedShards: res.FailedShards,
		ElapsedMS:    float64(time.Since(start).Microseconds()) / 1000.0,
	})
}

func (h *handler) query(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	start := time.Now()
	res, err := h.c.Query(r.Context(), req.Dataset, req.Query, h.maxK)
	if err != nil {
		writeJSON(w, errorStatus(err), map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, &queryResponse{
		Query:     res.Canonical,
		Dataset:   req.Dataset,
		Results:   res.Results,
		PlanNodes: res.PlanNodes,
		CSEHits:   res.CSEHits,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000.0,
	})
}
