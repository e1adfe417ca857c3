package cluster

import (
	"context"
	"fmt"

	"influcomm/internal/graph"
	"influcomm/internal/query"
)

// This file is the cluster side of the query DSL (internal/query): the
// reference community renderer, the filter pipeline over flat lists, and
// the coordinator batch executor that deduplicates plan fragments before
// scattering them down the existing NDJSON shard streams.

// Render converts one raw search result into the wire Community shape.
// It is the reference every serving surface matches byte for byte: the
// forest renderer (Answer, Renderer) writes what encoding/json writes for
// Render's output, without building it. With a whole graph, keynode and
// members are translated to original vertex IDs and labels are attached;
// without one (semi-external backends) they stay weight ranks.
func Render(g *graph.Graph, influence float64, keynode int32, members []int32) Community {
	c := Community{
		Influence: influence,
		Size:      len(members),
		Keynode:   keynode,
	}
	if g == nil {
		c.Members = append(c.Members, members...)
		return c
	}
	c.Keynode = g.OrigID(keynode)
	for _, v := range members {
		c.Members = append(c.Members, g.OrigID(v))
		if g.HasLabels() {
			c.Labels = append(c.Labels, g.Label(v))
		}
	}
	return c
}

// ApplyDSLFilters runs a statement's filter pipeline over a plan node's
// flat communities through selectPositions. The input is never mutated —
// shared plan-node results stay intact for the other statements reusing
// them — and a pipeline without predicates returns the input, or a prefix
// of it, preserving byte-identity with the unfiltered fixed-shape answer.
func ApplyDSLFilters(fs []query.Filter, comms []Community) []Community {
	if len(fs) == 0 {
		return comms
	}
	pos, predicated := selectPositions(fs, len(comms), func(f query.Filter, i int) bool {
		c := &comms[i]
		return f.Keep(c.Influence, c.Size, c.Labels)
	}, nil)
	if !predicated {
		if len(pos) < len(comms) {
			return comms[:len(pos):len(pos)]
		}
		return comms
	}
	out := make([]Community, len(pos))
	for j, i := range pos {
		out[j] = comms[i]
	}
	return out
}

// QueryNodeResult is one executed plan node in a coordinator DSL answer:
// the fixed shape it ran, the merged communities after the statement's
// filters, and the scatter-gather markers of the fragment that produced it.
type QueryNodeResult struct {
	// K, Gamma, and Mode are the node's fixed shape.
	K     int    `json:"k"`
	Gamma int    `json:"gamma"`
	Mode  string `json:"mode"`
	// Path is the access path the planner assigned ("scatter" on the
	// coordinator — every fragment rides the shard streams).
	Path string `json:"path"`
	// Shared marks nodes served by a fragment another node in the batch
	// already computed (a common-subexpression hit).
	Shared bool `json:"shared,omitempty"`
	// Communities is the merged global answer after filters.
	Communities []Community `json:"communities"`
	// Epochs is the fragment's per-shard snapshot epoch vector.
	Epochs map[string]uint64 `json:"epochs"`
	// Partial and FailedShards carry the fragment's degradation markers.
	Partial      bool     `json:"partial,omitempty"`
	FailedShards []string `json:"failed_shards,omitempty"`
}

// QueryStatementResult groups the executed nodes of one statement, in plan
// (γ, then semantics) order, under the statement's canonical form.
type QueryStatementResult struct {
	// Statement is the canonical print of the statement.
	Statement string `json:"statement"`
	// Nodes holds one result per plan node the statement expanded to.
	Nodes []QueryNodeResult `json:"nodes"`
}

// QueryResult is one executed DSL batch.
type QueryResult struct {
	// Canonical is the batch's canonical print.
	Canonical string
	// Results holds one entry per statement, in input order.
	Results []QueryStatementResult
	// PlanNodes is how many plan nodes the batch expanded to.
	PlanNodes int
	// CSEHits is how many of those were served from a fragment already
	// computed for an earlier node of the same batch.
	CSEHits int
}

// Query parses and executes one DSL batch by scatter-gather: the batch is
// planned into fixed-shape nodes, duplicate fragments (equal canonical
// keys) are computed once, and each distinct fragment runs as a normal
// scatter down the shard streams. Seed-scoped (near) statements are
// rejected — reweighting by seed distance is a whole-graph transform, so a
// per-shard local answer is not a fragment of the global one. maxK bounds
// every node's k; non-positive means unbounded.
func (c *Coordinator) Query(ctx context.Context, dataset, src string, maxK int) (*QueryResult, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	nodes, err := query.PlanQuery(q, func(mode string, near bool) string { return query.PathScatter })
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	for _, n := range nodes {
		if !n.FixedShape() {
			return nil, badRequest("cluster: near(...) is not shard-safe (seed reweighting is global); query a single node instead")
		}
		if maxK > 0 && n.K > maxK {
			return nil, badRequest("cluster: k must be in [1, %d]", maxK)
		}
	}
	c.planNodes.Add(int64(len(nodes)))

	// Fragment dedupe: one scatter per distinct canonical key. Nodes are
	// executed in plan order, so a batch of N overlapping queries performs
	// exactly as many scatters as it has distinct fragments.
	fragments := make(map[string]*Result, len(nodes))
	res := &QueryResult{Canonical: q.String(), PlanNodes: len(nodes)}
	for _, st := range q.Statements {
		res.Results = append(res.Results, QueryStatementResult{Statement: st.String()})
	}
	for _, n := range nodes {
		frag, ok := fragments[n.Key]
		if ok {
			c.cseHits.Add(1)
			res.CSEHits++
		} else {
			frag, err = c.TopK(ctx, dataset, n.K, n.Gamma, n.Mode)
			if err != nil {
				return nil, fmt.Errorf("plan node %s: %w", n.Key, err)
			}
			fragments[n.Key] = frag
		}
		res.Results[n.Stmt].Nodes = append(res.Results[n.Stmt].Nodes, QueryNodeResult{
			K:            n.K,
			Gamma:        int(n.Gamma),
			Mode:         n.Mode,
			Path:         n.Path,
			Shared:       ok,
			Communities:  ApplyDSLFilters(q.Statements[n.Stmt].Filters, frag.Communities),
			Epochs:       frag.Epochs,
			Partial:      frag.Partial,
			FailedShards: frag.FailedShards,
		})
	}
	return res, nil
}
