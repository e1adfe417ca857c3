package influcomm

import (
	"context"
	"fmt"

	"influcomm/internal/cluster"
	"influcomm/internal/core"
	"influcomm/internal/query"
	"influcomm/internal/queryweight"
	"influcomm/internal/truss"
)

// This file is the embedded face of the query DSL (internal/query): parse
// a batch of composable statements and run it against an in-memory graph,
// with the same within-batch work sharing the server applies across
// concurrent HTTP batches — identical (k, γ, semantics) plan nodes are
// computed once however many statements expand to them.

// ParsedQuery is a parsed DSL batch: one or more statements, each a
// source (topk or near) behind an optional filter pipeline. Its String
// method prints the canonical form, a fixpoint of ParseQuery. The grammar
// is documented in docs/ARCHITECTURE.md.
type ParsedQuery = query.Query

// ParseQuery parses a DSL batch such as
//
//	"topk(k=5, gamma=2..4) | influence(>=10) | limit(3); near(seeds=[7], k=3)"
//
// without executing it. Use RunQuery to parse and execute in one step, or
// POST the source text to a server's /v1/query.
func ParseQuery(src string) (*ParsedQuery, error) {
	return query.Parse(src)
}

// QueryNode is one executed plan node of a RunQuery statement: a single
// (k, γ, semantics) shape, with the communities that survived the
// statement's filter pipeline.
type QueryNode struct {
	// K and Gamma are the node's fixed shape.
	K     int
	Gamma int
	// Mode is the node's semantics: "core", "noncontainment", or "truss".
	Mode string
	// Shared marks nodes answered by a computation shared with an earlier
	// identical node of the batch instead of a fresh search.
	Shared bool
	// Communities is the node's answer, decreasing influence, after the
	// statement's filters; elements are byte-identical (in JSON form) to
	// the server's /v1/topk communities for the same shape.
	Communities []ClusterCommunity
}

// QueryStatement is one RunQuery statement's results: the statement in
// canonical form and its plan nodes in (γ, semantics) expansion order.
type QueryStatement struct {
	Statement string
	Nodes     []QueryNode
}

// RunQuery parses and executes a DSL batch against g. Every statement is
// planned into fixed-shape nodes (one per γ × semantics combination);
// identical nodes across the batch are computed once, and seed-scoped
// near statements additionally share one distance reweighting per seed
// set. Each node runs through the same executor as a server's /v1/query,
// so its communities are byte-identical (in JSON form) to the server's.
// Results come back per statement, in input order.
func RunQuery(ctx context.Context, g *Graph, src string) ([]QueryStatement, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	nodes, err := query.PlanQuery(q, nil)
	if err != nil {
		return nil, err
	}

	out := make([]QueryStatement, len(q.Statements))
	for i, st := range q.Statements {
		out[i].Statement = st.String()
	}
	pool := core.NewPool(g)
	var trussIx *truss.Index                     // built on the batch's first truss node
	searched := make(map[string]*cluster.Answer) // node key -> unrendered answer
	reweighted := make(map[string]*core.Pool)    // seed-set key -> pool over the reweighted graph
	for _, n := range nodes {
		ans, shared := searched[n.Key]
		if !shared {
			t := query.Target{Search: pool}
			switch {
			case !n.FixedShape():
				key := fmt.Sprint(n.Seeds) // canonical: sorted, deduplicated
				if reweighted[key] == nil {
					rw, err := queryweight.Reweight(g, n.Seeds)
					if err != nil {
						return nil, err
					}
					reweighted[key] = core.NewPool(rw)
				}
				t.Search = reweighted[key]
			case n.Mode == query.SemTruss:
				if trussIx == nil {
					trussIx = truss.NewIndex(g)
				}
				t.Truss = trussIx
			}
			ans = cluster.NewAnswer(t.Search.Graph())
			if _, _, err := query.Exec(ctx, t, n, false, func(c *core.Community) bool {
				ans.Add(c)
				return true
			}); err != nil {
				return nil, err
			}
			searched[n.Key] = ans
		}
		// The statement's filters run before rendering: only the
		// communities that survive them are rendered.
		out[n.Stmt].Nodes = append(out[n.Stmt].Nodes, QueryNode{
			K:           n.K,
			Gamma:       int(n.Gamma),
			Mode:        n.Mode,
			Shared:      shared,
			Communities: ans.Communities(q.Statements[n.Stmt].Filters),
		})
	}
	return out, nil
}
