package query

import (
	"context"
	"fmt"

	"influcomm/internal/core"
	"influcomm/internal/index"
	"influcomm/internal/truss"
)

// Access paths a plan node can be assigned. They are the planner's greedy,
// statistics-free choice; executors treat them as advisory and stay free to
// fall back (e.g. index → LocalSearch while a rebuild is in flight). On a
// single node every node runs through Exec, which reports the path it
// actually took.
const (
	// PathIndex serves the node from the dataset's prebuilt influence index.
	PathIndex = "index"
	// PathLocal runs the paper's online LocalSearch.
	PathLocal = "localsearch"
	// PathTruss serves the node from the γ-truss index.
	PathTruss = "truss"
	// PathScatter scatter-gathers the node across cluster shards.
	PathScatter = "scatter"
)

// Target is one pinned snapshot of a dataset as Exec sees it.
type Target struct {
	// Search runs LocalSearch and LocalSearch-P over the snapshot.
	Search core.Searcher
	// Index is a prebuilt index valid for the snapshot, or nil.
	Index *index.Index
	// Truss is the truss index of the snapshot's graph; only truss nodes
	// read it, and they fail without it.
	Truss *truss.Index
}

// Exec runs plan node n on t, yielding its communities, nodes of one
// containment forest whatever the semantics, in decreasing influence order
// until yield returns false. It is the one place a node's access path is
// decided: truss semantics run the truss search, core
// semantics with an index read the index, and everything else runs
// LocalSearch over t.Search. With progressive set the online paths stream
// (LocalSearch-P, Algorithm 4, or the truss stream) and stop as soon as
// yield does; otherwise they run the top-k search for n.K, which keeps
// pooled buffers and reports the prefix a k-known search needs. Exec
// returns the path taken and the final prefix the search accessed (0 on
// the index path).
func Exec(ctx context.Context, t Target, n Node, progressive bool, yield func(*core.Community) bool) (path string, accessed int, err error) {
	opts := core.Options{NonContainment: n.Mode == SemNonContainment}
	switch {
	case n.Mode == SemTruss && progressive:
		accessed, err = truss.StreamCtx(ctx, t.Truss, n.Gamma, yield)
		return PathTruss, accessed, err
	case n.Mode == SemTruss:
		res, err := truss.LocalSearchCtx(ctx, t.Truss, n.K, n.Gamma)
		if err != nil {
			return PathTruss, 0, err
		}
		yieldAll(res.Communities, yield)
		return PathTruss, res.Stats.FinalPrefix, nil
	case n.Mode == SemCore && t.Index != nil:
		comms, err := t.Index.TopK(n.K, n.Gamma)
		if err != nil {
			return PathIndex, 0, err
		}
		yieldAll(comms, yield)
		return PathIndex, 0, nil
	case progressive:
		st, err := t.Search.Stream(ctx, n.Gamma, opts, yield)
		return PathLocal, st.FinalPrefix, err
	}
	res, err := t.Search.TopK(ctx, n.K, n.Gamma, opts)
	if err != nil {
		return PathLocal, 0, err
	}
	yieldAll(res.Communities, yield)
	return PathLocal, res.Stats.FinalPrefix, nil
}

// yieldAll yields comms in order until yield refuses one.
func yieldAll(comms []*core.Community, yield func(*core.Community) bool) {
	for _, c := range comms {
		if !yield(c) {
			return
		}
	}
}

// MaxPlanNodes caps the nodes one batch may expand to — a wide γ range
// times a semantics combinator multiplies, and the cap keeps one request
// from monopolizing a server.
const MaxPlanNodes = 64

// Node is one fixed-shape unit of work: a single (k, γ, semantics) search,
// optionally seed-scoped. Nodes are what executors run, cache, and share:
// two nodes with equal Key over the same snapshot epoch are the same
// computation regardless of which statements or queries produced them.
type Node struct {
	// Stmt is the index of the originating statement in the query.
	Stmt int
	// K is the result bound.
	K int
	// Gamma is the minimum-degree (or truss) threshold.
	Gamma int32
	// Mode is the node's semantics: SemCore, SemNonContainment, or SemTruss.
	Mode string
	// Seeds is the near scope (nil for fixed-shape nodes). Aliases the
	// source's canonicalized slice; treat as read-only.
	Seeds []int32
	// Path is the access path the planner picked.
	Path string
	// Key is the canonical identity of the computation — the canonical
	// print of a single-(γ, semantics) source. Filters and statement
	// position do not contribute, so overlapping queries that differ only
	// in their pipelines share nodes.
	Key string
}

// FixedShape reports whether the node is exactly one of the serving tier's
// classic (k, γ, semantics) queries — the shapes /v1/topk answers and the
// byte-identity property tests compare against.
func (n *Node) FixedShape() bool { return n.Seeds == nil }

// PickPath decides a node's access path. Executors pass one reflecting
// where nodes run (the coordinator: scatter); nil means truss for truss
// semantics and LocalSearch otherwise.
type PickPath func(mode string, near bool) string

// PlanQuery expands a parsed batch into its plan nodes: one node per
// (statement, γ, semantics) combination, in statement order, with access
// paths chosen by pick. The expansion is bounded by MaxPlanNodes.
func PlanQuery(q *Query, pick PickPath) ([]Node, error) {
	if pick == nil {
		pick = func(mode string, near bool) string {
			if mode == SemTruss {
				return PathTruss
			}
			return PathLocal
		}
	}
	var nodes []Node
	total := 0
	for si, st := range q.Statements {
		src := &st.Source
		span := int(src.GammaHi-src.GammaLo) + 1
		total += span * len(src.Semantics)
		if total > MaxPlanNodes {
			return nil, fmt.Errorf("query: plan expands to more than %d nodes (narrow the gamma range or split the batch)", MaxPlanNodes)
		}
		for g := src.GammaLo; g <= src.GammaHi; g++ {
			for _, sem := range src.Semantics {
				n := Node{
					Stmt:  si,
					K:     src.K,
					Gamma: g,
					Mode:  sem,
					Seeds: src.Seeds,
					Path:  pick(sem, src.Near()),
				}
				n.Key = nodeKey(src, n.Gamma, n.Mode)
				nodes = append(nodes, n)
			}
		}
	}
	return nodes, nil
}

// FixedNode returns the plan node of one classic (k, γ, semantics) query,
// the shape /v1/topk answers, keyed exactly like a DSL node of that shape:
// a /v1/topk request and a batch node share one execution.
func FixedNode(k int, gamma int32, mode string) Node {
	return Node{K: k, Gamma: gamma, Mode: mode, Key: nodeKey(&Source{K: k}, gamma, mode)}
}

// nodeKey renders the canonical single-(γ, semantics) source print that
// identifies a node's computation.
func nodeKey(src *Source, gamma int32, mode string) string {
	single := Source{
		Seeds:     src.Seeds,
		K:         src.K,
		GammaLo:   gamma,
		GammaHi:   gamma,
		Semantics: []string{mode},
	}
	return single.String()
}
