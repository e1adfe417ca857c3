// Package baseline implements the algorithms the paper evaluates
// LocalSearch against: the global search algorithms OnlineAll [26] and
// Forward [8], the quadratic local search Backward [8], and the
// LocalSearch-OA ablation that counts communities by enumeration instead of
// CountIC (Eval-III). All of them reuse the step-wise γ-core engine of the
// core package, so differences in measured cost reflect algorithmic
// structure rather than implementation detail.
package baseline

import (
	"context"
	"sort"

	"influcomm/internal/core"
	"influcomm/internal/graph"
)

// Community is a fully materialized community as the global-search
// algorithms produce it (they have no containment forest: each community is
// an explicit vertex set, which is why OnlineAll runs out of memory on the
// paper's largest graphs).
type Community struct {
	Keynode   int32
	Influence float64
	Vertices  []int32 // ascending rank order
}

func newCommunity(g *graph.Graph, u int32, comp []int32) Community {
	sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
	return Community{Keynode: u, Influence: g.Weight(u), Vertices: comp}
}

// Stats describes the work a baseline performed.
type Stats struct {
	// Communities is the total number of communities the algorithm
	// discovered (for global algorithms: all of them, not just k).
	Communities int
	// ComponentWork is the summed size of every connected-component
	// traversal, the dominant cost of OnlineAll (§1).
	ComponentWork int64
}

// OnlineAll implements the global search algorithm of Li et al. [26]:
// reduce the graph to its γ-core, then repeatedly (1) locate the
// minimum-weight vertex, (2) traverse its connected component — the next
// influential γ-community, (3) remove the vertex and restore the γ-core.
// Only the last k communities are retained (a ring buffer), and they are
// returned in decreasing influence order.
func OnlineAll(g *graph.Graph, k int, gamma int32) ([]Community, Stats, error) {
	if err := Validate(g, k, gamma); err != nil {
		return nil, Stats{}, err
	}
	eng := core.NewEngine(g, gamma)
	n := g.NumVertices()
	eng.Peel(n)
	ring := make([]Community, 0, k)
	next := 0
	var st Stats
	var seq []int32
	for {
		u := eng.NextMin()
		if u < 0 {
			break
		}
		comp := eng.Component(u)
		st.ComponentWork += int64(len(comp))
		st.Communities++
		c := newCommunity(g, u, comp)
		if len(ring) < k {
			ring = append(ring, c)
		} else {
			ring[next] = c
			next = (next + 1) % k
		}
		seq = eng.Remove(u, seq[:0])
	}
	// Ring contents oldest..newest = increasing influence; emit reversed.
	out := make([]Community, 0, len(ring))
	for i := 0; i < len(ring); i++ {
		out = append(out, ring[(next+len(ring)-1-i)%len(ring)])
	}
	return out, st, nil
}

// Forward implements the state-of-the-art global search of Chen et al. [8]:
// a first peeling pass over the whole graph learns the keynode sequence;
// a second pass repeats the peel but performs the expensive component
// traversal only for the last k keynodes. Results are in decreasing
// influence order.
func Forward(g *graph.Graph, k int, gamma int32) ([]Community, Stats, error) {
	if err := Validate(g, k, gamma); err != nil {
		return nil, Stats{}, err
	}
	n := g.NumVertices()
	eng := core.NewEngine(g, gamma)
	total := eng.Run(n, 0, 0).Count()
	var st Stats
	st.Communities = total

	eng.Peel(n)
	skip := total - k
	out := make([]Community, 0, min(k, total))
	var seq []int32
	for i := 0; ; i++ {
		u := eng.NextMin()
		if u < 0 {
			break
		}
		if i >= skip {
			comp := eng.Component(u)
			st.ComponentWork += int64(len(comp))
			out = append(out, newCommunity(g, u, comp))
		}
		seq = eng.Remove(u, seq[:0])
	}
	// Collected in increasing influence order; reverse.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out, st, nil
}

// ForwardNonContainment is the Forward variant of [8] for non-containment
// queries (Eval-VII): a full-graph CountIC pass with non-containment
// classification, returning the last k non-containment groups.
func ForwardNonContainment(g *graph.Graph, k int, gamma int32) ([]Community, Stats, error) {
	if err := Validate(g, k, gamma); err != nil {
		return nil, Stats{}, err
	}
	eng := core.NewEngine(g, gamma)
	cvs := eng.Run(g.NumVertices(), 0, core.WantSeq|core.WantNC)
	var st Stats
	st.Communities = cvs.Count()
	var out []Community
	for j := len(cvs.Keys) - 1; j >= 0 && len(out) < k; j-- {
		if !cvs.NC[j] {
			continue
		}
		seg := append([]int32(nil), cvs.Group(j)...)
		out = append(out, newCommunity(g, cvs.Keys[j], seg))
	}
	return out, st, nil
}

// Backward reproduces the local search of Chen et al. [8]: it grows the
// high-weight prefix one vertex at a time and re-derives the community
// count after every insertion, stopping at the very first prefix that holds
// k communities. It therefore accesses the minimal subgraph G≥τ* but pays
// O(size(G≥τ*)²) time — the quadratic behavior the paper criticizes and
// Figure 11 measures.
func Backward(g *graph.Graph, k int, gamma int32) ([]Community, Stats, error) {
	if err := Validate(g, k, gamma); err != nil {
		return nil, Stats{}, err
	}
	n := g.NumVertices()
	eng := core.NewEngine(g, gamma)
	p := k + int(gamma)
	if p > n {
		p = n
	}
	var st Stats
	var cvs *core.CVS
	for {
		cvs = eng.Run(p, 0, core.WantSeq)
		if cvs.Count() >= k || p == n {
			break
		}
		p++
	}
	st.Communities = cvs.Count()
	comms := core.EnumIC(g, cvs, k)
	out := make([]Community, 0, len(comms))
	for _, c := range comms {
		out = append(out, Community{
			Keynode:   c.Keynode(),
			Influence: c.Influence(),
			Vertices:  c.Vertices(),
		})
	}
	return out, st, nil
}

// CountViaOnlineAll counts the influential γ-communities of the prefix
// [0, p) the way OnlineAll would: enumerating every community with a
// component traversal. It is the counting oracle of the LocalSearch-OA
// ablation (Eval-III) — correct, but Θ(count · size) instead of CountIC's
// O(size).
func CountViaOnlineAll(g *graph.Graph, p int, gamma int32) (int, int64) {
	eng := core.NewEngine(g, gamma)
	eng.Peel(p)
	count := 0
	var work int64
	var seq []int32
	for {
		u := eng.NextMin()
		if u < 0 {
			break
		}
		work += int64(len(eng.Component(u)))
		count++
		seq = eng.Remove(u, seq[:0])
	}
	return count, work
}

// LocalSearchOA is Algorithm 1 with CountIC replaced by the OnlineAll
// counting oracle, exactly the LocalSearch-OA configuration of Eval-III:
// the rounds of core.Search, each counting by enumeration.
func LocalSearchOA(g *graph.Graph, k int, gamma int32) ([]Community, Stats, error) {
	if err := Validate(g, k, gamma); err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	search, err := core.Search(context.Background(), g, k, gamma, core.Options{}, func(p, _ int) (bool, error) {
		cnt, work := CountViaOnlineAll(g, p, gamma)
		st.ComponentWork += work
		st.Communities = cnt
		return cnt >= k, nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	cvs := core.NewEngine(g, gamma).Run(search.FinalPrefix, 0, core.WantSeq)
	comms := core.EnumIC(g, cvs, k)
	out := make([]Community, 0, len(comms))
	for _, c := range comms {
		out = append(out, Community{
			Keynode:   c.Keynode(),
			Influence: c.Influence(),
			Vertices:  c.Vertices(),
		})
	}
	return out, st, nil
}

// Validate checks the common query preconditions shared by all baselines.
func Validate(g *graph.Graph, k int, gamma int32) error {
	return validate(g, k, gamma)
}

func validate(g *graph.Graph, k int, gamma int32) error {
	switch {
	case g == nil:
		return errNil
	case g.NumVertices() == 0:
		return errEmpty
	case k < 1:
		return errBadK
	case gamma < 1:
		return errBadGamma
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
