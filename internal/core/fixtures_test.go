package core

import (
	"math"
	"sort"
	"testing"

	"influcomm/internal/graph"
)

// figure1 reconstructs the example graph of Figure 1 of the paper:
// vertices v0..v9 with weights 10..19 and, for γ = 3, exactly two
// influential γ-communities — {v0,v1,v5,v6} with influence 10 and
// {v3,v4,v7,v8,v9} with influence 13 — where {v3,v4,v7,v8} is cohesive and
// connected with the same influence but not maximal.
func figure1(t testing.TB) *graph.Graph {
	t.Helper()
	weights := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	edges := [][2]int32{
		// K4 on {v0, v1, v5, v6}.
		{0, 1}, {0, 5}, {0, 6}, {1, 5}, {1, 6}, {5, 6},
		// K4 on {v3, v4, v7, v8}.
		{3, 4}, {3, 7}, {3, 8}, {4, 7}, {4, 8}, {7, 8},
		// v9 attaches to v3, v7, v8.
		{3, 9}, {7, 9}, {8, 9},
		// v2 bridges the two communities with degree 2 (peels at γ = 3).
		{1, 2}, {2, 3},
	}
	g, err := graph.FromEdges(weights, edges)
	if err != nil {
		t.Fatalf("building figure 1 graph: %v", err)
	}
	return g
}

// nestedChain builds a graph whose influential 3-communities form one
// nested chain: a K4 on the four highest-weight vertices, then each further
// vertex attaches to three existing ones, so every prefix [0, i] with
// i >= 3 is itself a community with keynode i.
func nestedChain(t testing.TB, n int) *graph.Graph {
	t.Helper()
	if n < 4 {
		t.Fatalf("nestedChain needs n >= 4, got %d", n)
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(1000 - i) // vertex i has rank i
	}
	edges := [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for i := int32(4); int(i) < n; i++ {
		edges = append(edges, [2]int32{i, i - 1}, [2]int32{i, i - 2}, [2]int32{i, i - 3})
	}
	g, err := graph.FromEdges(weights, edges)
	if err != nil {
		t.Fatalf("building nested chain: %v", err)
	}
	return g
}

// twoCliques builds two disjoint K5s; the higher-weight clique holds
// vertices 0..4, the lower-weight one vertices 5..9.
func twoCliques(t testing.TB) *graph.Graph {
	t.Helper()
	weights := make([]float64, 10)
	for i := range weights {
		weights[i] = float64(100 - i)
	}
	var edges [][2]int32
	for _, base := range []int32{0, 5} {
		for i := int32(0); i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				edges = append(edges, [2]int32{base + i, base + j})
			}
		}
	}
	g, err := graph.FromEdges(weights, edges)
	if err != nil {
		t.Fatalf("building two cliques: %v", err)
	}
	return g
}

// origSet maps a community's vertex ranks back to original IDs for
// comparison against paper-stated vertex names.
func origSet(g *graph.Graph, ranks []int32) []int32 {
	out := make([]int32, 0, len(ranks))
	for _, r := range ranks {
		out = append(out, g.OrigID(r))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFigure1Communities(t *testing.T) {
	g := figure1(t)
	all := NaiveCommunities(g, 3)
	if len(all) != 2 {
		t.Fatalf("figure 1 with γ=3: got %d communities, want 2", len(all))
	}
	// Decreasing influence order: influence 13 first, then 10.
	if all[0].Influence != 13 || all[1].Influence != 10 {
		t.Fatalf("influences = %v, %v; want 13, 10", all[0].Influence, all[1].Influence)
	}
	if got, want := origSet(g, all[0].Vertices), []int32{3, 4, 7, 8, 9}; !equalInt32(got, want) {
		t.Errorf("top-1 community = %v, want %v", got, want)
	}
	if got, want := origSet(g, all[1].Vertices), []int32{0, 1, 5, 6}; !equalInt32(got, want) {
		t.Errorf("top-2 community = %v, want %v", got, want)
	}
}

func TestFigure1LocalSearch(t *testing.T) {
	g := figure1(t)
	res, err := TopK(g, 2, 3, Options{})
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(res.Communities) != 2 {
		t.Fatalf("got %d communities, want 2", len(res.Communities))
	}
	if got, want := origSet(g, res.Communities[0].Vertices()), []int32{3, 4, 7, 8, 9}; !equalInt32(got, want) {
		t.Errorf("top-1 = %v, want %v", got, want)
	}
	if got, want := origSet(g, res.Communities[1].Vertices()), []int32{0, 1, 5, 6}; !equalInt32(got, want) {
		t.Errorf("top-2 = %v, want %v", got, want)
	}
	if res.Communities[0].Influence() != 13 {
		t.Errorf("top-1 influence = %v, want 13", res.Communities[0].Influence())
	}
}

func TestFigure1CountIC(t *testing.T) {
	g := figure1(t)
	n := g.NumVertices()
	if got := CountIC(g, n, 3); got != 2 {
		t.Errorf("CountIC(whole graph, γ=3) = %d, want 2", got)
	}
	// γ = 4 admits no community: neither K4 has minimum degree 4 and the
	// five-vertex community has minimum degree 3.
	if got := CountIC(g, n, 4); got != 0 {
		t.Errorf("CountIC(whole graph, γ=4) = %d, want 0", got)
	}
	// γ = 1: every connected prefix component with an edge counts.
	if got := CountIC(g, n, 1); got == 0 {
		t.Errorf("CountIC(whole graph, γ=1) = 0, want > 0")
	}
}

func TestNestedChainStructure(t *testing.T) {
	const n = 12
	g := nestedChain(t, n)
	res, err := TopK(g, n, 3, Options{})
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	// Keynodes i = 3..n-1, communities are the prefixes [0, i].
	if len(res.Communities) != n-3 {
		t.Fatalf("got %d communities, want %d", len(res.Communities), n-3)
	}
	// Decreasing influence order means keynode ranks ascend: 3, 4, ..., n-1.
	for idx, c := range res.Communities {
		if want := int32(3 + idx); c.Keynode() != want {
			t.Errorf("community %d keynode = %d, want %d", idx, c.Keynode(), want)
		}
		if want := 4 + idx; c.Size() != want {
			t.Errorf("community %d size = %d, want %d", idx, c.Size(), want)
		}
		vs := c.Vertices()
		for i, v := range vs {
			if int(v) != i {
				t.Errorf("community %d vertices = %v, want prefix 0..%d", idx, vs, 3+idx)
				break
			}
		}
	}
	// The containment forest must be one chain: each community's sole child
	// is the next-higher-influence community.
	for idx := 1; idx < len(res.Communities); idx++ {
		outer := res.Communities[idx]
		if len(outer.Children()) != 1 || outer.Children()[0] != res.Communities[idx-1] {
			t.Errorf("community %d should have exactly the previous community as child", idx)
		}
		if len(outer.Group()) != 1 {
			t.Errorf("community %d group = %v, want singleton", idx, outer.Group())
		}
	}
}

func TestTwoCliquesDisjoint(t *testing.T) {
	g := twoCliques(t)
	res, err := TopK(g, 10, 4, Options{})
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(res.Communities) != 2 {
		t.Fatalf("got %d communities, want 2", len(res.Communities))
	}
	top := res.Communities[0]
	if got, want := origSet(g, top.Vertices()), []int32{0, 1, 2, 3, 4}; !equalInt32(got, want) {
		t.Errorf("top community = %v, want %v", got, want)
	}
	second := res.Communities[1]
	if got, want := origSet(g, second.Vertices()), []int32{5, 6, 7, 8, 9}; !equalInt32(got, want) {
		t.Errorf("second community = %v, want %v", got, want)
	}
	if len(top.Children()) != 0 || len(second.Children()) != 0 {
		t.Errorf("disjoint cliques must have no nested children")
	}
}

func TestTopKFewerThanK(t *testing.T) {
	g := figure1(t)
	res, err := TopK(g, 50, 3, Options{})
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(res.Communities) != 2 {
		t.Errorf("asking for 50 of 2 communities: got %d", len(res.Communities))
	}
}

func TestTopKNoCommunities(t *testing.T) {
	g := figure1(t)
	res, err := TopK(g, 3, 5, Options{})
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(res.Communities) != 0 {
		t.Errorf("γ=5 should yield no communities, got %d", len(res.Communities))
	}
}

func TestQueryValidation(t *testing.T) {
	g := figure1(t)
	if _, err := TopK(nil, 1, 1, Options{}); err == nil {
		t.Error("nil graph: want error")
	}
	if _, err := TopK(g, 0, 1, Options{}); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := TopK(g, 1, 0, Options{}); err == nil {
		t.Error("gamma=0: want error")
	}
	if _, err := TopK(g, 1, 3, Options{Delta: 0.5}); err == nil {
		t.Error("delta<=1: want error")
	}
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := TopK(g, 1, 3, Options{Delta: d}); err == nil {
			t.Errorf("delta=%v: want error", d)
		}
		if _, err := Stream(g, 3, Options{Delta: d}, func(*Community) bool { return true }); err == nil {
			t.Errorf("stream delta=%v: want error", d)
		}
	}
	if _, err := TopK(g, 1, 3, Options{ArithmeticGrowth: -1}); err == nil {
		t.Error("negative arithmetic growth: want error")
	}
}
