package graph

import (
	"math"
	"testing"
)

func small(t testing.TB) *Graph {
	t.Helper()
	// Weights chosen so rank order differs from ID order.
	weights := []float64{5, 9, 1, 7, 3}
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}, {1, 3}}
	g, err := FromEdges(weights, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestRankOrdering(t *testing.T) {
	g := small(t)
	if g.NumVertices() != 5 || g.NumEdges() != 6 {
		t.Fatalf("got (%d, %d), want (5, 6)", g.NumVertices(), g.NumEdges())
	}
	// Ranks: weights sorted desc: 9(v1), 7(v3), 5(v0), 3(v4), 1(v2).
	wantOrig := []int32{1, 3, 0, 4, 2}
	for r, want := range wantOrig {
		if g.OrigID(int32(r)) != want {
			t.Errorf("rank %d origID = %d, want %d", r, g.OrigID(int32(r)), want)
		}
	}
	for r := 1; r < g.NumVertices(); r++ {
		if g.Weight(int32(r)) >= g.Weight(int32(r-1)) {
			t.Errorf("weights not strictly decreasing at rank %d", r)
		}
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestUpNeighbors(t *testing.T) {
	g := small(t)
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.UpNeighbors(u) {
			if v >= u {
				t.Errorf("up-neighbor %d of %d is not higher-weight", v, u)
			}
		}
		if int(g.UpDegree(u)) != len(g.UpNeighbors(u)) {
			t.Errorf("UpDegree(%d) inconsistent", u)
		}
	}
}

func TestPrefixSizeArithmetic(t *testing.T) {
	g := small(t)
	if g.PrefixSize(0) != 0 {
		t.Errorf("PrefixSize(0) = %d", g.PrefixSize(0))
	}
	if g.PrefixSize(g.NumVertices()) != g.Size() {
		t.Errorf("PrefixSize(n) = %d, want %d", g.PrefixSize(g.NumVertices()), g.Size())
	}
	// Brute-force check each prefix.
	for p := 0; p <= g.NumVertices(); p++ {
		var edges int64
		for u := 0; u < p; u++ {
			for _, v := range g.Neighbors(int32(u)) {
				if int(v) < u {
					edges++
				}
			}
		}
		if got := g.PrefixSize(p); got != int64(p)+edges {
			t.Errorf("PrefixSize(%d) = %d, want %d", p, got, int64(p)+edges)
		}
	}
}

func TestPrefixForSize(t *testing.T) {
	g := small(t)
	for want := int64(0); want <= g.Size()+3; want++ {
		p := g.PrefixForSize(want)
		if want <= 0 && p != 0 {
			t.Errorf("PrefixForSize(%d) = %d, want 0", want, p)
			continue
		}
		if want > g.Size() {
			if p != g.NumVertices() {
				t.Errorf("PrefixForSize(%d) = %d, want n", want, p)
			}
			continue
		}
		if want > 0 {
			if g.PrefixSize(p) < want {
				t.Errorf("PrefixForSize(%d) = %d has size %d", want, p, g.PrefixSize(p))
			}
			if p > 0 && g.PrefixSize(p-1) >= want {
				t.Errorf("PrefixForSize(%d) = %d is not minimal", want, p)
			}
		}
	}
}

func TestDegreeWithin(t *testing.T) {
	g := small(t)
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		for p := 0; p <= g.NumVertices(); p++ {
			var want int32
			for _, v := range g.Neighbors(u) {
				if int(v) < p {
					want++
				}
			}
			if got := g.DegreeWithin(u, p); got != want {
				t.Errorf("DegreeWithin(%d, %d) = %d, want %d", u, p, got, want)
			}
			if int32(len(g.NeighborsWithin(u, p))) != want {
				t.Errorf("NeighborsWithin(%d, %d) length mismatch", u, p)
			}
		}
	}
}

// TestDegreeWithinWholeGraph pins the O(1) branch: a prefix that covers
// the whole graph (p = n, or any p beyond it) yields the whole row, the
// same slice Neighbors returns.
func TestDegreeWithinWholeGraph(t *testing.T) {
	g := small(t)
	n := g.NumVertices()
	for u := int32(0); int(u) < n; u++ {
		for _, p := range []int{n, n + 1, 2 * n} {
			if got, want := g.DegreeWithin(u, p), g.Degree(u); got != want {
				t.Errorf("DegreeWithin(%d, %d) = %d, want Degree %d", u, p, got, want)
			}
			got, want := g.NeighborsWithin(u, p), g.Neighbors(u)
			if len(got) != len(want) || (len(got) > 0 && &got[0] != &want[0]) {
				t.Errorf("NeighborsWithin(%d, %d) = %v, want Neighbors %v", u, p, got, want)
			}
		}
	}
}

func TestBuilderDeduplication(t *testing.T) {
	var b Builder
	b.AddVertex(0, 3)
	b.AddVertex(1, 2)
	b.AddVertex(2, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("got %d edges, want 1 after dedup", g.NumEdges())
	}
}

func TestBuilderErrors(t *testing.T) {
	var b Builder
	if _, err := b.Build(); err == nil {
		t.Error("empty builder: want error")
	}
	b.AddVertex(0, math.NaN())
	if _, err := b.Build(); err == nil {
		t.Error("NaN weight: want error")
	}
	var b2 Builder
	b2.AddVertex(0, math.Inf(1))
	if _, err := b2.Build(); err == nil {
		t.Error("Inf weight: want error")
	}
	var b3 Builder
	b3.AddVertex(0, 1)
	if err := b3.SetWeights([]float64{1, 2}); err == nil {
		t.Error("SetWeights length mismatch: want error")
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	if _, err := FromEdges([]float64{1, 2}, [][2]int32{{0, 5}}); err == nil {
		t.Error("edge to unknown vertex: want error")
	}
	if _, err := FromEdges([]float64{1, 2}, [][2]int32{{-1, 0}}); err == nil {
		t.Error("negative endpoint: want error")
	}
}

func TestEqualWeightsTieBreak(t *testing.T) {
	// All-equal weights must still produce a strict total order by ID.
	g, err := FromEdges([]float64{7, 7, 7}, [][2]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for r := int32(0); r < 3; r++ {
		if g.OrigID(r) != r {
			t.Errorf("tie-break should preserve ID order: rank %d -> %d", r, g.OrigID(r))
		}
	}
}

func TestLabels(t *testing.T) {
	var b Builder
	b.AddLabeledVertex(0, 1, "alice")
	b.AddLabeledVertex(1, 2, "bob")
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasLabels() {
		t.Fatal("labels lost")
	}
	// bob has the higher weight, so rank 0.
	if g.Label(0) != "bob" || g.Label(1) != "alice" {
		t.Errorf("labels = %q, %q", g.Label(0), g.Label(1))
	}
	// Unlabeled graphs fall back to numeric names.
	g2 := small(t)
	if g2.Label(0) == "" {
		t.Error("unlabeled graph should produce fallback labels")
	}
}

func TestStatistics(t *testing.T) {
	g := small(t)
	s := g.Statistics()
	if s.Vertices != 5 || s.Edges != 6 {
		t.Errorf("stats = %+v", s)
	}
	if s.MaxDegree != 3 {
		t.Errorf("dmax = %d, want 3", s.MaxDegree)
	}
	if s.AvgDegree != 2.4 {
		t.Errorf("davg = %v, want 2.4", s.AvgDegree)
	}
	hist := g.DegreeHistogram()
	var total int64
	for _, c := range hist {
		total += c
	}
	if total != 5 {
		t.Errorf("histogram sums to %d, want 5", total)
	}
}

func TestRankOfWeight(t *testing.T) {
	g := small(t) // weights by rank: 9 7 5 3 1
	cases := []struct {
		w    float64
		want int
	}{
		{10, 0}, {9, 1}, {8, 1}, {7, 2}, {2, 4}, {1, 5}, {0, 5},
	}
	for _, c := range cases {
		if got := g.RankOfWeight(c.w); got != c.want {
			t.Errorf("RankOfWeight(%v) = %d, want %d", c.w, got, c.want)
		}
	}
}
