package truss

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/index"
)

// FuzzSearch holds every instance of the one growth loop, core.Search, to
// the brute-force references on small graphs decoded from raw bytes:
// core.TopK under both core semantics against NaiveTopK and
// NaiveNonContainment, Pool.TopK and the progressive Stream against TopK,
// StreamOver and TopKOver over a source that materializes a fresh graph
// every round (as semi-external sources do) against Stream and TopK,
// Stats included, under core semantics two queries of different k on one
// prebuilt index against NaiveTopK (the second runs on the recycled pooled
// enumeration state), and for γ ≥ 2 the truss LocalSearch and Stream
// against truss.NaiveTopK, across δ ∈ {default, 1.5, 3}. Every Stats must
// account its final prefix, and a core answer holding k communities must
// keep TotalWork within Theorem 3.3's bound. Every community of every leg
// must render, by core.MemberMerger's rank-order merges, exactly the list
// Vertices returns: in answer order, in reverse (lists built on demand),
// and as a stream arrives.
func FuzzSearch(f *testing.F) {
	k5 := []byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4}
	f.Add(k5, uint8(4), uint8(1), uint8(2), uint8(0))
	f.Add(append(k5, 4, 5, 5, 6, 5, 7, 5, 8, 6, 7, 6, 8, 7, 8, 8, 9, 9, 5, 9, 6), uint8(9), uint8(3), uint8(1), uint8(3))
	f.Add([]byte("the quick brown fox jumps over the lazy dog; pack my box with five dozen liquor jugs"), uint8(15), uint8(4), uint8(1), uint8(1))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte("sphinx of black quartz, judge my vow! how vexingly quick daft zebras jump; waltz, bad nymph, for quick jigs vex"), uint8(23), uint8(11), uint8(3), uint8(5))
	f.Add([]byte{1, 2, 2, 3, 3, 1, 3, 4, 4, 5, 5, 3, 5, 6, 6, 7, 7, 5, 1, 7}, uint8(7), uint8(2), uint8(1), uint8(2))
	// Growth by one vertex a round breaks Theorem 3.3's work bound on
	// this k = 7, γ = 1 query.
	f.Add([]byte("120a27090A10B0"), uint8('Z'), uint8(6), uint8(30), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, nRaw, kRaw, gammaRaw, knobs uint8) {
		n := int32(nRaw%24) + 1
		var b graph.Builder
		// Distinct weights in a byte-chosen order: x ↦ a·x + c is a
		// bijection modulo the prime 1000003 for any a it does not divide.
		a := 7919 * (uint64(knobs) + 1)
		for id := int32(0); id < n; id++ {
			b.AddVertex(id, float64((uint64(id)*a+uint64(kRaw))%1000003))
		}
		for i := 0; i+1 < len(raw) && i < 200; i += 2 {
			b.AddEdge(int32(raw[i])%n, int32(raw[i+1])%n)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("builder rejected in-range input: %v", err)
		}
		k := int(kRaw%12) + 1
		gamma := int32(gammaRaw%5) + 1
		opts := core.Options{
			Delta:          []float64{0, 1.5, 3}[knobs%3],
			NonContainment: (knobs/3)%2 == 1,
		}
		name := fmt.Sprintf("k=%d γ=%d %+v", k, gamma, opts)

		res, err := core.TopK(g, k, gamma, opts)
		if err != nil {
			t.Fatalf("%s: TopK: %v", name, err)
		}
		var want []core.NaiveCommunity
		if opts.NonContainment {
			want = core.NaiveNonContainment(g, gamma)
			if len(want) > k {
				want = want[:k]
			}
		} else {
			want = core.NaiveTopK(g, k, gamma)
		}
		got := make([]string, len(res.Communities))
		for i, c := range res.Communities {
			got[i] = fmt.Sprint(c.Keynode(), c.Vertices())
		}
		wantKeys := make([]string, len(want))
		for i, c := range want {
			wantKeys[i] = fmt.Sprint(c.Keynode, c.Vertices)
		}
		sameKeys(t, name+" TopK vs naive", got, wantKeys)
		accounted(t, name+" TopK", g, res.Stats)
		if !opts.NonContainment && len(res.Communities) == k {
			withinWorkBound(t, name+" TopK", g, res, opts.Delta)
		}
		mergesLikeVertices(t, name+" TopK", res.Communities)

		pooled, err := core.NewPool(g).TopK(context.Background(), k, gamma, opts)
		if err != nil {
			t.Fatalf("%s: Pool.TopK: %v", name, err)
		}
		if pooled.Stats != res.Stats {
			t.Fatalf("%s: Pool.TopK stats %+v, TopK %+v", name, pooled.Stats, res.Stats)
		}
		pk := make([]string, len(pooled.Communities))
		for i, c := range pooled.Communities {
			pk[i] = fmt.Sprint(c.Keynode(), c.Vertices())
		}
		sameKeys(t, name+" Pool.TopK vs TopK", pk, got)
		mergesLikeVertices(t, name+" Pool.TopK", pooled.Communities)

		var streamed []string
		var sm core.MemberMerger
		st, err := core.Stream(g, gamma, opts, func(c *core.Community) bool {
			streamed = append(streamed, fmt.Sprint(c.Keynode(), c.Vertices()))
			sameList(t, name+" Stream render", sm.Members(c), c.Vertices())
			return len(streamed) < k
		})
		if err != nil {
			t.Fatalf("%s: Stream: %v", name, err)
		}
		sameKeys(t, name+" Stream vs TopK", streamed, got)
		accounted(t, name+" Stream", g, st)

		// Every round of a fresh source hands the drivers a new graph in
		// reused scratch: each graph needs its own engine, and
		// LocalSearch-P's enumeration state must carry across them.
		fresh := newFreshSource(g)
		var overStreamed []string
		var osm core.MemberMerger
		ost, err := core.StreamOver(context.Background(), fresh, gamma, opts, func(c *core.Community) bool {
			overStreamed = append(overStreamed, fmt.Sprint(c.Keynode(), c.Vertices()))
			sameList(t, name+" StreamOver render", osm.Members(c), c.Vertices())
			return len(overStreamed) < k
		})
		if err != nil {
			t.Fatalf("%s: StreamOver: %v", name, err)
		}
		sameKeys(t, name+" StreamOver vs TopK", overStreamed, got)
		if ost != st {
			t.Fatalf("%s: StreamOver stats %+v, Stream %+v", name, ost, st)
		}
		over, err := core.TopKOver(context.Background(), fresh, k, gamma, opts)
		if err != nil {
			t.Fatalf("%s: TopKOver: %v", name, err)
		}
		if over.Stats != res.Stats {
			t.Fatalf("%s: TopKOver stats %+v, TopK %+v", name, over.Stats, res.Stats)
		}
		overKeys := make([]string, len(over.Communities))
		for i, c := range over.Communities {
			overKeys[i] = fmt.Sprint(c.Keynode(), c.Vertices())
		}
		sameKeys(t, name+" TopKOver vs TopK", overKeys, got)
		mergesLikeVertices(t, name+" TopKOver", over.Communities)

		if !opts.NonContainment {
			// The index enumerates over the whole graph (c.P = n), where
			// EnumIC's scan bound cuts the most.
			cix, err := index.Build(g)
			if err != nil {
				t.Fatalf("%s: index.Build: %v", name, err)
			}
			for _, qk := range []int{k, 13 - k} {
				comms, err := cix.TopK(qk, gamma)
				if err != nil {
					t.Fatalf("%s: index TopK(%d): %v", name, qk, err)
				}
				var iwant, igot []string
				for _, c := range core.NaiveTopK(g, qk, gamma) {
					iwant = append(iwant, fmt.Sprint(c.Keynode, c.Vertices))
				}
				for _, c := range comms {
					igot = append(igot, fmt.Sprint(c.Keynode(), c.Vertices()))
				}
				sameKeys(t, fmt.Sprintf("%s index TopK(%d) vs naive", name, qk), igot, iwant)
				mergesLikeVertices(t, fmt.Sprintf("%s index TopK(%d)", name, qk), comms)
			}
		}

		if gamma < 2 {
			return
		}
		ix := NewIndex(g)
		tr, err := LocalSearch(ix, k, gamma)
		if err != nil {
			t.Fatalf("%s: truss LocalSearch: %v", name, err)
		}
		var twant []string
		for _, c := range NaiveTopK(g, k, gamma) {
			twant = append(twant, fmt.Sprint(c.Keynode, c.Vertices))
		}
		var tgot []string
		for _, c := range tr.Communities {
			tgot = append(tgot, fmt.Sprint(c.Keynode(), c.Vertices()))
		}
		sameKeys(t, name+" truss LocalSearch vs naive", tgot, twant)
		accounted(t, name+" truss LocalSearch", g, tr.Stats)
		mergesLikeVertices(t, name+" truss LocalSearch", tr.Communities)

		var tstreamed []string
		var tsm core.MemberMerger
		p, err := Stream(ix, gamma, func(c *core.Community) bool {
			tstreamed = append(tstreamed, fmt.Sprint(c.Keynode(), c.Vertices()))
			sameList(t, name+" truss Stream render", tsm.Members(c), c.Vertices())
			return len(tstreamed) < k
		})
		if err != nil {
			t.Fatalf("%s: truss Stream: %v", name, err)
		}
		sameKeys(t, name+" truss Stream vs naive", tstreamed, twant)
		if p < 1 || p > g.NumVertices() {
			t.Fatalf("%s: truss Stream stopped at prefix %d of %d", name, p, g.NumVertices())
		}
	})
}

// freshSource is a core.SearchSource that materializes every prefix [0, p)
// as a new graph assembled in one reused scratch, exactly as
// semiext.Source does, so a graph from an earlier round is overwritten by
// the next one.
type freshSource struct {
	*graph.Graph
	upDeg, upAdj []int32
	scratch      graph.PrefixScratch
}

func newFreshSource(g *graph.Graph) *freshSource {
	s := &freshSource{Graph: g}
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		s.upDeg = append(s.upDeg, g.UpDegree(u))
		s.upAdj = append(s.upAdj, g.UpNeighbors(u)...)
	}
	return s
}

func (s *freshSource) Materialize(p int) (*graph.Graph, error) {
	return graph.FromUpAdjacency(s.Weights()[:p], s.upDeg[:p], s.upAdj[:s.PrefixEdges(p)], &s.scratch)
}

// mergesLikeVertices renders comms through one MemberMerger in answer
// order, where every child precedes its parent, and again in reverse
// order, where each list is rebuilt on demand: both must give each
// community's Vertices.
func mergesLikeVertices(t *testing.T, what string, comms []*core.Community) {
	t.Helper()
	var m core.MemberMerger
	for _, c := range comms {
		sameList(t, what+" render", m.Members(c), c.Vertices())
	}
	m.Reset()
	for i := len(comms) - 1; i >= 0; i-- {
		sameList(t, what+" reverse render", m.Members(comms[i]), comms[i].Vertices())
	}
}

func sameList(t *testing.T, what string, got, want []int32) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: merged members %v, Vertices %v", what, got, want)
	}
}

func sameKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d communities, want %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: community %d is %s, want %s", what, i, got[i], want[i])
		}
	}
}

// withinWorkBound checks Theorem 3.3's work bound on a core answer holding
// k communities: TotalWork ≤ 2δ²/(δ−1)·size(G≥τ*), G≥τ* being the prefix
// through the k-th community's keynode r*. Every round before the last
// found fewer than k communities, so it lies inside G≥τ*, and the rounds
// grew by δ, so they sum to at most δ/(δ−1)·size(G≥τ*) (Lemma 3.7); the
// last round is below 2δ·size(G≥τ*) (Lemma 3.8); and 2δ + δ/(δ−1) ≤
// 2δ²/(δ−1). A last round capped at the whole graph only lowers
// FinalSize: it is capped because δ times the round before it already
// reached size(G).
func withinWorkBound(t *testing.T, what string, g *graph.Graph, res *core.Result, delta float64) {
	t.Helper()
	if delta == 0 {
		delta = core.DefaultDelta
	}
	optimal := g.PrefixSize(int(res.Communities[len(res.Communities)-1].Keynode()) + 1)
	if bound := 2 * delta * delta / (delta - 1) * float64(optimal); float64(res.Stats.TotalWork) > bound {
		t.Fatalf("%s: TotalWork %d over Theorem 3.3's bound %.1f (size(G≥τ*) = %d, δ = %v)",
			what, res.Stats.TotalWork, bound, optimal, delta)
	}
}

// accounted checks the loop's bookkeeping: the final prefix's size is the
// size reported, and the total work covers at least that last round.
func accounted(t *testing.T, what string, g *graph.Graph, st core.Stats) {
	t.Helper()
	if st.Rounds < 1 || st.FinalSize != g.PrefixSize(st.FinalPrefix) || st.TotalWork < st.FinalSize {
		t.Fatalf("%s: stats %+v inconsistent (size of prefix %d is %d)", what, st, st.FinalPrefix, g.PrefixSize(st.FinalPrefix))
	}
}
