package core

import (
	"fmt"
	"math"
	"testing"

	"influcomm/internal/gen"
	"influcomm/internal/graph"
)

// communityKey renders a materialized community for comparison.
func communityKey(keynode int32, vertices []int32) string {
	return fmt.Sprintf("%d:%v", keynode, vertices)
}

// checkAgainstNaive verifies that TopK and TopKProgressive agree with the
// definitional reference on graph g for the given query.
func checkAgainstNaive(t *testing.T, g *graph.Graph, k int, gamma int32) {
	t.Helper()
	want := NaiveTopK(g, k, gamma)

	res, err := TopK(g, k, gamma, Options{})
	if err != nil {
		t.Fatalf("TopK(k=%d, γ=%d): %v", k, gamma, err)
	}
	compare(t, "LocalSearch", g, k, gamma, res.Communities, want)

	prog, err := TopKProgressive(g, k, gamma, Options{})
	if err != nil {
		t.Fatalf("TopKProgressive(k=%d, γ=%d): %v", k, gamma, err)
	}
	compare(t, "LocalSearch-P", g, k, gamma, prog.Communities, want)
}

func compare(t *testing.T, algo string, g *graph.Graph, k int, gamma int32, got []*Community, want []NaiveCommunity) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s(k=%d, γ=%d): got %d communities, want %d", algo, k, gamma, len(got), len(want))
	}
	for i := range want {
		w := communityKey(want[i].Keynode, want[i].Vertices)
		gk := communityKey(got[i].Keynode(), got[i].Vertices())
		if w != gk {
			t.Fatalf("%s(k=%d, γ=%d): community %d mismatch\n got %s\nwant %s", algo, k, gamma, i, gk, w)
		}
	}
}

func TestCrossCheckRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		n := 20 + int(seed*7)%60
		avg := 2 + float64(seed%5)
		g := gen.Random(n, avg, seed)
		for _, gamma := range []int32{1, 2, 3, 4} {
			for _, k := range []int{1, 2, 5, 1 << 30} {
				checkAgainstNaive(t, g, k, gamma)
			}
		}
	}
}

func TestCrossCheckPreferentialAttachment(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g, err := gen.PreferentialAttachment(150, 3, seed)
		if err != nil {
			t.Fatalf("generator: %v", err)
		}
		for _, gamma := range []int32{2, 3} {
			for _, k := range []int{1, 3, 10} {
				checkAgainstNaive(t, g, k, gamma)
			}
		}
	}
}

func TestCrossCheckPlantedCommunities(t *testing.T) {
	g, err := gen.PlantedCommunities(8, 12, 0.7, 1.0, 42)
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	for _, gamma := range []int32{3, 4, 5} {
		for _, k := range []int{1, 2, 4, 8} {
			checkAgainstNaive(t, g, k, gamma)
		}
	}
}

func TestCrossCheckDeltaVariants(t *testing.T) {
	g := gen.Random(120, 5, 7)
	want := NaiveTopK(g, 5, 3)
	for _, delta := range []float64{1.5, 2, 3, 8, 64} {
		res, err := TopK(g, 5, 3, Options{Delta: delta})
		if err != nil {
			t.Fatalf("δ=%v: %v", delta, err)
		}
		compare(t, fmt.Sprintf("LocalSearch(δ=%v)", delta), g, 5, 3, res.Communities, want)
	}
	res, err := TopK(g, 5, 3, Options{ArithmeticGrowth: 64})
	if err != nil {
		t.Fatalf("arithmetic growth: %v", err)
	}
	compare(t, "LocalSearch(arithmetic)", g, 5, 3, res.Communities, want)
}

// TestHugeGrowthJumpsToWholeGraph: a growth step whose target size does
// not fit in int64 must take the search straight to the whole graph, not
// degrade to one-vertex rounds (Backward's quadratic cost).
func TestHugeGrowthJumpsToWholeGraph(t *testing.T) {
	g := gen.Random(2000, 8, 3)
	const k, gamma = 50, 3
	want, err := TopK(g, k, gamma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{Delta: 1e19}, {ArithmeticGrowth: math.MaxInt64}} {
		res, err := TopK(g, k, gamma, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if res.Stats.Rounds > 2 {
			t.Errorf("%+v: TopK took %d rounds, want at most 2", opts, res.Stats.Rounds)
		}
		if len(res.Communities) != len(want.Communities) {
			t.Fatalf("%+v: %d communities, want %d", opts, len(res.Communities), len(want.Communities))
		}
		for i, c := range res.Communities {
			w := want.Communities[i]
			if communityKey(c.Keynode(), c.Vertices()) != communityKey(w.Keynode(), w.Vertices()) {
				t.Fatalf("%+v: community %d differs from zero Options", opts, i)
			}
		}
		n := 0
		st, err := Stream(g, gamma, opts, func(*Community) bool {
			n++
			return n < k
		})
		if err != nil {
			t.Fatalf("%+v: stream: %v", opts, err)
		}
		if st.Rounds > 2 || n != k {
			t.Errorf("%+v: Stream took %d rounds for %d communities, want at most 2 for %d", opts, st.Rounds, n, k)
		}
	}
}

func TestInitialPrefixOverrides(t *testing.T) {
	g := gen.Random(150, 5, 23)
	want := NaiveTopK(g, 4, 3)
	n := g.NumVertices()
	for _, p0 := range []int{1, 2, 7, 50, n / 2, n} {
		res, err := TopK(g, 4, 3, Options{InitialPrefix: p0})
		if err != nil {
			t.Fatalf("initial prefix %d: %v", p0, err)
		}
		compare(t, fmt.Sprintf("LocalSearch(p0=%d)", p0), g, 4, 3, res.Communities, want)
	}
}

func TestStreamDeltaVariants(t *testing.T) {
	g := gen.Random(120, 5, 29)
	want := NaiveCommunities(g, 3)
	for _, delta := range []float64{1.2, 2, 16} {
		var got []*Community
		_, err := Stream(g, 3, Options{Delta: delta}, func(c *Community) bool {
			got = append(got, c)
			return true
		})
		if err != nil {
			t.Fatalf("δ=%v: %v", delta, err)
		}
		if len(got) != len(want) {
			t.Fatalf("δ=%v: streamed %d, want %d", delta, len(got), len(want))
		}
		for i := range want {
			if got[i].Keynode() != want[i].Keynode {
				t.Fatalf("δ=%v: community %d keynode %d, want %d", delta, i, got[i].Keynode(), want[i].Keynode)
			}
		}
	}
}

func TestStreamMatchesFullEnumeration(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		g := gen.Random(80, 4, seed)
		for _, gamma := range []int32{2, 3} {
			want := NaiveCommunities(g, gamma)
			var got []*Community
			_, err := Stream(g, gamma, Options{}, func(c *Community) bool {
				got = append(got, c)
				return true
			})
			if err != nil {
				t.Fatalf("Stream: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d γ=%d: streamed %d communities, want %d", seed, gamma, len(got), len(want))
			}
			for i := range want {
				w := communityKey(want[i].Keynode, want[i].Vertices)
				gk := communityKey(got[i].Keynode(), got[i].Vertices())
				if w != gk {
					t.Fatalf("seed %d γ=%d: community %d mismatch\n got %s\nwant %s", seed, gamma, i, gk, w)
				}
			}
		}
	}
}

func TestStreamEarlyTermination(t *testing.T) {
	g := gen.Random(200, 6, 3)
	all := NaiveCommunities(g, 3)
	if len(all) < 4 {
		t.Skip("fixture has too few communities")
	}
	for stop := 1; stop <= 4; stop++ {
		var got []*Community
		_, err := Stream(g, 3, Options{}, func(c *Community) bool {
			got = append(got, c)
			return len(got) < stop
		})
		if err != nil {
			t.Fatalf("Stream: %v", err)
		}
		if len(got) != stop {
			t.Fatalf("stopped after %d, want %d", len(got), stop)
		}
		for i := 0; i < stop; i++ {
			if got[i].Keynode() != all[i].Keynode {
				t.Fatalf("community %d keynode = %d, want %d", i, got[i].Keynode(), all[i].Keynode)
			}
		}
	}
}

func TestNonContainmentMatchesNaive(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		g := gen.Random(60, 5, seed)
		for _, gamma := range []int32{2, 3} {
			want := NaiveNonContainment(g, gamma)
			res, err := TopK(g, 1<<30, gamma, Options{NonContainment: true})
			if err != nil {
				t.Fatalf("TopK NC: %v", err)
			}
			if len(res.Communities) != len(want) {
				t.Fatalf("seed %d γ=%d: got %d NC communities, want %d", seed, gamma, len(res.Communities), len(want))
			}
			for i := range want {
				w := communityKey(want[i].Keynode, want[i].Vertices)
				gk := communityKey(res.Communities[i].Keynode(), res.Communities[i].Vertices())
				if w != gk {
					t.Fatalf("seed %d γ=%d: NC community %d mismatch\n got %s\nwant %s", seed, gamma, i, gk, w)
				}
			}
			// Non-containment communities must be pairwise disjoint (§5.1).
			seen := make(map[int32]bool)
			for _, c := range res.Communities {
				for _, v := range c.Vertices() {
					if seen[v] {
						t.Fatalf("seed %d γ=%d: NC communities overlap at vertex %d", seed, gamma, v)
					}
					seen[v] = true
				}
			}
		}
	}
}
