package core

import (
	"testing"
	"testing/quick"

	"influcomm/internal/gen"
	"influcomm/internal/graph"
)

// quickGraph derives a small random graph from quick-check inputs.
func quickGraph(seed uint64, nRaw uint8, degRaw uint8) *graph.Graph {
	n := int(nRaw%60) + 10
	avg := 1 + float64(degRaw%6)
	return gen.Random(n, avg, seed|1)
}

// TestCountMonotonicityProperty checks Lemma 3.1: the number of influential
// γ-communities in G≥τ is non-decreasing as the prefix grows.
func TestCountMonotonicityProperty(t *testing.T) {
	f := func(seed uint64, nRaw, degRaw, gammaRaw uint8) bool {
		g := quickGraph(seed, nRaw, degRaw)
		gamma := int32(gammaRaw%4) + 1
		eng := NewEngine(g, gamma)
		prev := 0
		for p := 0; p <= g.NumVertices(); p++ {
			cnt := eng.Run(p, 0, 0).Count()
			if cnt < prev {
				return false
			}
			prev = cnt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestKeynodeBijectionProperty checks Lemma 3.4: keynodes are in bijection
// with the communities of the definitional reference.
func TestKeynodeBijectionProperty(t *testing.T) {
	f := func(seed uint64, nRaw, degRaw, gammaRaw uint8) bool {
		g := quickGraph(seed, nRaw, degRaw)
		gamma := int32(gammaRaw%4) + 1
		naive := NaiveCommunities(g, gamma)
		cvs := NewEngine(g, gamma).Run(g.NumVertices(), 0, 0)
		if cvs.Count() != len(naive) {
			return false
		}
		// keys ascend in weight = descend in rank; naive descends in
		// influence = ascends in rank.
		for i, nc := range naive {
			if cvs.Keys[len(cvs.Keys)-1-i] != nc.Keynode {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCVSSuffixProperty checks the incremental-construction property of §4:
// keys and cvs of a smaller prefix are a suffix of those of a larger one.
func TestCVSSuffixProperty(t *testing.T) {
	f := func(seed uint64, nRaw, degRaw, gammaRaw uint8, cut uint8) bool {
		g := quickGraph(seed, nRaw, degRaw)
		gamma := int32(gammaRaw%4) + 1
		n := g.NumVertices()
		p1 := int(cut)%n + 1
		small := NewEngine(g, gamma).Run(p1, 0, WantSeq)
		big := NewEngine(g, gamma).Run(n, 0, WantSeq)
		if len(small.Keys) > len(big.Keys) || len(small.Seq) > len(big.Seq) {
			return false
		}
		offK := len(big.Keys) - len(small.Keys)
		for i, k := range small.Keys {
			if big.Keys[offK+i] != k {
				return false
			}
		}
		offS := len(big.Seq) - len(small.Seq)
		for i, v := range small.Seq {
			if big.Seq[offS+i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestConstructCVSStopProperty checks Algorithm 5: a run with stopBefore p1
// produces exactly the keynodes of the full run that are missing from the
// prefix-p1 run.
func TestConstructCVSStopProperty(t *testing.T) {
	f := func(seed uint64, nRaw, degRaw, gammaRaw uint8, cut uint8) bool {
		g := quickGraph(seed, nRaw, degRaw)
		gamma := int32(gammaRaw%4) + 1
		n := g.NumVertices()
		p1 := int(cut)%n + 1
		small := NewEngine(g, gamma).Run(p1, 0, 0)
		full := NewEngine(g, gamma).Run(n, 0, 0)
		inc := NewEngine(g, gamma).Run(n, p1, 0)
		if len(inc.Keys)+len(small.Keys) != len(full.Keys) {
			return false
		}
		for i, k := range inc.Keys {
			if full.Keys[i] != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestInstanceBoundProperty checks Lemma 3.8: the final subgraph LocalSearch
// accesses is smaller than 2δ times the optimal subgraph G≥τ*.
func TestInstanceBoundProperty(t *testing.T) {
	f := func(seed uint64, nRaw, degRaw uint8, kRaw uint8) bool {
		g := quickGraph(seed, nRaw, degRaw)
		gamma := int32(2)
		k := int(kRaw%5) + 1
		total := CountIC(g, g.NumVertices(), gamma)
		if total < k {
			return true // τ* undefined; LocalSearch legitimately scans all.
		}
		// Optimal prefix: smallest p with at least k communities.
		eng := NewEngine(g, gamma)
		pStar := 0
		for p := 1; p <= g.NumVertices(); p++ {
			if eng.Run(p, 0, 0).Count() >= k {
				pStar = p
				break
			}
		}
		res, err := TopK(g, k, gamma, Options{})
		if err != nil {
			return false
		}
		delta := DefaultDelta
		bound := int64(2*delta*float64(g.PrefixSize(pStar))) + 2
		return res.Stats.FinalSize <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestForestInvariantsProperty checks the EnumIC output structure: group
// segments partition each community, children have strictly larger
// influence, sizes are consistent, and communities are nested or disjoint.
func TestForestInvariantsProperty(t *testing.T) {
	f := func(seed uint64, nRaw, degRaw, gammaRaw uint8) bool {
		g := quickGraph(seed, nRaw, degRaw)
		gamma := int32(gammaRaw%4) + 1
		cvs := NewEngine(g, gamma).Run(g.NumVertices(), 0, WantSeq)
		comms := EnumIC(g, cvs, -1)
		seenGroup := map[int32]bool{}
		for _, c := range comms {
			for _, ch := range c.Children() {
				if ch.Influence() <= c.Influence() {
					return false
				}
			}
			total := len(c.Group())
			for _, ch := range c.Children() {
				total += ch.Size()
			}
			if total != c.Size() {
				return false
			}
			if len(c.Vertices()) != c.Size() {
				return false
			}
			for _, v := range c.Group() {
				if seenGroup[v] {
					return false // groups must partition the vertex set
				}
				seenGroup[v] = true
			}
		}
		// Pairwise: nested or disjoint.
		sets := make([]map[int32]bool, len(comms))
		for i, c := range comms {
			sets[i] = map[int32]bool{}
			for _, v := range c.Vertices() {
				sets[i][v] = true
			}
		}
		for i := range comms {
			for j := i + 1; j < len(comms); j++ {
				inter, small := 0, len(sets[j])
				if len(sets[i]) < small {
					small = len(sets[i])
				}
				for v := range sets[i] {
					if sets[j][v] {
						inter++
					}
				}
				if inter != 0 && inter != small {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCommunityCohesionProperty checks Definition 2.2 directly on every
// enumerated community: connected and minimum degree >= γ.
func TestCommunityCohesionProperty(t *testing.T) {
	f := func(seed uint64, nRaw, degRaw, gammaRaw uint8) bool {
		g := quickGraph(seed, nRaw, degRaw)
		gamma := int32(gammaRaw%4) + 1
		res, err := TopK(g, 1<<30, gamma, Options{})
		if err != nil {
			return false
		}
		for _, c := range res.Communities {
			if c.MinDegree(g) < gamma {
				return false
			}
			if !connected(g, c.Vertices()) {
				return false
			}
			// Influence is the minimum member weight.
			min := c.Influence()
			for _, v := range c.Vertices() {
				if g.Weight(v) < min {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func connected(g *graph.Graph, vs []int32) bool {
	if len(vs) == 0 {
		return true
	}
	in := map[int32]bool{}
	for _, v := range vs {
		in[v] = true
	}
	seen := map[int32]bool{vs[0]: true}
	stack := []int32{vs[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if in[w] && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return len(seen) == len(vs)
}

// TestStatsAccounting checks the Stats fields against manual recomputation.
func TestStatsAccounting(t *testing.T) {
	g := gen.Random(300, 5, 17)
	res, err := TopK(g, 5, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Rounds < 1 {
		t.Errorf("rounds = %d", st.Rounds)
	}
	if st.FinalSize != g.PrefixSize(st.FinalPrefix) {
		t.Errorf("FinalSize %d != PrefixSize(%d) = %d", st.FinalSize, st.FinalPrefix, g.PrefixSize(st.FinalPrefix))
	}
	if st.TotalWork < st.FinalSize {
		t.Errorf("TotalWork %d < FinalSize %d", st.TotalWork, st.FinalSize)
	}
	// Lemma 3.7: total work is at most (1 + 1/(δ-1)) · final size, plus the
	// initial prefix which may not obey the geometric chain.
	bound := int64(float64(st.FinalSize)*(1+1/(DefaultDelta-1))) + g.PrefixSize(5+3)
	if st.TotalWork > bound {
		t.Errorf("TotalWork %d exceeds geometric-sum bound %d", st.TotalWork, bound)
	}
}

// TestTheorem33WorkBound checks Theorem 3.3's work bound on every
// core-semantics answer that holds k communities: TotalWork ≤
// 2δ²/(δ−1)·size(G≥τ*), G≥τ* being the prefix through the k-th
// community's keynode r*. Every round before the last found fewer than k
// communities, so it lies inside G≥τ*, and the rounds grew by δ, so they
// sum to at most δ/(δ−1)·size(G≥τ*) (Lemma 3.7); the last round is below
// 2δ·size(G≥τ*) (Lemma 3.8); and 2δ + δ/(δ−1) ≤ 2δ²/(δ−1). A last round
// capped at the whole graph only lowers FinalSize: it is capped because δ
// times the round before it already reached size(G).
func TestTheorem33WorkBound(t *testing.T) {
	checked, worst := 0, 0.0
	for s := uint64(1); s <= 4; s++ {
		g := gen.Random(3000, 8, s)
		for gamma := int32(1); gamma <= 5; gamma++ {
			for _, k := range []int{1, 2, 5, 20, 100, 500} {
				for _, delta := range []float64{1.5, 2, 3} {
					res, err := TopK(g, k, gamma, Options{Delta: delta})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Communities) < k {
						continue // τ* is undefined: the search may scan everything
					}
					checked++
					optimal := g.PrefixSize(int(res.Communities[k-1].Keynode()) + 1)
					bound := 2 * delta * delta / (delta - 1) * float64(optimal)
					worst = max(worst, float64(res.Stats.TotalWork)/bound)
					if float64(res.Stats.TotalWork) > bound {
						t.Errorf("seed %d γ=%d k=%d δ=%v: TotalWork %d over the bound %.0f (size(G≥τ*) = %d)",
							s, gamma, k, delta, res.Stats.TotalWork, bound, optimal)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no answer held k communities: the bound was never checked")
	}
	t.Logf("%d answers checked; the largest TotalWork is %.3f of its bound", checked, worst)
}
