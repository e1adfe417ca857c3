package core

import (
	"context"
	"fmt"
	"testing"

	"influcomm/internal/gen"
	"influcomm/internal/graph"
)

// freshSource materializes every prefix [0, p) as a new graph assembled in
// one reused scratch, as a semi-external source does.
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

// TestTopKOverKeepsOnlyItsGroups: an answer retains exactly the members
// its groups hold, on every source and under both semantics. Groups are
// slices, so a group aliasing the final round's whole removal sequence
// keeps that sequence alive for as long as the answer lives (a memoized
// answer, for one); its capacity would then exceed the members.
func TestTopKOverKeepsOnlyItsGroups(t *testing.T) {
	g := gen.Random(20000, 8, 3)
	sources := map[string]SearchSource{
		"graph": GraphSource(g),
		"fresh": newFreshSource(g),
		"pool":  NewPool(g),
	}
	for name, src := range sources {
		for _, nc := range []bool{false, true} {
			what := fmt.Sprintf("%s nc=%v", name, nc)
			res, err := TopKOver(context.Background(), src, 10, 4, Options{NonContainment: nc})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Communities) == 0 {
				t.Fatalf("%s: no communities", what)
			}
			members, maxCap := 0, 0
			for _, c := range res.Communities {
				members += len(c.Group())
				maxCap = max(maxCap, cap(c.Group()))
			}
			if maxCap > members {
				t.Errorf("%s: a group keeps %d ranks alive for an answer of %d members", what, maxCap, members)
			}
		}
	}
}
