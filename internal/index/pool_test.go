package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"influcomm/internal/gen"
	"influcomm/internal/graph"
)

// answer renders ix.TopK(k, γ) for comparison.
func answer(t testing.TB, ix *Index, k int, gamma int32) string {
	comms, err := ix.TopK(k, gamma)
	if err != nil {
		t.Errorf("TopK(%d, %d): %v", k, gamma, err)
		return ""
	}
	var buf bytes.Buffer
	for _, c := range comms {
		fmt.Fprintf(&buf, "%d:%v;", c.Keynode(), c.Vertices())
	}
	return buf.String()
}

// TestIndexTopKParallel runs one mixed (k, γ) query sequence from 8
// goroutines against an index from every constructor — Build, ApplyDelta
// (a repair and the empty-delta return) and ReadFrom — and holds every
// answer to the sequential one. The goroutines share the index's pooled
// enumeration state, so a state returned dirty fails here, and a
// constructor that leaves the pool unset panics.
func TestIndexTopKParallel(t *testing.T) {
	g := gen.Random(300, 8, 5)
	built, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ins, del := randomToggleBatch(g, rng, g.NumVertices()/2, 6)
	ng, cut, err := graph.ApplyEdgeDeltaCut(g, ins, del)
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := built.ApplyDelta(ng, cut)
	if err != nil {
		t.Fatal(err)
	}
	rebound, err := built.ApplyDelta(g, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := ReadFrom(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ix   *Index
	}{{"Build", built}, {"ApplyDelta", repaired}, {"ApplyDelta empty", rebound}, {"ReadFrom", read}} {
		type query struct {
			k     int
			gamma int32
		}
		qs := make([]query, 48)
		want := make([]string, len(qs))
		for i := range qs {
			qs[i] = query{[]int{1, 3, 10, 40}[rng.Intn(4)], 1 + int32(rng.Intn(int(tc.ix.GammaMax())+1))}
			want[i] = answer(t, tc.ix, qs[i].k, qs[i].gamma)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 2; r++ {
					for i := range qs {
						j := (i + 7*w) % len(qs)
						if got := answer(t, tc.ix, qs[j].k, qs[j].gamma); got != want[j] {
							t.Errorf("%s: goroutine %d: TopK(%d, %d) = %s, want %s", tc.name, w, qs[j].k, qs[j].gamma, got, want[j])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestIndexTopKAllocatesOutputNotGraph pins the cost of an index hit to
// its output: after one warm-up call, a top-1 query on a 50k-vertex graph
// allocates fewer bytes than the graph has vertices, where a per-query
// O(n) enumeration state costs at least 4n.
func TestIndexTopKAllocatesOutputNotGraph(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	g := gen.Random(50000, 6, 3)
	ix, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	gamma := ix.GammaMax()
	if comms, err := ix.TopK(1, gamma); err != nil || len(comms) != 1 {
		t.Fatalf("warm-up TopK(1, %d) = %d communities, %v", gamma, len(comms), err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.TopK(1, gamma); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got, n := res.AllocedBytesPerOp(), int64(g.NumVertices()); got >= n {
		t.Fatalf("TopK(1, %d) allocates %d bytes per call on %d vertices, want fewer than %d", gamma, got, n, n)
	}
}
