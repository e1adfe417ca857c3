package index

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"influcomm/internal/gen"
	"influcomm/internal/graph"
)

// fuzzGraph is the fixed graph fuzz inputs are bound against; ReadFrom
// validates input against the graph, so the graph must stay constant while
// the bytes vary.
func fuzzGraph() (*Index, []byte) {
	g := gen.Random(40, 5, 11)
	ix, err := Build(g)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		panic(err)
	}
	return ix, buf.Bytes()
}

// FuzzReadFrom feeds arbitrary bytes to the deserializer: it must reject
// anything malformed with an error — never panic — and anything it does
// accept must answer queries with in-range vertices only.
func FuzzReadFrom(f *testing.F) {
	ix, valid := fuzzGraph()
	g := ix.Graph()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:7])
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	mut[9] ^= 0xFF
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadFrom(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		for gamma := int32(1); gamma <= got.GammaMax(); gamma++ {
			comms, err := got.TopK(3, gamma)
			if err != nil {
				continue
			}
			for _, c := range comms {
				for _, v := range c.Vertices() {
					if v < 0 || int(v) >= g.NumVertices() {
						t.Fatalf("accepted input produced out-of-range vertex %d", v)
					}
				}
			}
		}
	})
}

// fuzzToggles turns byte pairs into one update batch on g: pair (a, b)
// toggles edge {a mod n, b mod n}, inserting it when absent and deleting
// it when present. Self loops and repeats within the batch are skipped,
// and an odd trailing byte is ignored.
func fuzzToggles(g *graph.Graph, pairs []byte) (inserts, deletes [][2]int32) {
	n := g.NumVertices()
	seen := map[[2]int32]bool{}
	for i := 0; i+1 < len(pairs); i += 2 {
		u, v := int32(int(pairs[i])%n), int32(int(pairs[i+1])%n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := [2]int32{u, v}
		if seen[e] {
			continue
		}
		seen[e] = true
		if g.HasEdge(u, v) {
			deletes = append(deletes, e)
		} else {
			inserts = append(inserts, e)
		}
	}
	return inserts, deletes
}

// FuzzApplyDelta chains two or three update batches on a small random
// graph and repairs the index after each one: at workers 1 and 2 the
// repaired index must serialize byte-identically to a fresh Build and
// answer TopK(1, γ) like it for every γ. graphSeed picks the graph (12 to
// 48 vertices, average degree 0 to 7). ops holds the batches, each a run
// of byte pairs for fuzzToggles, separated by 0xFF bytes; the third batch
// runs to the end of ops, and ops without a separator is followed by an
// empty batch.
func FuzzApplyDelta(f *testing.F) {
	pairsAmong := func(vs ...byte) []byte {
		var out []byte
		for i, u := range vs {
			for _, v := range vs[i+1:] {
				out = append(out, u, v)
			}
		}
		return out
	}
	batches := func(bs ...[]byte) []byte { return bytes.Join(bs, []byte{0xFF}) }
	k8, tri := pairsAmong(12, 13, 14, 15, 16, 17, 18, 19), pairsAmong(17, 18, 19)
	// Graph seed 3 has 15 vertices and average degree 3: touch rank 0
	// (cut 0, nothing spliced), then only the two lightest vertices.
	f.Add(uint64(3), batches([]byte{0, 14}, []byte{13, 14}))
	// Graph seed 8 has 20 vertices and no edges, so no decomposition: a
	// clique on the 8 lightest vertices grows γmax from 0 to 7, and
	// toggling it again deletes every edge, trimming γmax back to 0.
	f.Add(uint64(8), batches(k8, k8))
	// The same graph grows by the upward probe instead: a triangle (γmax
	// 2), the clique's toggles (which delete the triangle: γmax 5), then the
	// triangle again (the whole clique, γmax 7).
	f.Add(uint64(8), batches(tri, k8, tri))
	// Graph seed 45 has 20 vertices and average degree 5: light toggles.
	f.Add(uint64(45), batches([]byte{15, 19, 16, 18}, []byte{17, 19}, []byte{15, 16, 18, 19}))
	f.Fuzz(func(t *testing.T, graphSeed uint64, ops []byte) {
		g := gen.Random(12+int(graphSeed%37), float64(graphSeed%8), graphSeed)
		ix, err := Build(g)
		if err != nil {
			t.Fatal(err)
		}
		chunks := bytes.SplitN(ops, []byte{0xFF}, 3)
		if len(chunks) < 2 {
			chunks = append(chunks, nil)
		}
		for bi, chunk := range chunks {
			ins, del := fuzzToggles(g, chunk)
			ng, cut, err := graph.ApplyEdgeDeltaCut(g, ins, del)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Build(ng)
			if err != nil {
				t.Fatal(err)
			}
			want := serialized(t, fresh)
			var next *Index
			for _, workers := range []int{1, 2} {
				rix, err := ix.ApplyDeltaContext(context.Background(), ng, cut, workers)
				if err != nil {
					t.Fatalf("batch %d workers %d: %v", bi, workers, err)
				}
				if !bytes.Equal(serialized(t, rix), want) {
					t.Fatalf("batch %d workers %d cut %d: repaired index differs from fresh build", bi, workers, cut)
				}
				for gamma := int32(1); gamma <= fresh.GammaMax(); gamma++ {
					assertSameTopK(t, rix, fresh, 1, gamma)
				}
				next = rix
			}
			g, ix = ng, next
		}
	})
}

// TestRoundTripAllQueries is the full property the acceptance criteria
// name: WriteTo → ReadFrom on generated graphs yields identical TopK
// answers for every valid (k, γ), including γ beyond γmax and k beyond the
// community count.
func TestRoundTripAllQueries(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := gen.Random(60+10*int(seed), 4+float64(seed)/2, seed)
		ix, err := Build(g)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		ix2, err := ReadFrom(bytes.NewReader(buf.Bytes()), g)
		if err != nil {
			t.Fatal(err)
		}
		for gamma := int32(1); gamma <= ix.GammaMax()+2; gamma++ {
			maxK := ix.CommunityCount(gamma) + 2
			for k := 1; k <= maxK; k++ {
				a, err := ix.TopK(k, gamma)
				if err != nil {
					t.Fatal(err)
				}
				b, err := ix2.TopK(k, gamma)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("seed %d γ=%d k=%d: %d vs %d communities", seed, gamma, k, len(a), len(b))
				}
				for i := range a {
					x := fmt.Sprintf("%v:%d:%v", a[i].Influence(), a[i].Keynode(), a[i].Vertices())
					y := fmt.Sprintf("%v:%d:%v", b[i].Influence(), b[i].Keynode(), b[i].Vertices())
					if x != y {
						t.Fatalf("seed %d γ=%d k=%d: community %d differs after round trip\n got %s\nwant %s", seed, gamma, k, i, y, x)
					}
				}
			}
		}
	}
}
