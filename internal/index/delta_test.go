package index

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"influcomm/internal/gen"
	"influcomm/internal/graph"
	"influcomm/internal/pagerank"
)

// serialized returns the on-disk form of ix: the byte-identity yardstick
// the delta-repair property tests compare against a fresh build.
func serialized(t testing.TB, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertSameTopK fails unless got answers TopK(k, γ) with the communities
// want answers it with: the same keynodes, sizes and groups, in order.
func assertSameTopK(t testing.TB, got, want *Index, k int, gamma int32) {
	t.Helper()
	a, err := got.TopK(k, gamma)
	if err != nil {
		t.Fatal(err)
	}
	b, err := want.TopK(k, gamma)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("TopK(%d, γ=%d): %d communities, want %d", k, gamma, len(a), len(b))
	}
	for i := range a {
		if a[i].Keynode() != b[i].Keynode() || a[i].Size() != b[i].Size() || !slices.Equal(a[i].Group(), b[i].Group()) {
			t.Fatalf("TopK(%d, γ=%d): community %d has keynode %d, size %d, group %v; want %d, %d, %v",
				k, gamma, i, a[i].Keynode(), a[i].Size(), a[i].Group(), b[i].Keynode(), b[i].Size(), b[i].Group())
		}
	}
}

// randomToggleBatch picks edges among ranks [lo, n) and splits them into
// inserts (currently absent) and deletes (currently present), disjoint and
// duplicate-free — the shape ApplyEdgeDelta requires.
func randomToggleBatch(g *graph.Graph, rng *rand.Rand, lo, size int) (inserts, deletes [][2]int32) {
	n := g.NumVertices()
	seen := map[[2]int32]bool{}
	for len(seen) < size {
		u := int32(lo + rng.Intn(n-lo))
		v := int32(lo + rng.Intn(n-lo))
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

// TestReindexDeltaRepairMatchesFreshBuild is the repair's core property:
// across chained random update batches, the repaired index — at several
// worker counts — serializes byte-identically to a fresh Build on the
// post-update graph. Batches drawn over the full rank range exercise
// arbitrary cuts, including cut 0 (nothing splices, everything recomputes)
// and high cuts (almost everything splices); γmax drifts both ways as
// edges toggle. The repaired index must also answer TopK like the fresh
// one, at k = 1 and at k = CommunityCount(γ), for every γ.
func TestReindexDeltaRepairMatchesFreshBuild(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := gen.Random(120, 8, seed)
		ix, err := Build(g)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 6; round++ {
			// Alternate whole-range batches with batches confined to the
			// high-rank half, where the splice carries most of the index.
			lo := 0
			if round%2 == 1 {
				lo = g.NumVertices() / 2
			}
			ins, del := randomToggleBatch(g, rng, lo, 1+rng.Intn(8))
			ng, cut, err := graph.ApplyEdgeDeltaCut(g, ins, del)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Build(ng)
			if err != nil {
				t.Fatal(err)
			}
			want := serialized(t, fresh)
			var repaired *Index
			for _, workers := range []int{1, 0, 4} {
				rix, err := ix.ApplyDeltaContext(ctx, ng, cut, workers)
				if err != nil {
					t.Fatalf("seed %d round %d workers %d: %v", seed, round, workers, err)
				}
				if got := serialized(t, rix); !bytes.Equal(got, want) {
					t.Fatalf("seed %d round %d workers %d cut %d: repaired index differs from fresh build", seed, round, workers, cut)
				}
				for gamma := int32(1); gamma <= fresh.GammaMax(); gamma++ {
					assertSameTopK(t, rix, fresh, 1, gamma)
					assertSameTopK(t, rix, fresh, fresh.CommunityCount(gamma), gamma)
				}
				repaired = rix
			}
			// Chain: the next round repairs the repaired index, so drift
			// would compound and surface.
			g, ix = ng, repaired
		}
	}
}

// TestReindexDeltaRepairTargeted pins the analytically interesting cuts:
// an edge at rank 0 forces a full recompute; a change confined to the two
// highest ranks splices all but the last groups; γmax growth and shrink
// must add and drop γ slots exactly as a fresh build does, whether γmax
// grows past the old γmax + 1 (the upward probe), falls to 0 (every
// repaired slot trimmed), or grows from an index with no decomposition.
// Every row runs at workers 1, 0 and 4.
func TestReindexDeltaRepairTargeted(t *testing.T) {
	g := gen.Random(80, 6, 3)
	ix, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	n := int32(g.NumVertices())

	check := func(name string, ins, del [][2]int32) (*graph.Graph, *Index) {
		t.Helper()
		ng, cut, err := graph.ApplyEdgeDeltaCut(g, ins, del)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh, err := Build(ng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := serialized(t, fresh)
		var rix *Index
		for _, workers := range []int{1, 0, 4} {
			rix, err = ix.ApplyDeltaContext(context.Background(), ng, cut, workers)
			if err != nil {
				t.Fatalf("%s workers %d: %v", name, workers, err)
			}
			if !bytes.Equal(serialized(t, rix), want) {
				t.Fatalf("%s workers %d: repaired index differs from fresh build (cut %d)", name, workers, cut)
			}
		}
		return ng, rix
	}

	// Touch rank 0: cut is 0, the head is the entire decomposition.
	var e0 [2]int32
	if g.HasEdge(0, n-1) {
		e0 = [2]int32{0, n - 1}
		check("rank0-delete", nil, [][2]int32{e0})
	} else {
		e0 = [2]int32{0, n - 1}
		check("rank0-insert", [][2]int32{e0}, nil)
	}

	// Touch only the two lowest-weight vertices: maximal splice.
	hi := [2]int32{n - 2, n - 1}
	if g.HasEdge(hi[0], hi[1]) {
		check("highrank-delete", nil, [][2]int32{hi})
	} else {
		check("highrank-insert", [][2]int32{hi}, nil)
	}

	// Grow γmax: complete a clique over the 8 highest ranks, then tear it
	// down again to shrink it. Both directions must track a fresh build's
	// γ slot count.
	var cliqueIns [][2]int32
	for u := n - 8; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				cliqueIns = append(cliqueIns, [2]int32{u, v})
			}
		}
	}
	ng, rix := check("gammamax-grow", cliqueIns, nil)
	if rix.GammaMax() <= ix.GammaMax() {
		t.Fatalf("clique insert did not grow γmax (%d -> %d)", ix.GammaMax(), rix.GammaMax())
	}
	g, ix = ng, rix
	var cliqueDel [][2]int32
	for u := n - 8; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if g.HasEdge(u, v) {
				cliqueDel = append(cliqueDel, [2]int32{u, v})
			}
		}
	}
	_, rix = check("gammamax-shrink", nil, cliqueDel)
	if rix.GammaMax() >= ix.GammaMax() {
		t.Fatalf("clique delete did not shrink γmax (%d -> %d)", ix.GammaMax(), rix.GammaMax())
	}

	// Delete every edge: every core empties, so γmax falls to 0 and each
	// slot the pool repaired is trimmed.
	var every [][2]int32
	for u := int32(0); u < n; u++ {
		for _, v := range g.UpNeighbors(u) {
			every = append(every, [2]int32{v, u})
		}
	}
	if _, rix = check("delete-every-edge", nil, every); rix.GammaMax() != 0 {
		t.Fatalf("deleting every edge left γmax %d, want 0", rix.GammaMax())
	}

	// An index over a graph with no edges has no decomposition (γmax 0);
	// a triangle among its lightest vertices must bring γmax to 2.
	g = gen.Random(30, 0, 1)
	if ix, err = Build(g); err != nil {
		t.Fatal(err)
	}
	if ix.GammaMax() != 0 {
		t.Fatalf("edgeless graph: γmax %d, want 0", ix.GammaMax())
	}
	if _, rix = check("edgeless-triangle", [][2]int32{{27, 28}, {27, 29}, {28, 29}}, nil); rix.GammaMax() != 2 {
		t.Fatalf("triangle on an edgeless graph: γmax %d, want 2", rix.GammaMax())
	}
}

// TestReindexDeltaRepairEmptyDelta covers cut == n: the repaired index
// rebinds the existing decompositions to the new (content-identical)
// graph without recomputing anything.
func TestReindexDeltaRepairEmptyDelta(t *testing.T) {
	g := gen.Random(60, 5, 9)
	ix, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	ng, cut, err := graph.ApplyEdgeDeltaCut(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ng != g || cut != g.NumVertices() {
		t.Fatalf("empty delta: got graph %p cut %d, want %p cut %d", ng, cut, g, g.NumVertices())
	}
	rix, err := ix.ApplyDelta(ng, cut)
	if err != nil {
		t.Fatal(err)
	}
	if rix.Graph() != ng {
		t.Error("empty delta repair did not rebind the graph")
	}
	if !bytes.Equal(serialized(t, rix), serialized(t, ix)) {
		t.Error("empty delta repair changed the index content")
	}
}

func TestReindexDeltaRepairErrors(t *testing.T) {
	g := gen.Random(50, 4, 11)
	ix, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApplyDelta(nil, 0); err == nil {
		t.Error("nil graph: want error")
	}
	if _, err := (&Index{}).ApplyDeltaContext(context.Background(), gen.Random(50, 4, 1), 0, 1); err == nil {
		t.Error("index without a graph: want error")
	}
	other := gen.Random(49, 4, 11)
	if _, err := ix.ApplyDelta(other, 0); err == nil {
		t.Error("vertex-count mismatch: want error")
	}
	if _, err := ix.ApplyDelta(g, -1); err == nil {
		t.Error("negative cut: want error")
	}
	if _, err := ix.ApplyDelta(g, g.NumVertices()+1); err == nil {
		t.Error("oversized cut: want error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.ApplyDeltaContext(ctx, g, 0, 2); err == nil {
		t.Error("cancelled context: want error")
	}
}

// lightDelta draws a churn-shaped light batch: size inserts of absent
// edges and size deletes of present ones, every endpoint among the
// lowest-weight fifth of the ranks, which puts the cut near 0.8 n.
func lightDelta(g *graph.Graph, rng *rand.Rand, size int) (inserts, deletes [][2]int32) {
	n := g.NumVertices()
	lo := n - n/5
	seen := map[[2]int32]bool{}
	for len(inserts) < size || len(deletes) < size {
		u := int32(lo + rng.Intn(n-lo))
		v := int32(lo + rng.Intn(n-lo))
		if len(inserts) == size {
			// Deletes need present edges, which random pairs rarely
			// are: take a light neighbour of u instead.
			row := g.Neighbors(u)
			if len(row) == 0 {
				continue
			}
			v = row[rng.Intn(len(row))]
		}
		if u == v || int(v) < lo {
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
			if len(deletes) < size {
				deletes = append(deletes, e)
			}
		} else if len(inserts) < size {
			inserts = append(inserts, e)
		}
	}
	return inserts, deletes
}

// BenchmarkDeltaRepair measures one light update batch (16 inserts and 16
// deletes among the lowest-weight fifth of the ranks) on a 36k-vertex
// Holme–Kim graph under PageRank weights, the shape and size of the
// largest shard a churn workload repairs: the repair at one worker and
// at the automatic worker count, against the rebuild it replaces.
func BenchmarkDeltaRepair(b *testing.B) {
	sn, err := gen.SocialNetwork(36000, 16, 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := pagerank.Reweight(sn, pagerank.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(g)
	if err != nil {
		b.Fatal(err)
	}
	ins, del := lightDelta(g, rand.New(rand.NewSource(1)), 16)
	ng, cut, err := graph.ApplyEdgeDeltaCut(g, ins, del)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		run  func() (*Index, error)
	}{
		{"workers=1", func() (*Index, error) { return ix.ApplyDeltaContext(ctx, ng, cut, 1) }},
		{"workers=0", func() (*Index, error) { return ix.ApplyDeltaContext(ctx, ng, cut, 0) }},
		{"rebuild", func() (*Index, error) { return BuildContext(ctx, ng, 0) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
