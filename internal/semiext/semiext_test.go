package semiext

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"influcomm/internal/core"
	"influcomm/internal/gen"
	"influcomm/internal/graph"
)

func writeTemp(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.edges")
	if err := WriteEdgeFile(path, g); err != nil {
		t.Fatalf("writing edge file: %v", err)
	}
	return path
}

func TestEdgeFileRoundTrip(t *testing.T) {
	g := gen.Random(100, 6, 5)
	path := writeTemp(t, g)
	v, err := OpenView(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer v.Close()
	if v.Format() != FormatV1 || v.NumVertices() != g.NumVertices() || v.NumEdges() != g.NumEdges() {
		t.Fatalf("header v%d (%d,%d), want v%d (%d,%d)", v.Format(), v.NumVertices(), v.NumEdges(),
			FormatV1, g.NumVertices(), g.NumEdges())
	}
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		if v.Weights()[u] != g.Weight(u) {
			t.Fatalf("weight of %d = %v, want %v", u, v.Weights()[u], g.Weight(u))
		}
		if v.UpDegrees()[u] != g.UpDegree(u) {
			t.Fatalf("updeg of %d = %d, want %d", u, v.UpDegrees()[u], g.UpDegree(u))
		}
	}
	want := flatUpAdj(g)
	got, err := v.AdjPrefix(v.NumVertices(), v.NumEdges(), 1, nil)
	if err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("adjacency differs at entry %d", i)
		}
	}
	// Sub-range reads agree with the full read.
	lo, hi := v.NumEdges()/4, 3*v.NumEdges()/4
	sub, err := v.Adj(lo, hi, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sub {
		if sub[i] != want[lo+int64(i)] {
			t.Fatalf("sub-range read differs at %d", i)
		}
	}
	if v.payloadSpan(v.NumVertices()) != 4*g.NumEdges() {
		t.Fatalf("payload span = %d, want %d", v.payloadSpan(v.NumVertices()), 4*g.NumEdges())
	}
	// Rebuild and compare structure.
	rebuilt, err := v.Graph(1)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if err := rebuilt.Validate(); err != nil {
		t.Fatalf("rebuilt graph invalid: %v", err)
	}
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		if rebuilt.Degree(u) != g.Degree(u) {
			t.Fatalf("degree of %d = %d, want %d", u, rebuilt.Degree(u), g.Degree(u))
		}
	}
}

func TestLocalSearchSEMatchesInMemory(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := gen.Random(150, 6, seed)
		path := writeTemp(t, g)
		for _, gamma := range []int32{2, 3} {
			for _, k := range []int{1, 3, 8} {
				want, err := core.TopK(g, k, gamma, core.Options{})
				if err != nil {
					t.Fatalf("in-memory: %v", err)
				}
				got, st, err := LocalSearchSE(path, k, gamma)
				if err != nil {
					t.Fatalf("LocalSearchSE: %v", err)
				}
				if len(got) != len(want.Communities) {
					t.Fatalf("seed %d k=%d γ=%d: got %d communities, want %d",
						seed, k, gamma, len(got), len(want.Communities))
				}
				for i := range got {
					a := fmt.Sprintf("%d:%v", got[i].Keynode(), got[i].Vertices())
					b := fmt.Sprintf("%d:%v", want.Communities[i].Keynode(), want.Communities[i].Vertices())
					if a != b {
						t.Fatalf("seed %d k=%d γ=%d: community %d differs\n got %s\nwant %s", seed, k, gamma, i, a, b)
					}
				}
				if st.EdgesLoaded > g.NumEdges() {
					t.Errorf("loaded %d edges, graph has %d", st.EdgesLoaded, g.NumEdges())
				}
			}
		}
	}
}

func TestOnlineAllSEMatchesInMemory(t *testing.T) {
	g := gen.Random(120, 5, 9)
	path := writeTemp(t, g)
	got, st, err := OnlineAllSE(path, 5, 2)
	if err != nil {
		t.Fatalf("OnlineAllSE: %v", err)
	}
	want := core.NaiveTopK(g, 5, 2)
	if len(got) != len(want) {
		t.Fatalf("got %d communities, want %d", len(got), len(want))
	}
	for i := range want {
		a := fmt.Sprintf("%d:%v", got[i].Keynode, got[i].Vertices)
		b := fmt.Sprintf("%d:%v", want[i].Keynode, want[i].Vertices)
		if a != b {
			t.Fatalf("community %d differs\n got %s\nwant %s", i, a, b)
		}
	}
	if st.VisitedFraction != 1 {
		t.Errorf("OnlineAllSE visited fraction = %v, want 1", st.VisitedFraction)
	}
	if st.BytesRead != 4*g.NumEdges() {
		t.Errorf("OnlineAllSE read %d bytes, want %d", st.BytesRead, 4*g.NumEdges())
	}
}

func TestLocalSearchSEReadsLess(t *testing.T) {
	// On a graph whose top communities live among the highest weights, the
	// local algorithm must read strictly less of the file than a full scan.
	g, err := gen.PlantedCommunities(20, 15, 0.8, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := writeTemp(t, g)
	_, st, err := LocalSearchSE(path, 2, 4)
	if err != nil {
		t.Fatalf("LocalSearchSE: %v", err)
	}
	if st.BytesRead >= 4*g.NumEdges() {
		t.Errorf("local search read the whole file: %d of %d bytes", st.BytesRead, 4*g.NumEdges())
	}
	if st.VisitedFraction >= 1 {
		t.Errorf("visited fraction = %v, want < 1", st.VisitedFraction)
	}
}

func TestEdgeFileProperty(t *testing.T) {
	// Arbitrary random graphs round-trip through the edge file, any prefix
	// of the file reconstructs exactly the prefix subgraph, and the View's
	// resident size vector answers the same growth geometry as the graph.
	for seed := uint64(1); seed <= 10; seed++ {
		g := gen.Random(40+int(seed*13)%80, 5, seed)
		v, err := OpenView(writeTemp(t, g))
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices()
		for p := 0; p <= n; p++ {
			if v.PrefixSize(p) != g.PrefixSize(p) {
				t.Fatalf("seed %d: PrefixSize(%d) = %d, want %d", seed, p, v.PrefixSize(p), g.PrefixSize(p))
			}
		}
		for want := int64(-1); want <= g.PrefixSize(n)+1; want++ {
			if v.PrefixForSize(want) != g.PrefixForSize(want) {
				t.Fatalf("seed %d: PrefixForSize(%d) = %d, want %d", seed, want, v.PrefixForSize(want), g.PrefixForSize(want))
			}
		}
		p := n / 2
		prefix, err := (&Source{View: v, Workers: 1}).Materialize(p)
		if err != nil {
			t.Fatal(err)
		}
		if prefix.NumEdges() != g.PrefixEdges(p) {
			t.Fatalf("seed %d: prefix %d has %d edges, want %d",
				seed, p, prefix.NumEdges(), g.PrefixEdges(p))
		}
		for u := int32(0); int(u) < p; u++ {
			if prefix.DegreeWithin(u, p) != g.DegreeWithin(u, p) {
				t.Fatalf("seed %d: prefix degree of %d differs", seed, u)
			}
		}
		v.Close()
	}
}

func TestReaderRejectsTruncatedFile(t *testing.T) {
	g := gen.Random(50, 5, 2)
	path := writeTemp(t, g)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(t.TempDir(), "short.edges")
	if err := os.WriteFile(short, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenView(short); err == nil {
		t.Error("truncated edge file: want error at open (size check)")
	}
}

func TestWriteEdgeFileAtomic(t *testing.T) {
	g := gen.Random(60, 4, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.edges")
	// Two writes to the same path: the second must replace the first via
	// rename, leaving no temporary siblings behind.
	for i := 0; i < 2; i++ {
		if err := WriteEdgeFile(path, g); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "g.edges" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only g.edges (temp files must not leak)", names)
	}
	v, err := OpenView(path)
	if err != nil {
		t.Fatalf("rewritten file unreadable: %v", err)
	}
	v.Close()
}

func TestReaderRejectsInconsistentDegrees(t *testing.T) {
	g := gen.Random(50, 5, 4)
	path := writeTemp(t, g)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()

	// Vertex 0 cannot have up-neighbors; claiming one must be rejected.
	impossible := append([]byte(nil), data...)
	impossible[20+8*n] = 1
	bad := filepath.Join(t.TempDir(), "impossible.edges")
	if err := os.WriteFile(bad, impossible, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenView(bad); err == nil {
		t.Error("up-degree exceeding rank: want error at open")
	}

	// Zeroing a late vertex's degree breaks the sum-vs-header cross-check
	// without changing the file size.
	mismatch := append([]byte(nil), data...)
	for u := n - 1; u > 0; u-- {
		off := 20 + 8*n + 4*u
		if mismatch[off] != 0 {
			mismatch[off] = 0
			break
		}
	}
	bad2 := filepath.Join(t.TempDir(), "mismatch.edges")
	if err := os.WriteFile(bad2, mismatch, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenView(bad2); err == nil {
		t.Error("degree sum != header edge count: want error at open")
	}
}

func TestOpenViewErrors(t *testing.T) {
	if _, err := OpenView(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file: want error")
	}
	bad := filepath.Join(t.TempDir(), "bad")
	if err := os.WriteFile(bad, []byte("not an edge file at all........"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenView(bad); err == nil {
		t.Error("corrupt file: want error")
	}
}

func TestQueryValidationSE(t *testing.T) {
	g := gen.Random(20, 3, 1)
	path := writeTemp(t, g)
	if _, _, err := LocalSearchSE(path, 0, 3); err == nil {
		t.Error("k=0: want error")
	}
	if _, _, err := OnlineAllSE(path, 1, 0); err == nil {
		t.Error("gamma=0: want error")
	}
}
