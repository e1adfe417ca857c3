package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"influcomm/internal/core"
	"influcomm/internal/gen"
	"influcomm/internal/graph"
	"influcomm/internal/semiext"
)

func writeEdgeFile(t testing.TB, g *graph.Graph) string {
	return writeEdgeFileFormat(t, g, semiext.FormatV1)
}

func writeEdgeFileFormat(t testing.TB, g *graph.Graph, format int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := semiext.WriteEdgeFileFormat(path, g, format); err != nil {
		t.Fatal(err)
	}
	return path
}

func renderResult(res *core.Result) string {
	s := fmt.Sprintf("rounds=%d prefix=%d size=%d work=%d comms=%d\n",
		res.Stats.Rounds, res.Stats.FinalPrefix, res.Stats.FinalSize,
		res.Stats.TotalWork, res.Stats.Communities)
	for _, c := range res.Communities {
		s += fmt.Sprintf("%v key=%d %v\n", c.Influence(), c.Keynode(), c.Vertices())
	}
	return s
}

// semiExtVariants is every semi-external serving configuration the
// equivalence tests must hold for: sequential and split v2 decodes.
func semiExtVariants() map[string][]OpenOption {
	return map[string][]OpenOption{
		"auto":    nil,
		"workers": {WithWorkers(4)},
	}
}

// TestBackendsAgree is the core contract: for the same graph, every
// semi-external serving mode over every edge-file format returns
// byte-identical results — communities AND access statistics — to the
// in-memory backend and to the plain core entry point, across semantics and
// tuning options.
func TestBackendsAgree(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g := gen.Random(200, 6, seed)
		ses := map[string]*SemiExt{}
		for _, format := range []int{semiext.FormatV1, semiext.FormatV2} {
			path := writeEdgeFileFormat(t, g, format)
			for name, opts := range semiExtVariants() {
				name = fmt.Sprintf("v%d/%s", format, name)
				se, err := OpenEdgeFile(path, opts...)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, name, err)
				}
				if se.NumVertices() != g.NumVertices() || se.NumEdges() != g.NumEdges() {
					t.Fatalf("seed %d %s: semiext shape (%d,%d), want (%d,%d)",
						seed, name, se.NumVertices(), se.NumEdges(), g.NumVertices(), g.NumEdges())
				}
				if se.Format() != format {
					t.Fatalf("seed %d %s: store reports format %d", seed, name, se.Format())
				}
				ses[name] = se
			}
		}
		mem, err := OpenMem(g)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		cases := []struct {
			name  string
			k     int
			gamma int32
			opts  core.Options
		}{
			{"default", 5, 3, core.Options{}},
			{"k1", 1, 2, core.Options{}},
			{"deep", 50, 2, core.Options{}},
			{"noncontainment", 5, 3, core.Options{NonContainment: true}},
			{"delta4", 5, 3, core.Options{Delta: 4}},
			{"arith", 5, 3, core.Options{ArithmeticGrowth: 64}},
		}
		for _, tc := range cases {
			want, err := core.TopKCtx(ctx, g, tc.k, tc.gamma, tc.opts)
			if err != nil {
				t.Fatalf("seed %d %s: core: %v", seed, tc.name, err)
			}
			ref := renderResult(want)
			gotMem, err := mem.TopK(ctx, tc.k, tc.gamma, tc.opts)
			if err != nil {
				t.Fatalf("seed %d %s: mem: %v", seed, tc.name, err)
			}
			if got := renderResult(gotMem); got != ref {
				t.Errorf("seed %d %s: memory backend differs from core\n got %s\nwant %s", seed, tc.name, got, ref)
			}
			for mode, se := range ses {
				gotSE, err := se.TopK(ctx, tc.k, tc.gamma, tc.opts)
				if err != nil {
					t.Fatalf("seed %d %s/%s: semiext: %v", seed, tc.name, mode, err)
				}
				if got := renderResult(gotSE); got != ref {
					t.Errorf("seed %d %s: semiext %s differs from core\n got %s\nwant %s", seed, tc.name, mode, got, ref)
				}
			}
		}
		for _, se := range ses {
			se.Close()
		}
	}
}

// TestParallelServeAgrees is the large-graph half of the backend contract:
// on a graph big enough to engage the chunked v2 decode, every (format,
// workers) combination must still be byte-identical to the
// in-memory backend. Run under -race -cpu 1,4,8 this is the end-to-end
// determinism proof for the decode split.
func TestParallelServeAgrees(t *testing.T) {
	g, err := gen.PlantedCommunities(40, 120, 0.4, 2, 19)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := OpenMem(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		k     int
		gamma int32
	}{{1, 3}, {10, 4}, {200, 2}}
	refs := make([]string, len(cases))
	for i, tc := range cases {
		want, err := mem.TopK(ctx, tc.k, tc.gamma, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = renderResult(want)
	}
	for _, format := range []int{semiext.FormatV1, semiext.FormatV2} {
		path := writeEdgeFileFormat(t, g, format)
		variants := map[string][]OpenOption{
			"seq":      nil,
			"workers2": {WithWorkers(2)},
			"workers8": {WithWorkers(8)},
		}
		for name, opts := range variants {
			se, err := OpenEdgeFile(path, opts...)
			if err != nil {
				t.Fatalf("v%d/%s: %v", format, name, err)
			}
			for i, tc := range cases {
				// Twice per case: the second run reuses pooled scratch.
				for run := 0; run < 2; run++ {
					res, err := se.TopK(ctx, tc.k, tc.gamma, core.Options{})
					if err != nil {
						t.Fatalf("v%d/%s k=%d γ=%d: %v", format, name, tc.k, tc.gamma, err)
					}
					if got := renderResult(res); got != refs[i] {
						t.Errorf("v%d/%s k=%d γ=%d run %d: differs from in-memory backend",
							format, name, tc.k, tc.gamma, run)
					}
				}
			}
			se.Close()
		}
	}
}

// TestSemiExtMixedDepthConcurrent hammers one store from many goroutines
// with queries of different depth: pooled sources carry decode and CSR
// scratch from one query to the next, so a deep query's scratch must
// never leak into a shallow one's answer, or race with it under -race.
func TestSemiExtMixedDepthConcurrent(t *testing.T) {
	g := gen.Random(400, 6, 23)
	se, err := OpenEdgeFile(writeEdgeFile(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	ks := []int{1, 3, 10, 40, 120, 400}
	refs := make([]string, len(ks))
	for i, k := range ks {
		want, err := core.TopK(g, k, 3, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = renderResult(want)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2*len(ks); i++ {
				j := (w + i) % len(ks)
				res, err := se.TopK(context.Background(), ks[j], 3, core.Options{})
				if err != nil {
					errs <- err
					return
				}
				if got := renderResult(res); got != refs[j] {
					errs <- fmt.Errorf("k=%d diverged under concurrent mixed-depth queries", ks[j])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSemiExtStreamParallel streams from 8 goroutines at once over one
// semi-external store per edge-file format, with mixed γ, limits and
// semantics. Each stream runs LocalSearch-P on a pooled source whose
// decode and CSR scratch the next query reuses, and must equal the
// in-memory stream of the same graph: every community, and the Stats.
// The determinism job runs it under -race across GOMAXPROCS.
func TestSemiExtStreamParallel(t *testing.T) {
	g := gen.Random(400, 6, 31)
	mem, err := OpenMem(g)
	if err != nil {
		t.Fatal(err)
	}
	type streamCase struct {
		gamma int32
		limit int
		opts  core.Options
	}
	var cases []streamCase
	for _, gamma := range []int32{2, 3, 4} {
		for _, limit := range []int{1, 5, 40, 1000} {
			cases = append(cases,
				streamCase{gamma, limit, core.Options{}},
				streamCase{gamma, limit, core.Options{NonContainment: true}})
		}
	}
	stream := func(st Store, sc streamCase) (string, error) {
		search, _ := st.Pin()
		var b strings.Builder
		n := 0
		stats, err := search.Stream(context.Background(), sc.gamma, sc.opts, func(c *core.Community) bool {
			fmt.Fprintf(&b, "%v key=%d %v\n", c.Influence(), c.Keynode(), c.Vertices())
			n++
			return n < sc.limit
		})
		fmt.Fprintf(&b, "%+v\n", stats)
		return b.String(), err
	}
	refs := make([]string, len(cases))
	for i, sc := range cases {
		if refs[i], err = stream(mem, sc); err != nil {
			t.Fatal(err)
		}
	}
	for _, format := range []int{semiext.FormatV1, semiext.FormatV2} {
		se, err := OpenEdgeFile(writeEdgeFileFormat(t, g, format))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range cases {
					j := (w*5 + i) % len(cases)
					got, err := stream(se, cases[j])
					if err != nil {
						errs <- err
						return
					}
					if got != refs[j] {
						errs <- fmt.Errorf("v%d %+v: semi-external stream differs from memory\n got %s\nwant %s", format, cases[j], got, refs[j])
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		se.Close()
	}
}

// TestSemiExtCloseWaitsForQueries closes the store while queries hold
// references: the mapping must stay alive until they drain (a use-after-
// munmap would crash or corrupt under -race).
func TestSemiExtCloseWaitsForQueries(t *testing.T) {
	g := gen.Random(400, 6, 29)
	se, err := OpenEdgeFile(writeEdgeFile(t, g))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.TopK(g, 5, 3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := renderResult(want)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := se.TopK(context.Background(), 5, 3, core.Options{})
			if err != nil {
				// A query admitted after Close fails cleanly; that is fine.
				return
			}
			if got := renderResult(res); got != ref {
				errs <- fmt.Errorf("query during close diverged:\n got %s\nwant %s", got, ref)
			}
		}()
	}
	se.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := se.TopK(context.Background(), 5, 3, core.Options{}); err == nil {
		t.Error("query on closed store: want error")
	}
}

func TestSemiExtConcurrentQueries(t *testing.T) {
	g := gen.Random(300, 6, 11)
	se, err := OpenEdgeFile(writeEdgeFile(t, g))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.TopK(g, 5, 3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := renderResult(want)
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			res, err := se.TopK(context.Background(), 5, 3, core.Options{})
			if err != nil {
				errs <- err
				return
			}
			if got := renderResult(res); got != ref {
				errs <- fmt.Errorf("concurrent query diverged:\n got %s\nwant %s", got, ref)
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestSemiExtClosed(t *testing.T) {
	g := gen.Random(50, 4, 2)
	se, err := OpenEdgeFile(writeEdgeFile(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := se.TopK(context.Background(), 3, 2, core.Options{}); err == nil {
		t.Error("query on closed store: want error")
	}
}

func TestSemiExtCancellation(t *testing.T) {
	g := gen.Random(400, 6, 3)
	se, err := OpenEdgeFile(writeEdgeFile(t, g))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := se.TopK(ctx, 5, 3, core.Options{}); err != context.Canceled {
		t.Errorf("cancelled query returned %v, want context.Canceled", err)
	}
}

func TestOpenByBackend(t *testing.T) {
	g := gen.Random(60, 4, 7)
	dir := t.TempDir()

	txt := filepath.Join(dir, "g.txt")
	f, err := os.Create(txt)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteText(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	edges := filepath.Join(dir, "g.edges")
	if err := semiext.WriteEdgeFile(edges, g); err != nil {
		t.Fatal(err)
	}

	memSt, err := Open(txt, "memory")
	if err != nil {
		t.Fatal(err)
	}
	if memSt.Backend() != "memory" || memSt.Graph() == nil {
		t.Errorf("memory store: backend=%q graph=%v", memSt.Backend(), memSt.Graph())
	}
	seSt, err := Open(edges, "semiext")
	if err != nil {
		t.Fatal(err)
	}
	if seSt.Backend() != "semiext" || seSt.Graph() != nil {
		t.Errorf("semiext store: backend=%q graph non-nil=%v", seSt.Backend(), seSt.Graph() != nil)
	}
	if memSt.NumVertices() != seSt.NumVertices() || memSt.NumEdges() != seSt.NumEdges() {
		t.Errorf("shape mismatch: memory (%d,%d) vs semiext (%d,%d)",
			memSt.NumVertices(), memSt.NumEdges(), seSt.NumVertices(), seSt.NumEdges())
	}
	if _, err := Open(txt, "bogus"); err == nil {
		t.Error("unknown backend: want error")
	}
	if _, err := Open(filepath.Join(dir, "missing"), "memory"); err == nil {
		t.Error("missing file: want error")
	}
}

// BenchmarkSemiExtServe compares the semi-external serve path against the
// in-memory pooled path for the same query; the perf-regression gate
// tracks both series, including allocs/op:
//
//	Mmap   — shared zero-copy view, prefix rebuilt per query
//	Memory — the fully in-memory backend (the target to approach)
func BenchmarkSemiExtServe(b *testing.B) {
	g := gen.Random(20000, 8, 42)
	path := writeEdgeFile(b, g)
	mem, err := OpenMem(g)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	bench := func(name string, st Store) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.TopK(ctx, 10, 4, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	mm, err := OpenEdgeFile(path)
	if err != nil {
		b.Fatal(err)
	}
	bench("Mmap", mm)
	bench("Memory", mem)
}

// benchPlanted returns the clustered serving workload the compression
// benchmark runs on: a planted-community graph whose weight-banded rank
// locality is the structure the v2 delta+varint layout compresses (~3x;
// uniformly random graphs compress far less and are the wrong benchmark
// for it).
func benchPlanted(b *testing.B) *graph.Graph {
	g, err := gen.PlantedCommunities(48, 160, 0.4, 2, 42)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkCompressedServe compares serving the flat (v1) and compressed
// (v2) edge-file layouts through the shared view: the same query against
// the same graph, differing only in how the adjacency bytes decode. The
// v2 rows buy the ~3x smaller file with the block-parallel SWAR varint
// decode; ServedBytes reports each layout's on-disk size.
func BenchmarkCompressedServe(b *testing.B) {
	g := benchPlanted(b)
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		format int
	}{
		{"V1", semiext.FormatV1},
		{"V2", semiext.FormatV2},
	} {
		path := writeEdgeFileFormat(b, g, c.format)
		st, err := OpenEdgeFile(path)
		if err != nil {
			b.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(info.Size()), "file-bytes")
			for i := 0; i < b.N; i++ {
				if _, err := st.TopK(ctx, 200, 2, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		st.Close()
	}
}
