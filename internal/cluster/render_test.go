package cluster_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"influcomm/internal/cluster"
	"influcomm/internal/core"
	"influcomm/internal/gen"
	"influcomm/internal/graph"
	"influcomm/internal/index"
	"influcomm/internal/query"
	"influcomm/internal/truss"
)

// FuzzAppendCommunity holds the hand-written appender to encoding/json:
// for any finite influence, keynode, size, members (none gives null) and
// labels — HTML characters, control bytes, U+2028/U+2029 and invalid UTF-8
// included — AppendCommunity writes exactly json.Marshal's bytes.
func FuzzAppendCommunity(f *testing.F) {
	f.Add(math.Float64bits(12.5), int32(7), int64(2), []byte{1, 0, 0, 0, 2, 0, 0, 0}, "alice<bob>&carol", uint8(2))
	f.Add(math.Float64bits(1e-7), int32(-1), int64(0), []byte{}, "", uint8(0))
	f.Add(math.Float64bits(1e21), int32(0), int64(-3), []byte{0xff, 0xff, 0xff, 0xff}, "line\u2028sep\u2029end", uint8(1))
	f.Add(math.Float64bits(5e-324), int32(math.MaxInt32), int64(1), []byte{0, 0, 0, 0x80}, "\xff\xfebad\x80utf8", uint8(3))
	f.Add(math.Float64bits(math.Copysign(0, -1)), int32(math.MinInt32), int64(9), []byte{9}, "\b\f\n\r\t\x00\x1f\"\\\x7f", uint8(0x81))
	f.Add(math.Float64bits(-123456.789e-9), int32(3), int64(1<<40), []byte{3, 0, 0, 0}, "日本語 é <script>", uint8(4))
	f.Fuzz(func(t *testing.T, bits uint64, keynode int32, size int64, rawMembers []byte, rawLabels string, shape uint8) {
		influence := math.Float64frombits(bits)
		if math.IsNaN(influence) || math.IsInf(influence, 0) {
			t.Skip("encoding/json rejects non-finite numbers; influences are finite")
		}
		c := cluster.Community{Influence: influence, Size: int(size), Keynode: keynode}
		for i := 0; i+4 <= len(rawMembers); i += 4 {
			c.Members = append(c.Members, int32(binary.LittleEndian.Uint32(rawMembers[i:])))
		}
		if c.Members == nil && shape&0x80 != 0 {
			c.Members = []int32{} // an empty, non-nil list encodes as []
		}
		// Cut the label text into up to 7 labels at byte offsets, which may
		// split a UTF-8 sequence.
		if n := int(shape % 8); n > 0 {
			for i := 0; i < n; i++ {
				c.Labels = append(c.Labels, rawLabels[i*len(rawLabels)/n:(i+1)*len(rawLabels)/n])
			}
		}
		want, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := cluster.AppendCommunity(nil, &c); !bytes.Equal(got, want) {
			t.Fatalf("AppendCommunity\n got %s\nwant %s", got, want)
		}
		ws, _ := json.Marshal(rawLabels)
		if got := cluster.AppendString([]byte("x"), rawLabels); !bytes.Equal(got[1:], ws) {
			t.Fatalf("AppendString(%q)\n got %s\nwant %s", rawLabels, got[1:], ws)
		}
	})
}

// labelledGraph is a seeded random graph whose original IDs differ from
// its weight ranks and whose labels need JSON escaping.
func labelledGraph(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	labels := []string{"ada", "<b>", "x&y", "line\u2028break", "bad\xffutf8", "q\"uote", "ada lovelace"}
	r := gen.NewRNG(seed)
	var b graph.Builder
	for i := 0; i < n; i++ {
		id := int32((i*7919 + 13) % n) // a permutation: IDs are not ranks
		b.AddLabeledVertex(id, r.Float64(), labels[i%len(labels)])
	}
	for i := 0; i < 4*n; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// filterPipelines are statement filters the renderer must apply before
// rendering exactly as ApplyDSLFilters applies them after.
var filterPipelines = []string{
	"",
	"| limit(0)",
	"| limit(2)",
	"| size(>=4)",
	"| size(<=3) | limit(1)",
	"| limit(1) | size(>100)",
	"| influence(>0.5)",
	`| label("*")`,
	`| label("ada*")`,
	`| label("<b>") | limit(2)`,
	`| label("nobody")`,
}

func parseFilters(t testing.TB, pipeline string) []query.Filter {
	t.Helper()
	q, err := query.Parse("topk(k=1) " + pipeline)
	if err != nil {
		t.Fatal(err)
	}
	return q.Statements[0].Filters
}

// reference renders comms the way the serving surfaces did before the
// forest renderer: Render over Vertices, then ApplyDSLFilters.
func reference(g *graph.Graph, comms []*core.Community, fs []query.Filter) []cluster.Community {
	var flat []cluster.Community
	for _, c := range comms {
		flat = append(flat, cluster.Render(g, c.Influence(), c.Keynode(), c.Vertices()))
	}
	return cluster.ApplyDSLFilters(fs, flat)
}

// checkAnswer asserts that an Answer over comms renders, under every
// filter pipeline, the reference's JSON bytes and Go values.
func checkAnswer(t *testing.T, what string, g *graph.Graph, comms []*core.Community) {
	t.Helper()
	a := cluster.NewAnswer(g)
	for _, c := range comms {
		a.Add(c)
	}
	for _, p := range filterPipelines {
		fs := parseFilters(t, p)
		ref := reference(g, comms, fs)
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.AppendJSON(nil, fs); !bytes.Equal(got, want) {
			t.Fatalf("%s %q: AppendJSON\n got %s\nwant %s", what, p, got, want)
		}
		if got := a.Communities(fs); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s %q: Communities\n got %+v\nwant %+v", what, p, got, ref)
		}
	}
}

// TestAnswerRendersLikeRender renders every kind of answer — core and
// non-containment LocalSearch, the index, truss — from its forest, with
// labels and original IDs and with weight ranks, under every filter
// pipeline, and as stream lines: the bytes must equal encoding/json's
// over Render.
func TestAnswerRendersLikeRender(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{1, 2, 3} {
		g := labelledGraph(t, 80, seed)
		ix, err := index.Build(g)
		if err != nil {
			t.Fatal(err)
		}
		tix := truss.NewIndex(g)
		for _, gamma := range []int32{1, 2, 3, 5, 40} {
			for _, k := range []int{1, 4, 60} {
				for _, rg := range []*graph.Graph{g, nil} {
					what := fmt.Sprintf("seed %d γ=%d k=%d ranks=%v", seed, gamma, k, rg == nil)
					for _, nc := range []bool{false, true} {
						res, err := core.TopK(g, k, gamma, core.Options{NonContainment: nc})
						if err != nil {
							t.Fatal(err)
						}
						checkAnswer(t, fmt.Sprintf("%s nc=%v", what, nc), rg, res.Communities)
					}
					comms, err := ix.TopK(k, gamma)
					if err != nil {
						t.Fatal(err)
					}
					checkAnswer(t, what+" index", rg, comms)
					if gamma >= 2 {
						tr, err := truss.LocalSearchCtx(ctx, tix, k, gamma)
						if err != nil {
							t.Fatal(err)
						}
						checkAnswer(t, what+" truss", rg, tr.Communities)
					}

					// A stream renders each community as it arrives.
					r := cluster.NewRenderer(rg)
					_, err = core.Stream(g, gamma, core.Options{}, func(c *core.Community) bool {
						want, _ := json.Marshal(cluster.Render(rg, c.Influence(), c.Keynode(), c.Vertices()))
						if got := r.AppendCommunity(nil, c); !bytes.Equal(got, want) {
							t.Fatalf("%s stream\n got %s\nwant %s", what, got, want)
						}
						return true
					})
					r.Release()
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestRenderSharedAnswerParallel renders one answer from many goroutines
// at once, as concurrent requests render one memoized answer: every render
// must match the sequential one, and the race detector must see no write
// to the shared forest.
func TestRenderSharedAnswerParallel(t *testing.T) {
	g, err := gen.SocialNetwork(3000, 4, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.TopK(g, 300, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := cluster.NewAnswer(g)
	for _, c := range res.Communities {
		a.Add(c)
	}
	pipelines := []string{"", "| size(>=50)", "| limit(10)", "| size(<=20) | limit(40)"}
	want := make([][]byte, len(pipelines))
	for i, p := range pipelines {
		want[i] = a.AppendJSON(nil, parseFilters(t, p))
		ref, _ := json.Marshal(reference(g, res.Communities, parseFilters(t, p)))
		if !bytes.Equal(want[i], ref) {
			t.Fatalf("%q: sequential render differs from the reference", p)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				i := (w + it) % len(pipelines)
				if got := a.AppendJSON(nil, parseFilters(t, pipelines[i])); !bytes.Equal(got, want[i]) {
					t.Errorf("worker %d: %q rendered differently", w, pipelines[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSelectMatchesApplyDSLFilters pins the null/[] rule of the one filter
// evaluator on empty and non-empty flat lists.
func TestSelectMatchesApplyDSLFilters(t *testing.T) {
	comms := []cluster.Community{
		{Influence: 3, Size: 5, Keynode: 1, Members: []int32{1, 2, 3, 4, 5}},
		{Influence: 2, Size: 2, Keynode: 7, Members: []int32{6, 7}},
	}
	for _, tc := range []struct {
		pipeline string
		in       []cluster.Community
		want     string
	}{
		{"", nil, "null"},
		{"| limit(3)", nil, "null"},
		{"| size(>=1)", nil, "[]"},
		{"| limit(0)", comms, "[]"},
		{"| size(>9)", comms, "[]"},
		{"| size(<=2)", comms, `[{"influence":2,"size":2,"keynode":7,"members":[6,7]}]`},
		{"| limit(1)", comms, `[{"influence":3,"size":5,"keynode":1,"members":[1,2,3,4,5]}]`},
	} {
		got, err := json.Marshal(cluster.ApplyDSLFilters(parseFilters(t, tc.pipeline), tc.in))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%q over %d communities: %s, want %s", tc.pipeline, len(tc.in), got, tc.want)
		}
	}
}
