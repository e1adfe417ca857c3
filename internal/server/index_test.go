package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"influcomm/internal/index"
)

// normalizeTopK strips the per-request fields from a /v1/topk body so
// index-served and LocalSearch-served responses can be compared byte for
// byte: elapsed_ms is wall clock, path names the path that answered, and
// accessed_vertices reports how much of the graph the *online* search
// touched (the index touches only its output, so it reports none).
func normalizeTopK(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	delete(m, "elapsed_ms")
	delete(m, "path")
	delete(m, "accessed_vertices")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func fetch(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestIndexServedMatchesLocalSearch serves the same graph twice — once
// index-first, once through pooled LocalSearch — and requires the
// responses to be byte-identical for every (k, γ) and mode, including γ
// beyond γmax and k beyond the community count.
func TestIndexServedMatchesLocalSearch(t *testing.T) {
	g := testGraph(t)
	ix, err := index.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	withIx, err := New(g, WithIndex(ix))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	tsIx := httptest.NewServer(withIx)
	defer tsIx.Close()
	tsPlain := httptest.NewServer(plain)
	defer tsPlain.Close()

	var queries []string
	for gamma := 1; gamma <= int(ix.GammaMax())+2; gamma++ {
		for _, k := range []int{1, 2, 5, 50} {
			queries = append(queries, fmt.Sprintf("/v1/topk?k=%d&gamma=%d", k, gamma))
			queries = append(queries, fmt.Sprintf("/v1/topk?k=%d&gamma=%d&noncontainment=1", k, gamma))
		}
	}
	queries = append(queries, "/v1/topk?k=2&gamma=3&truss=1")
	for _, q := range queries {
		codeA, bodyA := fetch(t, tsIx.URL+q)
		codeB, bodyB := fetch(t, tsPlain.URL+q)
		if codeA != codeB {
			t.Fatalf("%s: status %d with index, %d without", q, codeA, codeB)
		}
		a, b := normalizeTopK(t, bodyA), normalizeTopK(t, bodyB)
		if a != b {
			t.Fatalf("%s: responses differ\nindex: %s\nlocal: %s", q, a, b)
		}
	}
}

// TestStatsReportServingPath checks the per-path counters and the path
// each /v1/topk response names: default queries hit the index,
// non-containment and truss queries fall back to online search, a cache
// hit reports the path of the execution that filled the entry, and an
// index-less server reports index_loaded=false.
func TestStatsReportServingPath(t *testing.T) {
	g := testGraph(t)
	ix, err := index.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, WithIndex(ix))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, tc := range []struct {
		q, path string
		cached  bool
	}{
		{"/v1/topk?k=2&gamma=3", "index", false},
		{"/v1/topk?k=1&gamma=2", "index", false},
		{"/v1/topk?k=2&gamma=3&noncontainment=1", "localsearch", false},
		{"/v1/topk?k=2&gamma=3&truss=1", "truss", false},
		{"/v1/topk?k=2&gamma=3&mode=noncontainment", "localsearch", true},
	} {
		var got topKResponse
		if code := getJSON(t, ts.URL+tc.q, &got); code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.q, code)
		}
		if got.Path != tc.path || got.Cached != tc.cached {
			t.Errorf("%s: path=%q cached=%v, want %q/%v", tc.q, got.Path, got.Cached, tc.path, tc.cached)
		}
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if !st.IndexLoaded {
		t.Error("index_loaded = false, want true")
	}
	if st.IndexGammaMax != ix.GammaMax() {
		t.Errorf("index_gamma_max = %d, want %d", st.IndexGammaMax, ix.GammaMax())
	}
	if st.IndexQueries != 2 {
		t.Errorf("index_queries = %d, want 2", st.IndexQueries)
	}
	if st.LocalQueries != 2 {
		t.Errorf("local_queries = %d, want 2", st.LocalQueries)
	}

	tsPlain := newTestServer(t)
	var stPlain statsResponse
	getJSON(t, tsPlain.URL+"/v1/stats", &stPlain)
	if stPlain.IndexLoaded {
		t.Error("index-less server reports index_loaded = true")
	}
}

// TestWithIndexWrongGraphRejected is the startup staleness check: an index
// bound to any other graph — even a same-shaped copy — must be rejected by
// New with a clear error, because index answers depend on the exact weight
// vector.
func TestWithIndexWrongGraphRejected(t *testing.T) {
	g := testGraph(t)
	other := testGraph(t) // equal content, different instance
	ix, err := index.Build(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(g, WithIndex(ix)); err == nil {
		t.Error("index built on a different graph instance: want error")
	}
}
