package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"influcomm/internal/graph"
	"influcomm/internal/index"
	"influcomm/internal/semiext"
	"influcomm/internal/store"
)

// rankGraph returns a graph whose original IDs coincide with weight ranks
// (weights strictly decreasing in ID), so in-memory responses — which
// report original IDs — are comparable byte for byte with semi-external
// responses, which report ranks.
func rankGraph(t testing.TB) *graph.Graph {
	t.Helper()
	weights := []float64{20, 19, 18, 17, 16, 15, 14, 13, 12, 11}
	edges := [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{5, 6}, {5, 7}, {5, 8}, {6, 7}, {6, 8}, {7, 8},
		{3, 5}, {4, 0}, {4, 9}, {8, 9},
	}
	return graph.MustFromEdges(weights, edges)
}

// edgeFileStore writes g to a semi-external edge file and opens it.
func edgeFileStore(t testing.TB, g *graph.Graph) store.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := semiext.WriteEdgeFile(path, g); err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenEdgeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// normalizeBody strips timing fields (and the cache marker) from a
// /v1/topk body so responses can be compared byte for byte.
func normalizeBody(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	delete(m, "elapsed_ms")
	delete(m, "cached")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestMultiDatasetEquivalence is the acceptance criterion: one server,
// two datasets over the same graph — one in-memory, one semi-external —
// answer every query byte-identically (modulo timing fields) to a
// single-dataset in-memory server.
func TestMultiDatasetEquivalence(t *testing.T) {
	g := rankGraph(t)
	single, err := New(g, WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	multi, err := New(g,
		WithResultCache(0),
		WithDataset("mem2", DatasetConfig{Graph: g}),
		WithDataset("se", DatasetConfig{Store: edgeFileStore(t, g)}),
	)
	if err != nil {
		t.Fatal(err)
	}
	tsSingle := httptest.NewServer(single)
	defer tsSingle.Close()
	tsMulti := httptest.NewServer(multi)
	defer tsMulti.Close()

	var queries []string
	for gamma := 1; gamma <= 4; gamma++ {
		for _, k := range []int{1, 2, 5, 50} {
			queries = append(queries, fmt.Sprintf("k=%d&gamma=%d", k, gamma))
			queries = append(queries, fmt.Sprintf("k=%d&gamma=%d&noncontainment=1", k, gamma))
		}
	}
	for _, q := range queries {
		codeRef, bodyRef := fetch(t, tsSingle.URL+"/v1/topk?"+q)
		if codeRef != http.StatusOK {
			t.Fatalf("%s: single-dataset status %d", q, codeRef)
		}
		ref := normalizeBody(t, bodyRef)
		for _, name := range []string{"", "default", "mem2", "se"} {
			url := tsMulti.URL + "/v1/topk?" + q
			if name != "" {
				url += "&dataset=" + name
			}
			code, body := fetch(t, url)
			if code != http.StatusOK {
				t.Fatalf("%s dataset=%q: status %d (%s)", q, name, code, body)
			}
			if got := normalizeBody(t, body); got != ref {
				t.Fatalf("%s dataset=%q diverges from single-dataset serving\n got %s\nwant %s", q, name, got, ref)
			}
		}
	}
}

// TestMultiDatasetConcurrent hammers two datasets — one per backend — in
// parallel and checks every response against the single-dataset reference.
func TestMultiDatasetConcurrent(t *testing.T) {
	g := rankGraph(t)
	single, err := New(g, WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	tsSingle := httptest.NewServer(single)
	defer tsSingle.Close()
	multi, err := New(g,
		WithDataset("se", DatasetConfig{Store: edgeFileStore(t, g)}),
		WithMaxInFlight(-1),
	)
	if err != nil {
		t.Fatal(err)
	}
	tsMulti := httptest.NewServer(multi)
	defer tsMulti.Close()

	params := []string{"k=1&gamma=2", "k=2&gamma=3", "k=5&gamma=3", "k=3&gamma=3&noncontainment=1"}
	refs := make(map[string]string, len(params))
	for _, p := range params {
		code, body := fetch(t, tsSingle.URL+"/v1/topk?"+p)
		if code != http.StatusOK {
			t.Fatalf("%s: reference status %d", p, code)
		}
		refs[p] = normalizeBody(t, body)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := params[i%len(params)]
			ds := "default"
			if i%2 == 1 {
				ds = "se"
			}
			resp, err := http.Get(tsMulti.URL + "/v1/topk?" + p + "&dataset=" + ds)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s on %s: status %d", p, ds, resp.StatusCode)
				return
			}
			if got := normalizeBody(t, buf.Bytes()); got != refs[p] {
				errs <- fmt.Errorf("%s on %s diverged:\n got %s\nwant %s", p, ds, got, refs[p])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCacheHitEquivalence: a repeated query is served from the cache —
// marked, counted, and otherwise byte-identical to the computed response.
func TestCacheHitEquivalence(t *testing.T) {
	g := rankGraph(t)
	s, err := New(g, WithDataset("se", DatasetConfig{Store: edgeFileStore(t, g)}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, ds := range []string{"default", "se"} {
		url := ts.URL + "/v1/topk?k=2&gamma=3&dataset=" + ds
		_, first := fetch(t, url)
		_, second := fetch(t, url)
		var miss, hit topKResponse
		if err := json.Unmarshal(first, &miss); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(second, &hit); err != nil {
			t.Fatal(err)
		}
		if miss.Cached {
			t.Errorf("%s: first response claims cached", ds)
		}
		if !hit.Cached {
			t.Errorf("%s: second response not served from cache", ds)
		}
		if normalizeBody(t, first) != normalizeBody(t, second) {
			t.Errorf("%s: cache hit differs from computed response\n%s\n%s", ds, first, second)
		}
	}

	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.CacheHits != 2 || st.CacheMisses != 2 {
		t.Errorf("cache hits=%d misses=%d, want 2/2", st.CacheHits, st.CacheMisses)
	}
	if st.CacheEntries != 2 || st.CacheCapacity != 256 {
		t.Errorf("cache entries=%d capacity=%d, want 2/256", st.CacheEntries, st.CacheCapacity)
	}
}

// TestTrussNeedsMemoryBackend: truss queries need whole-graph access and
// must be rejected cleanly on semi-external datasets.
func TestTrussNeedsMemoryBackend(t *testing.T) {
	g := rankGraph(t)
	s, err := New(g, WithDataset("se", DatasetConfig{Store: edgeFileStore(t, g)}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	code, body := fetch(t, ts.URL+"/v1/topk?k=2&gamma=3&truss=1&dataset=se")
	if code != http.StatusBadRequest {
		t.Fatalf("truss on semiext: status %d (%s)", code, body)
	}
	code, _ = fetch(t, ts.URL+"/v1/topk?k=2&gamma=3&truss=1&dataset=default")
	if code != http.StatusOK {
		t.Fatalf("truss on memory: status %d", code)
	}
}

// TestUnknownDataset404s.
func TestUnknownDataset404s(t *testing.T) {
	ts := newTestServer(t)
	var e map[string]string
	if code := getJSON(t, ts.URL+"/v1/topk?k=2&gamma=3&dataset=nope", &e); code != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d", code)
	}
	if e["error"] == "" {
		t.Error("missing error message")
	}
}

// TestAdminLoadUnload drives the admin endpoints end to end: load a
// memory dataset, a semiext dataset, and indexed memory and mutable
// datasets from disk; list them; query them; unload them; confirm 404
// after. Options on a backend they do not apply to are 400s.
func TestAdminLoadUnload(t *testing.T) {
	g := rankGraph(t)
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.txt")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteText(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	edgePath := filepath.Join(dir, "g.edges")
	if err := semiext.WriteEdgeFile(edgePath, g); err != nil {
		t.Fatal(err)
	}
	ixPath := filepath.Join(dir, "g.icx")
	ix, err := index.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	ixf, err := os.Create(ixPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteTo(ixf); err != nil {
		t.Fatal(err)
	}
	ixf.Close()

	s, err := New(rankGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/admin/datasets", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	if code, body := post(fmt.Sprintf(`{"name":"disk-mem","path":%q}`, graphPath)); code != http.StatusCreated {
		t.Fatalf("load memory dataset: status %d (%s)", code, body)
	}
	if code, body := post(fmt.Sprintf(`{"name":"disk-se","path":%q,"backend":"semiext"}`, edgePath)); code != http.StatusCreated {
		t.Fatalf("load semiext dataset: status %d (%s)", code, body)
	}
	if code, body := post(fmt.Sprintf(`{"name":"disk-ix","path":%q,"index":%q}`, graphPath, ixPath)); code != http.StatusCreated {
		t.Fatalf("load indexed dataset: status %d (%s)", code, body)
	}
	if code, body := post(fmt.Sprintf(`{"name":"disk-dyn","path":%q,"mutable":true,"index":%q}`, edgePath, ixPath)); code != http.StatusCreated {
		t.Fatalf("load indexed mutable dataset: status %d (%s)", code, body)
	}
	// Duplicate name conflicts.
	if code, _ := post(fmt.Sprintf(`{"name":"disk-mem","path":%q}`, graphPath)); code != http.StatusConflict {
		t.Fatalf("duplicate load: status %d, want 409", code)
	}
	// Bad backend and bad path are 400s.
	if code, _ := post(fmt.Sprintf(`{"name":"x","path":%q,"backend":"bogus"}`, graphPath)); code != http.StatusBadRequest {
		t.Fatalf("bad backend: status %d", code)
	}
	if code, _ := post(`{"name":"x","path":"/does/not/exist"}`); code != http.StatusBadRequest {
		t.Fatalf("bad path: status %d", code)
	}
	// Index on a semiext backend is rejected, naming the backends that
	// can carry one; workers splits semi-external decodes only.
	if code, body := post(fmt.Sprintf(`{"name":"x","path":%q,"backend":"semiext","index":"whatever"}`, edgePath)); code != http.StatusBadRequest ||
		!bytes.Contains(body, []byte("whole-graph access (the memory or mutable backend); the semiext backend cannot carry one")) {
		t.Fatalf("index on semiext: status %d (%s)", code, body)
	}
	for _, body := range []string{`{"name":"x","path":%q,"mutable":true,"workers":2}`, `{"name":"x","path":%q,"workers":2}`} {
		if code, resp := post(fmt.Sprintf(body, edgePath)); code != http.StatusBadRequest || !bytes.Contains(resp, []byte("only the semiext backend")) {
			t.Fatalf("%s: status %d (%s)", body, code, resp)
		}
	}

	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if code := getJSON(t, ts.URL+"/v1/datasets", &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(list.Datasets) != 5 {
		t.Fatalf("listed %d datasets, want 5", len(list.Datasets))
	}

	// All loaded datasets answer, identically to the default (same graph
	// content) — including the indexed ones, whose answers come from the
	// loaded index file. The index path reports no accessed_vertices (it
	// touches only its output) and names itself in path, so both fields
	// are normalized away here.
	stripAccessed := func(body []byte) string {
		var m map[string]any
		if err := json.Unmarshal([]byte(normalizeBody(t, body)), &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "accessed_vertices")
		delete(m, "path")
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	_, refBody := fetch(t, ts.URL+"/v1/topk?k=2&gamma=3")
	ref := stripAccessed(refBody)
	for _, name := range []string{"disk-mem", "disk-se", "disk-ix", "disk-dyn"} {
		code, body := fetch(t, ts.URL+"/v1/topk?k=2&gamma=3&dataset="+name)
		if code != http.StatusOK {
			t.Fatalf("query %s: status %d (%s)", name, code, body)
		}
		if got := stripAccessed(body); got != ref {
			t.Errorf("%s diverges from default dataset\n got %s\nwant %s", name, got, ref)
		}
	}

	// The indexed datasets served their queries from the index.
	for _, d := range s.Datasets() {
		if d.Name == "disk-ix" || d.Name == "disk-dyn" {
			if !d.IndexLoaded || d.IndexQueries != 1 {
				t.Errorf("%s: index_loaded=%v index_queries=%d, want true/1", d.Name, d.IndexLoaded, d.IndexQueries)
			}
		}
	}

	// Unload and verify routing stops.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/datasets/disk-se", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unload: status %d", resp.StatusCode)
	}
	if code, _ := fetch(t, ts.URL+"/v1/topk?k=2&gamma=3&dataset=disk-se"); code != http.StatusNotFound {
		t.Fatalf("query after unload: status %d, want 404", code)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/datasets/disk-se", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double unload: status %d, want 404", resp.StatusCode)
	}
}

// TestAdminToken: with WithAdminToken set, admin endpoints demand the
// bearer token while queries stay open.
func TestAdminToken(t *testing.T) {
	s, err := New(rankGraph(t), WithAdminToken("s3cret"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	if code, _ := fetch(t, ts.URL+"/v1/topk?k=2&gamma=3"); code != http.StatusOK {
		t.Fatalf("query with token configured: status %d, want open", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/datasets/default", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated admin: status %d, want 401", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/admin/datasets", bytes.NewBufferString(`{"name":"x","path":"/nope"}`))
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token: status %d, want 401", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/datasets/default", nil)
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated unload: status %d, want 200", resp.StatusCode)
	}
}

// TestLoadUnloadUnderTraffic cycles a dataset in and out of the registry
// while queries hammer it and a stable sibling: every response must be a
// 200 with correct content or a clean 404 — never an error, a wrong
// answer, or a race (this test runs under -race in CI).
func TestLoadUnloadUnderTraffic(t *testing.T) {
	g := rankGraph(t)
	edgePath := filepath.Join(t.TempDir(), "g.edges")
	if err := semiext.WriteEdgeFile(edgePath, g); err != nil {
		t.Fatal(err)
	}
	s, err := New(g, WithMaxInFlight(-1))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, refBody := fetch(t, ts.URL+"/v1/topk?k=2&gamma=3")
	ref := normalizeBody(t, refBody)

	stop := make(chan struct{})
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ds := "default"
			if w%2 == 1 {
				ds = "cycling"
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/topk?k=2&gamma=3&dataset=" + ds)
				if err != nil {
					wrong.Add(1)
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if normalizeBody(t, buf.Bytes()) != ref {
						wrong.Add(1)
					}
				case http.StatusNotFound:
					if ds != "cycling" {
						wrong.Add(1)
					}
				default:
					wrong.Add(1)
				}
			}
		}(w)
	}

	for i := 0; i < 20; i++ {
		st, err := store.OpenEdgeFile(edgePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddDataset("cycling", DatasetConfig{Store: st}); err != nil {
			t.Fatal(err)
		}
		if err := s.RemoveDataset("cycling"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d wrong responses under load/unload churn", n)
	}
}

// TestAdminLoadSemiExt loads a semi-external dataset through the admin
// endpoint: the dataset must report its access mode and answer
// identically to the in-memory default, and unknown or removed options —
// the decoded-prefix cache's old budget field among them — are 400s.
func TestAdminLoadSemiExt(t *testing.T) {
	g := rankGraph(t)
	edgePath := filepath.Join(t.TempDir(), "g.edges")
	if err := semiext.WriteEdgeFile(edgePath, g); err != nil {
		t.Fatal(err)
	}
	s, err := New(rankGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := fmt.Sprintf(`{"name":"se","path":%q,"backend":"semiext"}`, edgePath)
	resp, err := http.Post(ts.URL+"/v1/admin/datasets", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var info DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load: status %d", resp.StatusCode)
	}
	if info.Mode != "mmap" && info.Mode != "pread" {
		t.Errorf("mode = %q, want mmap or pread", info.Mode)
	}

	_, refBody := fetch(t, ts.URL+"/v1/topk?k=2&gamma=3")
	code, seBody := fetch(t, ts.URL+"/v1/topk?k=2&gamma=3&dataset=se")
	if code != http.StatusOK {
		t.Fatalf("query: status %d (%s)", code, seBody)
	}
	if normalizeBody(t, refBody) != normalizeBody(t, seBody) {
		t.Errorf("semiext dataset diverges from in-memory default")
	}

	// A bad mode in the admin request is a 400, not a crash.
	resp, err = http.Post(ts.URL+"/v1/admin/datasets", "application/json",
		bytes.NewBufferString(fmt.Sprintf(`{"name":"bad","path":%q,"backend":"semiext","mode":"bogus"}`, edgePath)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mode: status %d, want 400", resp.StatusCode)
	}

	// A misspelt option is a 400 too, not a dataset loaded with defaults,
	// and so is the removed decoded-prefix cache budget.
	for name, field := range map[string]string{"typo": `"worker":2`, "removed": `"prefix_cache_bytes":1024`} {
		resp, err = http.Post(ts.URL+"/v1/admin/datasets", "application/json",
			bytes.NewBufferString(fmt.Sprintf(`{"name":%q,"path":%q,"backend":"semiext",%s}`, name, edgePath, field)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", field, resp.StatusCode)
		}
	}
	for _, d := range s.Datasets() {
		if d.Name == "typo" || d.Name == "removed" {
			t.Fatalf("a load with a bad field registered dataset %s", d.Name)
		}
	}
}

// TestAdminLoadParallelCompressed loads a compressed (v2) edge file with
// split decodes through the admin endpoint: the dataset must report its
// format and worker count, and answer byte-identically to the in-memory
// default — the decode split is an implementation detail, not a semantics
// change.
func TestAdminLoadParallelCompressed(t *testing.T) {
	g := rankGraph(t)
	edgePath := filepath.Join(t.TempDir(), "g.edges")
	if err := semiext.WriteEdgeFileFormat(edgePath, g, semiext.FormatV2); err != nil {
		t.Fatal(err)
	}
	s, err := New(rankGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := fmt.Sprintf(`{"name":"par","path":%q,"backend":"semiext","workers":4}`, edgePath)
	resp, err := http.Post(ts.URL+"/v1/admin/datasets", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var info DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load: status %d", resp.StatusCode)
	}
	if info.Format != "v2" {
		t.Errorf("format = %q, want v2", info.Format)
	}
	if info.Workers != 4 {
		t.Errorf("workers = %d, want 4", info.Workers)
	}

	for _, q := range []string{"k=2&gamma=3", "k=5&gamma=2", "k=1&gamma=1&noncontainment=1"} {
		_, refBody := fetch(t, ts.URL+"/v1/topk?"+q)
		code, parBody := fetch(t, ts.URL+"/v1/topk?"+q+"&dataset=par")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", q, code, parBody)
		}
		if normalizeBody(t, refBody) != normalizeBody(t, parBody) {
			t.Errorf("%s: parallel v2 dataset diverges from in-memory default", q)
		}
	}
	for _, d := range s.Datasets() {
		if d.Name == "par" && (d.Format != "v2" || d.Workers != 4) {
			t.Errorf("stats report format=%q workers=%d, want v2/4", d.Format, d.Workers)
		}
	}

	// A negative worker count in the admin request is a 400, not a crash.
	resp, err = http.Post(ts.URL+"/v1/admin/datasets", "application/json",
		bytes.NewBufferString(fmt.Sprintf(`{"name":"bad","path":%q,"backend":"semiext","workers":-1}`, edgePath)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative workers: status %d, want 400", resp.StatusCode)
	}
}
