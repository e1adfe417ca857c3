package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"influcomm/internal/graph"
	"influcomm/internal/index"
	"influcomm/internal/semiext"
	"influcomm/internal/store"
)

// mutableServer returns a server whose "dyn" dataset is a durable mutable
// store over a fresh edge file of rankGraph, plus the store itself so
// crash tests can Abandon it (releasing the write-ahead log's lock
// without compacting).
func mutableServer(t *testing.T, opts ...Option) (*httptest.Server, string, store.MutableStore) {
	t.Helper()
	g := rankGraph(t)
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := semiext.WriteEdgeFile(path, g); err != nil {
		t.Fatal(err)
	}
	ms, err := store.OpenMutable(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(rankGraph(t), append(opts, WithDataset("dyn", DatasetConfig{Store: ms}))...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, path, ms
}

func postUpdates(t *testing.T, ts *httptest.Server, name, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/admin/datasets/"+name+"/updates", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, b
}

// TestUpdateEndpoint applies a batch and checks the response accounting,
// the stats counters, and that query results actually change and match a
// server built fresh over the updated graph.
func TestUpdateEndpoint(t *testing.T) {
	ts, _, _ := mutableServer(t)

	var before map[string]any
	getJSON(t, ts.URL+"/v1/topk?k=5&gamma=3&dataset=dyn", &before)

	// Delete two edges of the top clique and insert one new edge.
	resp, body := postUpdates(t, ts, "dyn",
		`{"updates":[{"op":"delete","u":0,"v":1},{"op":"delete","u":2,"v":3},{"u":4,"v":5},{"u":4,"v":5}]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("updates: %d %s", resp.StatusCode, body)
	}
	var ur updatesResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Inserted != 1 || ur.Deleted != 2 || ur.Skipped != 1 || ur.SnapshotEpoch != 1 {
		t.Fatalf("unexpected accounting: %+v", ur)
	}

	var after map[string]any
	getJSON(t, ts.URL+"/v1/topk?k=5&gamma=3&dataset=dyn", &after)
	ab, _ := json.Marshal(after)
	bb, _ := json.Marshal(before)
	if normalizeBody(t, ab) == normalizeBody(t, bb) {
		t.Fatal("query results unchanged after deleting clique edges")
	}

	// The updated dataset must answer exactly like a server built fresh
	// over the post-update graph.
	g := rankGraph(t)
	ng, err := graph.ApplyEdgeDelta(g, [][2]int32{{4, 5}}, [][2]int32{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(ng)
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(fresh)
	defer fts.Close()
	for _, q := range []string{"k=5&gamma=3", "k=3&gamma=2", "k=2&gamma=2&noncontainment=1", "k=2&gamma=3&truss=1"} {
		r1, err := http.Get(ts.URL + "/v1/topk?" + q + "&dataset=dyn")
		if err != nil {
			t.Fatal(err)
		}
		b1, _ := io.ReadAll(r1.Body)
		r1.Body.Close()
		r2, err := http.Get(fts.URL + "/v1/topk?" + q)
		if err != nil {
			t.Fatal(err)
		}
		b2, _ := io.ReadAll(r2.Body)
		r2.Body.Close()
		if normalizeBody(t, b1) != normalizeBody(t, b2) {
			t.Fatalf("query %s: updated dataset diverges from fresh server\n%s\n%s", q, b1, b2)
		}
	}

	// Stats surface the mutation counters.
	var stats struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	var dyn *DatasetInfo
	for i := range stats.Datasets {
		if stats.Datasets[i].Name == "dyn" {
			dyn = &stats.Datasets[i]
		}
	}
	if dyn == nil || !dyn.Mutable || dyn.SnapshotEpoch != 1 || dyn.UpdatesApplied != 3 {
		t.Fatalf("stats for dyn: %+v", dyn)
	}
}

// TestUpdateCacheInvalidation: a cached result must not survive an update
// that changes the graph.
func TestUpdateCacheInvalidation(t *testing.T) {
	ts, _, _ := mutableServer(t, WithResultCache(64))
	q := ts.URL + "/v1/topk?k=4&gamma=3&dataset=dyn"

	var first, second map[string]any
	getJSON(t, q, &first)
	getJSON(t, q, &second)
	if second["cached"] != true {
		t.Fatal("second identical query was not a cache hit")
	}
	resp, body := postUpdates(t, ts, "dyn", `{"updates":[{"op":"delete","u":0,"v":1}]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("updates: %d %s", resp.StatusCode, body)
	}
	var third map[string]any
	getJSON(t, q, &third)
	if third["cached"] == true {
		t.Fatal("query after update served from the stale cache")
	}
	fb, _ := json.Marshal(first)
	tb, _ := json.Marshal(third)
	if normalizeBody(t, fb) == normalizeBody(t, tb) {
		t.Fatal("result unchanged after edge deletion")
	}
}

// TestUpdateInvalidatesIndex: a mutable dataset carrying a prebuilt index
// serves index-first until the first effective update, then falls back to
// LocalSearch with identical semantics on the new graph.
func TestUpdateInvalidatesIndex(t *testing.T) {
	g := rankGraph(t)
	ms, err := store.OpenMutableGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(rankGraph(t), WithDataset("dyn", DatasetConfig{Store: ms, Index: ix}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	var r map[string]any
	getJSON(t, ts.URL+"/v1/topk?k=3&gamma=2&dataset=dyn", &r)
	var stats struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	dyn := datasetNamed(t, stats.Datasets, "dyn")
	if !dyn.IndexLoaded || dyn.IndexQueries != 1 {
		t.Fatalf("expected one index-served query before updates: %+v", dyn)
	}

	resp, body := postUpdates(t, ts, "dyn", `{"updates":[{"op":"delete","u":5,"v":6}]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("updates: %d %s", resp.StatusCode, body)
	}
	var ur updatesResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if !ur.IndexInvalidated {
		t.Fatalf("index not reported invalidated: %+v", ur)
	}

	getJSON(t, ts.URL+"/v1/topk?k=3&gamma=2&dataset=dyn", &r)
	getJSON(t, ts.URL+"/v1/stats", &stats)
	dyn = datasetNamed(t, stats.Datasets, "dyn")
	if dyn.IndexLoaded {
		t.Fatal("index still reported loaded after an update")
	}
	if dyn.IndexQueries != 1 || dyn.LocalQueries < 1 {
		t.Fatalf("post-update query did not fall back to LocalSearch: %+v", dyn)
	}
}

func datasetNamed(t *testing.T, ds []DatasetInfo, name string) *DatasetInfo {
	t.Helper()
	for i := range ds {
		if ds[i].Name == name {
			return &ds[i]
		}
	}
	t.Fatalf("dataset %q missing from stats", name)
	return nil
}

// TestUpdateValidationErrors covers the endpoint's rejection paths, and
// which body shapes it reads as a batch: the ones decoding into a struct
// with one `updates` field accepts.
func TestUpdateValidationErrors(t *testing.T) {
	ts, _, _ := mutableServer(t)
	cases := []struct {
		name, target, body string
		want               int
	}{
		{"empty batch", "dyn", `{"updates":[]}`, http.StatusBadRequest},
		{"bad op", "dyn", `{"updates":[{"op":"upsert","u":0,"v":1}]}`, http.StatusBadRequest},
		{"bad body", "dyn", `{`, http.StatusBadRequest},
		{"unknown keys skipped", "dyn", `{"x":[1,{"updates":2}],"updates":[{"u":4,"v":5}],"y":null}`, http.StatusOK},
		{"key folds case", "dyn", `{"UpDaTeS":[{"u":4,"v":5}]}`, http.StatusOK},
		{"last array wins", "dyn", `{"updates":[{"u":0,"v":99},{"u":0,"v":99}],"updates":[{"u":4,"v":5}]}`, http.StatusOK},
		{"last null wins", "dyn", `{"updates":[{"u":4,"v":5}],"updates":null}`, http.StatusBadRequest},
		{"null updates", "dyn", `{"updates":null}`, http.StatusBadRequest},
		{"no updates key", "dyn", `{}`, http.StatusBadRequest},
		{"array body", "dyn", `[{"u":4,"v":5}]`, http.StatusBadRequest},
		{"null body", "dyn", `null`, http.StatusBadRequest},
		{"object updates", "dyn", `{"updates":{"u":4,"v":5}}`, http.StatusBadRequest},
		{"bad field type", "dyn", `{"updates":[{"u":"4","v":5}]}`, http.StatusBadRequest},
		{"unterminated", "dyn", `{"updates":[{"u":4,"v":5}]`, http.StatusBadRequest},
		{"self loop", "dyn", `{"updates":[{"u":3,"v":3}]}`, http.StatusBadRequest},
		{"unknown vertex", "dyn", `{"updates":[{"u":0,"v":99}]}`, http.StatusBadRequest},
		{"immutable dataset", "default", `{"updates":[{"u":0,"v":4}]}`, http.StatusBadRequest},
		{"missing dataset", "nope", `{"updates":[{"u":0,"v":4}]}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, body := postUpdates(t, ts, tc.target, tc.body, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: got %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestUpdatesPastCapRefusedEarly: a compact batch past maxUpdateBatch
// answers 400 once its first excess op arrives, leaving the body's tail
// unread rather than buffering the whole value before counting it.
func TestUpdatesPastCapRefusedEarly(t *testing.T) {
	ts, _, _ := mutableServer(t)
	const op = `{"u":4,"v":5}`
	body := `{"updates":[` + strings.Repeat(op+",", maxUpdateBatch+999) + op + `]}`
	cr := &countingReader{r: strings.NewReader(body)}
	w := httptest.NewRecorder()
	ts.Config.Handler.ServeHTTP(w, httptest.NewRequest("POST", "/v1/admin/datasets/dyn/updates", cr))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d %s, want 400", w.Code, w.Body)
	}
	if cr.n >= int64(len(body)) {
		t.Errorf("read all %d bytes of the body before refusing it", cr.n)
	}
}

// TestUpdatesUnderConcurrentTraffic hammers a mutable dataset with queries
// while update batches land (run under -race): no query may fail or be
// paused, and the final state must equal a fresh rebuild.
func TestUpdatesUnderConcurrentTraffic(t *testing.T) {
	ts, _, _ := mutableServer(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(fmt.Sprintf("%s/v1/topk?k=%d&gamma=2&dataset=dyn", ts.URL, 1+i%4))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		op := "insert"
		if i%2 == 1 {
			op = "delete"
		}
		// Toggle the same edge so every batch is effective.
		resp, body := postUpdates(t, ts, "dyn", fmt.Sprintf(`{"updates":[{"op":%q,"u":0,"v":9}]}`, op), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, resp.StatusCode, body)
		}
	}
	close(stop)
	wg.Wait()
	var stats struct {
		SnapshotEpoch  uint64        `json:"snapshot_epoch"`
		Datasets       []DatasetInfo `json:"datasets"`
		UpdatesApplied int64         `json:"updates_applied"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if dyn := datasetNamed(t, stats.Datasets, "dyn"); dyn.SnapshotEpoch != 20 || dyn.UpdatesApplied != 20 {
		t.Fatalf("expected 20 effective batches: %+v", dyn)
	}
}

// TestMutableDurabilityThroughServer: updates applied over HTTP must
// survive the store being closed and reopened from its edge file + log.
func TestMutableDurabilityThroughServer(t *testing.T) {
	ts, path, ms := mutableServer(t)
	resp, body := postUpdates(t, ts, "dyn", `{"updates":[{"op":"delete","u":0,"v":1},{"u":4,"v":9,"op":"delete"}]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("updates: %d %s", resp.StatusCode, body)
	}
	r1, err := http.Get(ts.URL + "/v1/topk?k=4&gamma=2&dataset=dyn")
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := io.ReadAll(r1.Body)
	r1.Body.Close()
	ts.Close()
	// Crash the store: release the WAL's lock without compacting.
	if err := ms.(interface{ Abandon() error }).Abandon(); err != nil {
		t.Fatal(err)
	}

	// Open the edge file again: the WAL replays the two deletions.
	re, err := store.OpenMutable(path)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(rankGraph(t), WithDataset("dyn", DatasetConfig{Store: re}))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	r2, err := http.Get(ts2.URL + "/v1/topk?k=4&gamma=2&dataset=dyn")
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if normalizeBody(t, b1) != normalizeBody(t, b2) {
		t.Fatalf("replayed dataset diverges:\n%s\n%s", b1, b2)
	}
}

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestAdminBodiesBounded: an admin request body one byte past its bound
// answers 413 instead of being decoded in full, and a load body exactly
// at its bound still loads. The padding sits inside the JSON value, so a
// decoder has to read all of it.
func TestAdminBodiesBounded(t *testing.T) {
	widest := `{"op":"delete","u":-2147483648,"v":-2147483648},`
	if n := len(`{"updates":[]}`) + maxUpdateBatch*len(widest); n > maxUpdatesBody {
		t.Fatalf("a full batch of the widest ops takes %d bytes, over the %d-byte bound", n, maxUpdatesBody)
	}
	ts, _, _ := mutableServer(t)
	path := filepath.Join(t.TempDir(), "more.edges")
	if err := semiext.WriteEdgeFile(path, rankGraph(t)); err != nil {
		t.Fatal(err)
	}
	post := func(url, head, tail string, size int64) *httptest.ResponseRecorder {
		pad := io.LimitReader(spaces{}, size-int64(len(head)+len(tail)))
		req := httptest.NewRequest("POST", url, io.MultiReader(strings.NewReader(head), pad, strings.NewReader(tail)))
		w := httptest.NewRecorder()
		ts.Config.Handler.ServeHTTP(w, req)
		return w
	}
	load := fmt.Sprintf(`"path":%q,"backend":"semiext"}`, path)
	for _, tc := range []struct {
		url, head, tail string
		size            int64
		want            int
	}{
		{"/v1/admin/datasets/dyn/updates", `{"updates":[`, `{"u":8,"v":9}]}`, maxUpdatesBody + 1, http.StatusRequestEntityTooLarge},
		{"/v1/admin/datasets", `{"name":"big",`, load, maxLoadBody + 1, http.StatusRequestEntityTooLarge},
		{"/v1/admin/datasets", `{"name":"fits",`, load, maxLoadBody, http.StatusCreated},
	} {
		if w := post(tc.url, tc.head, tc.tail, tc.size); w.Code != tc.want {
			t.Errorf("%s with a %d-byte body: status %d %s, want %d", tc.url, tc.size, w.Code, w.Body, tc.want)
		}
	}
}
