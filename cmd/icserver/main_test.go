package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"influcomm"
)

func writeFixture(t *testing.T) string {
	t.Helper()
	var b influcomm.Builder
	for id := int32(0); id < 10; id++ {
		b.AddVertex(id, float64(10+id))
	}
	for _, e := range [][2]int32{
		{0, 1}, {0, 5}, {0, 6}, {1, 5}, {1, 6}, {5, 6},
		{3, 4}, {3, 7}, {3, 8}, {4, 7}, {4, 8}, {7, 8},
		{3, 9}, {7, 9}, {8, 9},
		{1, 2}, {2, 3},
	} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := influcomm.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func testConfig(graphPath string) config {
	return config{
		graphPath:       graphPath,
		addr:            "127.0.0.1:0",
		maxK:            100,
		queryTimeout:    10 * time.Second,
		readTimeout:     5 * time.Second,
		writeTimeout:    10 * time.Second,
		idleTimeout:     time.Minute,
		shutdownTimeout: 5 * time.Second,
	}
}

// TestServeSmoke boots the real server on an ephemeral port, exercises
// every endpoint, then checks SIGTERM-style cancellation shuts it down
// cleanly.
func TestServeSmoke(t *testing.T) {
	cfg := testConfig(writeFixture(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- serve(ctx, cfg, ready) }()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	var health struct {
		Status string `json:"status"`
		Ready  bool   `json:"ready"`
	}
	mustGet(t, base+"/healthz", &health)
	if health.Status != "ok" || !health.Ready {
		t.Errorf("healthz = %+v", health)
	}

	var topk struct {
		Communities []struct {
			Influence float64 `json:"influence"`
		} `json:"communities"`
	}
	mustGet(t, base+"/v1/topk?k=2&gamma=3", &topk)
	if len(topk.Communities) != 2 || topk.Communities[0].Influence != 13 {
		t.Errorf("topk = %+v", topk)
	}

	var stats struct {
		Vertices int   `json:"vertices"`
		Queries  int64 `json:"queries"`
	}
	mustGet(t, base+"/v1/stats", &stats)
	if stats.Vertices != 10 || stats.Queries != 1 {
		t.Errorf("stats = %+v", stats)
	}

	cancel() // deliver the shutdown signal
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// writeRankFixture writes a graph whose original IDs coincide with weight
// ranks, plus its semi-external edge file, so in-memory and semi-external
// responses are comparable byte for byte.
func writeRankFixture(t *testing.T) (graphPath, edgePath string) {
	t.Helper()
	var b influcomm.Builder
	for id := int32(0); id < 10; id++ {
		b.AddVertex(id, float64(20-id))
	}
	for _, e := range [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{5, 6}, {5, 7}, {5, 8}, {6, 7}, {6, 8}, {7, 8},
		{3, 5}, {4, 0}, {4, 9}, {8, 9},
	} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	graphPath = filepath.Join(dir, "g.txt")
	if err := influcomm.SaveGraph(graphPath, g); err != nil {
		t.Fatal(err)
	}
	edgePath = filepath.Join(dir, "g.edges")
	if err := influcomm.SaveEdgeFile(edgePath, g); err != nil {
		t.Fatal(err)
	}
	return graphPath, edgePath
}

func TestParseDatasetSpec(t *testing.T) {
	d, err := parseDatasetSpec("wiki=/data/wiki.edges,backend=semiext,index=/data/wiki.icx")
	if err != nil {
		t.Fatal(err)
	}
	if d.name != "wiki" || d.path != "/data/wiki.edges" || d.backend != "semiext" || d.index != "/data/wiki.icx" {
		t.Errorf("parsed %+v", d)
	}
	d, err = parseDatasetSpec("dyn=/d/g.edges,mutable=true")
	if err != nil {
		t.Fatal(err)
	}
	if !d.mutable {
		t.Errorf("parsed %+v, want mutable", d)
	}
	d, err = parseDatasetSpec("par=/d/g.edges,backend=semiext,workers=8")
	if err != nil {
		t.Fatal(err)
	}
	if d.workers != 8 {
		t.Errorf("parsed %+v, want workers=8", d)
	}
	d, err = parseDatasetSpec("live=/d/g.edges,mutable=true,reindex=auto")
	if err != nil {
		t.Fatal(err)
	}
	if d.reindex != "auto" {
		t.Errorf("parsed %+v, want reindex=auto", d)
	}
	d, err = parseDatasetSpec("off=/d/g.edges,backend=mutable,reindex=off")
	if err != nil {
		t.Fatal(err)
	}
	if d.reindex != "off" {
		t.Errorf("parsed %+v, want reindex=off", d)
	}
	for _, bad := range []string{"", "noequals", "name=", "n=p,bogus", "n=p,k=v",
		"n=p,mutable=yes", "n=p,backend=semiext,mutable=true", "n=p,workers=-2", "n=p,workers=lots",
		"n=p,workers=2", "n=p,mutable=true,workers=2", "n=p,backend=mutable,workers=2",
		"n=p,reindex=always", "n=p,reindex=auto", "n=p,backend=semiext,reindex=auto"} {
		if _, err := parseDatasetSpec(bad); err == nil {
			t.Errorf("%q: want parse error", bad)
		}
	}
	// The rebuild debounce and the repair gate are constants, not options.
	for _, gone := range []string{"n=p,mutable=true,debounce=1s", "n=p,mutable=true,repair-frac=0.5"} {
		if _, err := parseDatasetSpec(gone); err == nil || !strings.Contains(err.Error(), "unknown -dataset option") {
			t.Errorf("%q: err = %v, want an unknown-option error", gone, err)
		}
	}
}

// TestPprofListener starts the separate profiling listener and fetches the
// index: the endpoints must be reachable on their own port only.
func TestPprofListener(t *testing.T) {
	psrv, pln, err := startPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	resp, err := http.Get("http://" + pln.Addr().String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index returned %d", resp.StatusCode)
	}
	if _, _, err := startPprof("256.0.0.1:bad"); err == nil {
		t.Error("bad pprof address: want error")
	}
}

// TestServeMultiDataset boots the real server with a default in-memory
// dataset and a semi-external sibling of the same graph: both must answer,
// byte-identically modulo timing fields, and appear on /v1/datasets.
func TestServeMultiDataset(t *testing.T) {
	graphPath, edgePath := writeRankFixture(t)
	cfg := testConfig(graphPath)
	cfg.cacheSize = 16
	cfg.datasets = []datasetSpec{{name: "se", path: edgePath, backend: "semiext", workers: 4}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- serve(ctx, cfg, ready) }()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	normalize := func(raw map[string]any) string {
		delete(raw, "elapsed_ms")
		delete(raw, "cached")
		b, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var def, se map[string]any
	mustGet(t, base+"/v1/topk?k=2&gamma=3", &def)
	mustGet(t, base+"/v1/topk?k=2&gamma=3&dataset=se", &se)
	a, b := normalize(def), normalize(se)
	if a != b {
		t.Errorf("semi-external dataset diverges from in-memory serving\n mem: %s\n  se: %s", a, b)
	}

	var list struct {
		Datasets []struct {
			Name    string `json:"name"`
			Backend string `json:"backend"`
		} `json:"datasets"`
	}
	mustGet(t, base+"/v1/datasets", &list)
	if len(list.Datasets) != 2 {
		t.Fatalf("listed %d datasets, want 2", len(list.Datasets))
	}
	backends := map[string]string{}
	for _, d := range list.Datasets {
		backends[d.Name] = d.Backend
	}
	if backends["default"] != "memory" || backends["se"] != "semiext" {
		t.Errorf("backends = %v", backends)
	}

	// The cache marks a repeated query.
	var again map[string]any
	mustGet(t, base+"/v1/topk?k=2&gamma=3&dataset=se", &again)
	if again["cached"] != true {
		t.Error("repeated query not served from cache")
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
}

func TestServeBadGraph(t *testing.T) {
	cfg := testConfig(filepath.Join(t.TempDir(), "missing.txt"))
	if err := serve(context.Background(), cfg, nil); err == nil {
		t.Error("missing graph file: want error")
	}
}

// TestServeWithIndex boots with a prebuilt index and checks queries are
// answered from it (index_queries on /v1/stats) with the same payload the
// online path produces.
func TestServeWithIndex(t *testing.T) {
	graphPath := writeFixture(t)
	g, err := influcomm.LoadGraph(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := influcomm.BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	indexPath := filepath.Join(t.TempDir(), "g.icx")
	if err := influcomm.SaveIndex(indexPath, ix); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(graphPath)
	cfg.indexPath = indexPath
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- serve(ctx, cfg, ready) }()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	var topk struct {
		Communities []struct {
			Influence float64 `json:"influence"`
		} `json:"communities"`
	}
	mustGet(t, base+"/v1/topk?k=2&gamma=3", &topk)
	if len(topk.Communities) != 2 || topk.Communities[0].Influence != 13 {
		t.Errorf("index-served topk = %+v", topk)
	}
	var stats struct {
		IndexLoaded  bool  `json:"index_loaded"`
		IndexQueries int64 `json:"index_queries"`
		LocalQueries int64 `json:"local_queries"`
	}
	mustGet(t, base+"/v1/stats", &stats)
	if !stats.IndexLoaded || stats.IndexQueries != 1 || stats.LocalQueries != 0 {
		t.Errorf("stats = %+v, want index_loaded with 1 index query", stats)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
}

// TestServeStaleIndexRejected: an index built for a different graph must
// fail startup with a clear error, not serve wrong answers.
func TestServeStaleIndexRejected(t *testing.T) {
	var b influcomm.Builder
	for id := int32(0); id < 4; id++ {
		b.AddVertex(id, float64(id+1))
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	small, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := influcomm.BuildIndex(small)
	if err != nil {
		t.Fatal(err)
	}
	indexPath := filepath.Join(t.TempDir(), "stale.icx")
	if err := influcomm.SaveIndex(indexPath, ix); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(writeFixture(t)) // 10-vertex graph, 4-vertex index
	cfg.indexPath = indexPath
	err = serve(context.Background(), cfg, nil)
	if err == nil {
		t.Fatal("stale index: want startup error")
	}
	if !strings.Contains(err.Error(), "stale index") {
		t.Errorf("error %q does not name the stale index", err)
	}
}

// TestServeSemiExtIndexRejected: an index needs whole-graph access, so a
// semiext dataset carrying one fails startup naming the backends that can.
func TestServeSemiExtIndexRejected(t *testing.T) {
	graphPath, edgePath := writeRankFixture(t)
	cfg := testConfig(graphPath)
	cfg.datasets = []datasetSpec{{name: "se", path: edgePath, backend: "semiext", index: "unused.icx"}}
	err := serve(context.Background(), cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "whole-graph access (the memory or mutable backend); the semiext backend cannot carry one") {
		t.Errorf("semiext+index: got %v", err)
	}
}

func mustGet(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

// TestServeMutableDataset boots the server with a mutable edge-file
// dataset, applies updates over HTTP, and checks that a graceful shutdown
// compacts the write-ahead log back into the edge file.
func TestServeMutableDataset(t *testing.T) {
	_, edgePath := writeRankFixture(t)
	graphPath := writeFixture(t)
	cfg := testConfig(graphPath)
	cfg.datasets = []datasetSpec{{name: "dyn", path: edgePath, mutable: true}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- serve(ctx, cfg, ready) }()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	var before struct {
		Edges int64 `json:"edges"`
	}
	mustGet(t, base+"/v1/datasets", &struct{}{})
	resp, err := http.Post(base+"/v1/admin/datasets/dyn/updates", "application/json",
		strings.NewReader(`{"updates":[{"op":"delete","u":0,"v":1},{"op":"delete","u":2,"v":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var ur struct {
		Deleted       int    `json:"deleted"`
		SnapshotEpoch uint64 `json:"snapshot_epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ur.Deleted != 2 || ur.SnapshotEpoch != 1 {
		t.Fatalf("updates: status %d, %+v", resp.StatusCode, ur)
	}
	var list struct {
		Datasets []struct {
			Name           string `json:"name"`
			Backend        string `json:"backend"`
			Edges          int64  `json:"edges"`
			Mutable        bool   `json:"mutable"`
			UpdatesApplied int64  `json:"updates_applied"`
		} `json:"datasets"`
	}
	mustGet(t, base+"/v1/datasets", &list)
	for _, d := range list.Datasets {
		if d.Name == "dyn" {
			if d.Backend != "mutable" || !d.Mutable || d.UpdatesApplied != 2 || d.Edges != 14 {
				t.Fatalf("dyn dataset after updates: %+v", d)
			}
			before.Edges = d.Edges
		}
	}
	if before.Edges == 0 {
		t.Fatal("dyn dataset missing from listing")
	}

	// Graceful shutdown must compact: log gone, edge file holds 14 edges.
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	if _, err := os.Stat(edgePath + ".log"); !os.IsNotExist(err) {
		t.Fatalf("update log survived clean shutdown: %v", err)
	}
	st, err := influcomm.OpenMutableStore(edgePath)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NumEdges() != 14 || st.UpdatesApplied() != 0 {
		t.Fatalf("compacted edge file has %d edges and %d replayed updates, want 14 and 0",
			st.NumEdges(), st.UpdatesApplied())
	}
}
