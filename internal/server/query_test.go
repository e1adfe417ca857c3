package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"influcomm/internal/index"
	"influcomm/internal/query"
	"influcomm/internal/store"
)

// postQuery POSTs a DSL batch to ts and returns the status and raw body.
func postQuery(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// rawQueryResponse mirrors queryResponse but keeps each node's communities
// as raw JSON, so byte-identity against /v1/topk can be asserted on the
// serialized form rather than a re-marshaled decode.
type rawQueryResponse struct {
	Query     string `json:"query"`
	Dataset   string `json:"dataset"`
	PlanNodes int    `json:"plan_nodes"`
	CSEHits   int    `json:"cse_hits"`
	Results   []struct {
		Statement string `json:"statement"`
		Nodes     []struct {
			K           int             `json:"k"`
			Gamma       int             `json:"gamma"`
			Mode        string          `json:"mode"`
			Path        string          `json:"path"`
			Shared      bool            `json:"shared"`
			Communities json.RawMessage `json:"communities"`
		} `json:"nodes"`
	} `json:"results"`
	Error string `json:"error"`
}

// topKCommunities fetches a /v1/topk answer's communities as raw JSON.
func topKCommunities(t *testing.T, ts *httptest.Server, params string) json.RawMessage {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/topk?" + params)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Communities json.RawMessage `json:"communities"`
		Error       string          `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk %s: status %d: %s", params, resp.StatusCode, body.Error)
	}
	return body.Communities
}

// dslBackendsServer serves the same graph from all three backends: the
// default in-memory dataset, a semi-external "se" dataset, and a mutable
// "dyn" dataset, plus an in-memory "ix" dataset carrying a prebuilt index.
// rankGraph keeps their answers byte-comparable.
func dslBackendsServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	ms, err := store.OpenMutableGraph(rankGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	ixg := rankGraph(t)
	ix, err := index.Build(ixg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(rankGraph(t),
		WithDataset("se", DatasetConfig{Store: edgeFileStore(t, rankGraph(t))}),
		WithDataset("dyn", DatasetConfig{Store: ms}),
		WithDataset("ix", DatasetConfig{Graph: ixg, Index: ix}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// TestPlanFixedShapeByteIdentity is the DSL's core property: a query whose
// plan reduces to a fixed (k, γ, semantics) shape returns communities
// byte-identical to /v1/topk with the same shape, on every backend, and
// reports the access path that answered it.
func TestPlanFixedShapeByteIdentity(t *testing.T) {
	_, ts := dslBackendsServer(t)
	shapes := []struct {
		k     int
		gamma int
		sem   string
		flag  string
	}{
		{3, 2, "core", ""},
		{5, 3, "core", ""},
		{2, 3, "noncontainment", "&noncontainment=1"},
		{3, 3, "truss", "&truss=1"},
	}
	for _, dataset := range []string{"default", "se", "dyn", "ix"} {
		for _, sh := range shapes {
			if dataset == "se" && sh.sem == "truss" {
				continue // truss needs whole-graph access
			}
			src := fmt.Sprintf("topk(k=%d, gamma=%d, semantics=%s)", sh.k, sh.gamma, sh.sem)
			code, body := postQuery(t, ts, fmt.Sprintf(`{"query":%q,"dataset":%q}`, src, dataset))
			var qr rawQueryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatalf("%s on %s: unmarshal %s: %v", src, dataset, body, err)
			}
			if code != http.StatusOK {
				t.Fatalf("%s on %s: status %d: %s", src, dataset, code, qr.Error)
			}
			if len(qr.Results) != 1 || len(qr.Results[0].Nodes) != 1 {
				t.Fatalf("%s on %s: unexpected result shape: %s", src, dataset, body)
			}
			wantPath := query.PathLocal
			switch {
			case sh.sem == "truss":
				wantPath = query.PathTruss
			case sh.sem == "core" && dataset == "ix":
				wantPath = query.PathIndex
			}
			if p := qr.Results[0].Nodes[0].Path; p != wantPath {
				t.Errorf("%s on %s: path %q, want %q", src, dataset, p, wantPath)
			}
			got := qr.Results[0].Nodes[0].Communities
			want := topKCommunities(t, ts, fmt.Sprintf("k=%d&gamma=%d&dataset=%s%s", sh.k, sh.gamma, dataset, sh.flag))
			if string(got) != string(want) {
				t.Errorf("%s on %s:\ndsl  %s\ntopk %s", src, dataset, got, want)
			}
		}
	}
}

// TestPlanBatchExpansionAndFilters covers the composite surface: γ ranges
// and semantics sets expand to one node each, filters apply per statement,
// and the echoed batch is canonical.
func TestPlanBatchExpansionAndFilters(t *testing.T) {
	_, ts := dslBackendsServer(t)
	code, body := postQuery(t, ts,
		`{"query":"topk(gamma=2..3, k=5, semantics=noncontainment+core) | influence(>=15) | limit(1); topk(k=2, gamma=2)"}`)
	var qr rawQueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, qr.Error)
	}
	wantCanon := "topk(k=5, gamma=2..3, semantics=core+noncontainment) | influence(>=15) | limit(1); topk(k=2, gamma=2, semantics=core)"
	if qr.Query != wantCanon {
		t.Errorf("canonical echo = %q, want %q", qr.Query, wantCanon)
	}
	if qr.PlanNodes != 5 {
		t.Errorf("plan_nodes = %d, want 5 (2 gammas x 2 semantics + 1)", qr.PlanNodes)
	}
	if len(qr.Results) != 2 || len(qr.Results[0].Nodes) != 4 || len(qr.Results[1].Nodes) != 1 {
		t.Fatalf("result shape: %s", body)
	}
	for _, n := range qr.Results[0].Nodes {
		var comms []communityJSON
		if err := json.Unmarshal(n.Communities, &comms); err != nil {
			t.Fatal(err)
		}
		if len(comms) > 1 {
			t.Errorf("limit(1) violated: %d communities", len(comms))
		}
		for _, c := range comms {
			if c.Influence < 15 {
				t.Errorf("influence(>=15) violated: %v", c.Influence)
			}
		}
	}
}

// TestCSESharedDecompositionComputedOnce is the sharing property: across N
// concurrent overlapping batches, each distinct plan node is decomposed
// exactly once — strictly fewer decompositions than the same statements
// run independently — while every answer stays byte-identical to its
// fixed-shape equivalent.
func TestCSESharedDecompositionComputedOnce(t *testing.T) {
	s, ts := dslBackendsServer(t)
	ds := s.registry.acquireLookup(DefaultDataset)
	if ds == nil {
		t.Fatal("default dataset missing")
	}
	defer ds.release()

	var mu sync.Mutex
	execs := make(map[string]int)
	ds.sharer.SetExecHook(func(key string) {
		mu.Lock()
		execs[key]++
		mu.Unlock()
	})
	defer ds.sharer.SetExecHook(nil)

	// 3 plan nodes per batch (γ2 twice, γ3 once), 2 distinct keys.
	const batches = 4
	src := `{"query":"topk(k=3, gamma=2); topk(k=3, gamma=2..3) | limit(2)"}`
	bodies := make([][]byte, batches)
	var wg sync.WaitGroup
	for i := 0; i < batches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postQuery(t, ts, src)
			if code != http.StatusOK {
				t.Errorf("batch %d: status %d: %s", i, code, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	mu.Lock()
	total := 0
	for key, n := range execs {
		total += n
		if n != 1 {
			t.Errorf("node %q decomposed %d times, want exactly 1", key, n)
		}
	}
	mu.Unlock()
	if want := 2; total != want {
		t.Errorf("%d decompositions for %d submitted nodes, want %d", total, 3*batches, want)
	}
	// The acceptance bound: strictly fewer decompositions than independent
	// execution of every submitted node.
	if total >= 3*batches {
		t.Errorf("sharing saved nothing: %d decompositions for %d nodes", total, 3*batches)
	}
	// Each batch answers its repeated γ2 node itself, so the sharer sees
	// two nodes per batch and shares all but the two executions. Read it
	// before the /v1/topk reference requests below, which share its memo.
	if ds.sharer.Execs() != 2 {
		t.Errorf("sharer execs = %d, want 2", ds.sharer.Execs())
	}
	if ds.sharer.Hits() != int64(2*batches-2) {
		t.Errorf("sharer hits = %d, want %d", ds.sharer.Hits(), 2*batches-2)
	}

	// Every batch's communities match the fixed-shape answer, and the
	// per-batch counters add up: all but the first-executed instance of
	// each key is a CSE hit.
	hits := 0
	for i, body := range bodies {
		var qr rawQueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		hits += qr.CSEHits
		for si, st := range qr.Results {
			for ni, n := range st.Nodes {
				want := topKCommunities(t, ts, fmt.Sprintf("k=3&gamma=%d", n.Gamma))
				got := n.Communities
				if si == 1 {
					// limit(2) truncates; compare the prefix via decode.
					var w, g []communityJSON
					if err := json.Unmarshal(want, &w); err != nil {
						t.Fatal(err)
					}
					if err := json.Unmarshal(got, &g); err != nil {
						t.Fatal(err)
					}
					if len(g) > 2 {
						t.Errorf("batch %d stmt %d node %d: limit(2) violated", i, si, ni)
					}
					continue
				}
				if string(got) != string(want) {
					t.Errorf("batch %d stmt %d node %d:\ndsl  %s\ntopk %s", i, si, ni, got, want)
				}
			}
		}
	}
	if want := 3*batches - 2; hits != want {
		t.Errorf("summed cse_hits = %d, want %d", hits, want)
	}
}

// TestCSESharingNeverCrossesEpochs pins the safety side of sharing: an
// update that publishes a new snapshot epoch invalidates every shared
// result, so the same batch decomposes afresh rather than serving the
// pre-update answer.
func TestCSESharingNeverCrossesEpochs(t *testing.T) {
	s, ts := dslBackendsServer(t)
	ds := s.registry.acquireLookup("dyn")
	if ds == nil {
		t.Fatal("dyn dataset missing")
	}
	defer ds.release()

	var mu sync.Mutex
	execs := make(map[string]int)
	ds.sharer.SetExecHook(func(key string) {
		mu.Lock()
		execs[key]++
		mu.Unlock()
	})
	defer ds.sharer.SetExecHook(nil)

	const src = `{"query":"topk(k=2, gamma=2)","dataset":"dyn"}`
	if code, body := postQuery(t, ts, src); code != http.StatusOK {
		t.Fatalf("first batch: status %d: %s", code, body)
	}
	// Re-running at the same epoch is served from the memo: no new exec.
	if code, body := postQuery(t, ts, src); code != http.StatusOK {
		t.Fatalf("repeat batch: status %d: %s", code, body)
	}
	mu.Lock()
	if n := len(execs); n != 1 {
		t.Fatalf("distinct keys before update = %d, want 1", n)
	}
	for key, n := range execs {
		if n != 1 {
			t.Fatalf("node %q decomposed %d times before update, want 1", key, n)
		}
	}
	mu.Unlock()

	// An effective update moves the epoch; the identical batch must not
	// reuse the pre-update decomposition.
	resp, body := postUpdates(t, ts, "dyn",
		`{"updates":[{"op":"insert","u":0,"v":9}]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d: %s", resp.StatusCode, body)
	}
	if code, qbody := postQuery(t, ts, src); code != http.StatusOK {
		t.Fatalf("post-update batch: status %d: %s", code, qbody)
	}
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, n := range execs {
		total += n
	}
	if total != 2 {
		t.Errorf("decompositions across the epoch change = %d, want 2 (one per epoch)", total)
	}
}

// TestQueryBatchAnswersPinnedSnapshot: a /v1/query batch runs every node on
// the snapshot it pinned, so the snapshot_epoch it reports is the one that
// answered. An update published after the pin, just before the first node
// executes, must not reach the batch.
func TestQueryBatchAnswersPinnedSnapshot(t *testing.T) {
	s, ts := dslBackendsServer(t)
	ds := s.registry.acquireLookup("dyn")
	if ds == nil {
		t.Fatal("dyn dataset missing")
	}
	defer ds.release()
	// The epoch-0 answer comes from a second server over the same graph: a
	// /v1/topk here would memoize the very node the batch must execute.
	_, ref := dslBackendsServer(t)
	before := topKCommunities(t, ref, "k=3&gamma=2&dataset=dyn")

	// Vertex 4 gains a second edge into the top K4 {0,1,2,3}, which
	// changes the top-3 at γ = 2.
	var once sync.Once
	ds.sharer.SetExecHook(func(string) {
		once.Do(func() {
			if _, err := store.AsMutable(ds.st).ApplyUpdates(context.Background(), []store.EdgeUpdate{{U: 4, V: 1}}); err != nil {
				t.Errorf("update: %v", err)
			}
		})
	})
	defer ds.sharer.SetExecHook(nil)

	code, body := postQuery(t, ts, `{"query":"topk(k=3, gamma=2)","dataset":"dyn"}`)
	var qr struct {
		rawQueryResponse
		SnapshotEpoch uint64 `json:"snapshot_epoch"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	if code != http.StatusOK || len(qr.Results) != 1 || len(qr.Results[0].Nodes) != 1 {
		t.Fatalf("status %d: %s", code, body)
	}
	if qr.SnapshotEpoch != 0 {
		t.Errorf("snapshot_epoch = %d, want the pinned 0", qr.SnapshotEpoch)
	}
	if got := qr.Results[0].Nodes[0].Communities; string(got) != string(before) {
		t.Errorf("batch pinned at epoch 0 answered from another snapshot:\ndsl     %s\nepoch 0 %s", got, before)
	}
	if after := topKCommunities(t, ts, "k=3&gamma=2&dataset=dyn"); string(after) == string(before) {
		t.Fatalf("the update left the top-3 unchanged (%s); the test proves nothing", after)
	}
}

// TestPathReportsSharedExecution: a node served from the sharer's memo
// reports the path of the execution it shares, even when an index attached
// at the same epoch since (a bootstrap or background rebuild does that);
// a fresh node at that epoch then reports the index.
func TestPathReportsSharedExecution(t *testing.T) {
	g := rankGraph(t)
	s, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	node := func(src string) (string, bool) {
		t.Helper()
		code, body := postQuery(t, ts, fmt.Sprintf(`{"query":%q}`, src))
		var qr rawQueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("%s: unmarshal %s: %v", src, body, err)
		}
		if code != http.StatusOK || len(qr.Results) != 1 || len(qr.Results[0].Nodes) != 1 {
			t.Fatalf("%s: status %d: %s", src, code, body)
		}
		n := qr.Results[0].Nodes[0]
		return n.Path, n.Shared
	}

	const src = "topk(k=3, gamma=2, semantics=core)"
	if path, shared := node(src); path != query.PathLocal || shared {
		t.Fatalf("first run: path %q shared %v, want %q unshared", path, shared, query.PathLocal)
	}
	ds := s.registry.acquireLookup(DefaultDataset)
	if ds == nil {
		t.Fatal("default dataset missing")
	}
	defer ds.release()
	ix, err := index.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	ds.attached.Store(&attachedIndex{ix: ix, epoch: ds.epoch()})

	if path, shared := node(src); path != query.PathLocal || !shared {
		t.Errorf("memoized run: path %q shared %v, want %q shared", path, shared, query.PathLocal)
	}
	if n := s.metrics.indexServed.Load(); n != 0 {
		t.Errorf("index served %d queries before a fresh node, want 0", n)
	}
	if path, shared := node("topk(k=2, gamma=2, semantics=core)"); path != query.PathIndex || shared {
		t.Errorf("fresh run: path %q shared %v, want %q unshared", path, shared, query.PathIndex)
	}
	if n := s.metrics.indexServed.Load(); n != 1 {
		t.Errorf("index served %d queries, want 1", n)
	}
}

// TestCSENearSharesReweight covers the seed-scoped path: one near seed set
// expanded over a γ range reweights the graph once, each γ node searches
// the shared reweighted graph, and the answer matches the public facade's
// TopKNearQuery semantics.
func TestCSENearSharesReweight(t *testing.T) {
	s, ts := dslBackendsServer(t)
	ds := s.registry.acquireLookup(DefaultDataset)
	if ds == nil {
		t.Fatal("default dataset missing")
	}
	defer ds.release()

	var mu sync.Mutex
	execs := make(map[string]int)
	ds.sharer.SetExecHook(func(key string) {
		mu.Lock()
		execs[key]++
		mu.Unlock()
	})
	defer ds.sharer.SetExecHook(nil)

	code, body := postQuery(t, ts, `{"query":"near(seeds=[0,1], k=2, gamma=2..3)"}`)
	var qr rawQueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, qr.Error)
	}
	if len(qr.Results) != 1 || len(qr.Results[0].Nodes) != 2 {
		t.Fatalf("result shape: %s", body)
	}
	for _, n := range qr.Results[0].Nodes {
		var comms []communityJSON
		if err := json.Unmarshal(n.Communities, &comms); err != nil {
			t.Fatal(err)
		}
		if len(comms) == 0 {
			t.Errorf("near γ=%d: no communities", n.Gamma)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	reweights := 0
	for key, n := range execs {
		if strings.HasPrefix(key, "reweight|") {
			reweights += n
		}
	}
	if reweights != 1 {
		t.Errorf("reweight executed %d times for a 2-node γ range, want 1", reweights)
	}
}

// TestPlanQueryErrors covers the handler's failure surface.
func TestPlanQueryErrors(t *testing.T) {
	_, ts := dslBackendsServer(t)
	cases := []struct {
		name string
		body string
		code int
		frag string
	}{
		{"parse error", `{"query":"topk(k=0)"}`, http.StatusBadRequest, "k"},
		{"syntax error", `{"query":"frobnicate()"}`, http.StatusBadRequest, "query:"},
		{"bad json", `{"query": `, http.StatusBadRequest, "bad request body"},
		{"unknown dataset", `{"query":"topk(k=1)","dataset":"nope"}`, http.StatusNotFound, "not loaded"},
		{"k too large", `{"query":"topk(k=99999999)"}`, http.StatusBadRequest, "k must be in"},
		{"near on semiext", `{"query":"near(seeds=[1], k=2)","dataset":"se"}`, http.StatusBadRequest, "whole-graph"},
		{"truss on semiext", `{"query":"topk(k=2, gamma=3, semantics=truss)","dataset":"se"}`, http.StatusBadRequest, "whole-graph"},
		{"near rejects truss", `{"query":"near(seeds=[1], semantics=truss)"}`, http.StatusBadRequest, "truss"},
	}
	for _, tc := range cases {
		code, body := postQuery(t, ts, tc.body)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.code, body)
		}
		if !strings.Contains(string(body), tc.frag) {
			t.Errorf("%s: body %s does not mention %q", tc.name, body, tc.frag)
		}
	}
}

// BenchmarkBatchCSE measures a DSL batch whose statements overlap: after
// the first request warms the sharer's memo, every plan node is a CSE hit,
// so the number is dominated by parse + plan + filter + render — the
// fixed overhead sharing cannot remove. Gated in CI against
// BENCH_baseline.json.
func BenchmarkBatchCSE(b *testing.B) {
	s, err := New(rankGraph(b))
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := `{"query":"topk(k=5, gamma=2..4); topk(k=5, gamma=2..3) | limit(2); topk(k=5, gamma=4, semantics=noncontainment)"}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// TestPlanQueryStatsCounters pins the new /v1/stats rows: DSL batches
// count under dsl_queries, their expansion under plan_nodes, and shared
// nodes under cse_hits.
func TestPlanQueryStatsCounters(t *testing.T) {
	_, ts := dslBackendsServer(t)
	if code, body := postQuery(t, ts, `{"query":"topk(k=2, gamma=2); topk(k=2, gamma=2)"}`); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var stats statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.DSLQueries != 1 {
		t.Errorf("dsl_queries = %d, want 1", stats.DSLQueries)
	}
	if stats.PlanNodes != 2 {
		t.Errorf("plan_nodes = %d, want 2", stats.PlanNodes)
	}
	if stats.CSEHits != 1 {
		t.Errorf("cse_hits = %d, want 1", stats.CSEHits)
	}
}

// fetchTopK fetches one /v1/topk response; safe off the test goroutine.
func fetchTopK(ts *httptest.Server, params string) (topKResponse, error) {
	var out topKResponse
	resp, err := http.Get(ts.URL + "/v1/topk?" + params)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("topk %s: status %d", params, resp.StatusCode)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// getTopK is fetchTopK on the test goroutine.
func getTopK(t *testing.T, ts *httptest.Server, params string) topKResponse {
	t.Helper()
	resp, err := fetchTopK(ts, params)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCSETopKConcurrentMissesExecuteOnce: identical /v1/topk requests that
// all miss execute once; every other response is marked cached and
// carries the same communities.
func TestCSETopKConcurrentMissesExecuteOnce(t *testing.T) {
	s, err := New(rankGraph(t), WithMaxInFlight(-1))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	ds := s.registry.lookup(DefaultDataset)

	// The execution waits until every request is admitted, so none of them
	// can have found a finished answer when it arrived.
	const clients = 8
	var execs atomic.Int64
	ds.sharer.SetExecHook(func(string) {
		execs.Add(1)
		for deadline := time.Now().Add(10 * time.Second); s.metrics.inFlight.Load() < clients && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	})
	defer ds.sharer.SetExecHook(nil)

	resps := make([]topKResponse, clients)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if resps[i], err = fetchTopK(ts, "k=3&gamma=2"); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Errorf("%d concurrent identical misses executed %d times, want 1", clients, n)
	}
	cached := 0
	for i, r := range resps {
		if r.Cached {
			cached++
		}
		if !reflect.DeepEqual(r.Communities, resps[0].Communities) || len(r.Communities) == 0 {
			t.Errorf("response %d: communities %v, want %v", i, r.Communities, resps[0].Communities)
		}
	}
	if cached != clients-1 {
		t.Errorf("%d responses cached, want %d", cached, clients-1)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.CacheHits != clients-1 || st.CacheMisses != 1 {
		t.Errorf("cache hits=%d misses=%d, want %d/1", st.CacheHits, st.CacheMisses, clients-1)
	}
}

// TestCSETopKAndQueryShareOneExecution: a /v1/topk request and a /v1/query
// node of the same shape are one computation, whichever arrives first, and
// answer byte-identical communities, which equal the brute-force answer.
func TestCSETopKAndQueryShareOneExecution(t *testing.T) {
	shapes := []struct {
		topk, dsl string
		k         int
		gamma     int32
		mode      string
	}{
		{"k=3&gamma=2", "topk(k=3, gamma=2)", 3, 2, query.SemCore},
		{"k=2&gamma=3&noncontainment=1", "topk(k=2, gamma=3, semantics=noncontainment)", 2, 3, query.SemNonContainment},
		{"k=3&gamma=3&mode=truss", "topk(k=3, gamma=3, semantics=truss)", 3, 3, query.SemTruss},
	}
	for _, topkFirst := range []bool{true, false} {
		for _, sh := range shapes {
			s, ts := dslBackendsServer(t)
			ds := s.registry.lookup(DefaultDataset)
			var execs atomic.Int64
			ds.sharer.SetExecHook(func(string) { execs.Add(1) })

			node := func() rawQueryResponse {
				code, body := postQuery(t, ts, fmt.Sprintf(`{"query":%q}`, sh.dsl))
				var qr rawQueryResponse
				if err := json.Unmarshal(body, &qr); err != nil || code != http.StatusOK || len(qr.Results) != 1 || len(qr.Results[0].Nodes) != 1 {
					t.Fatalf("%s: status %d: %s", sh.dsl, code, body)
				}
				return qr
			}
			var viaTopK json.RawMessage
			var qr rawQueryResponse
			var cached bool
			if topkFirst {
				viaTopK = topKCommunities(t, ts, sh.topk)
				qr = node()
				cached = qr.Results[0].Nodes[0].Shared
			} else {
				qr = node()
				cached = getTopK(t, ts, sh.topk).Cached
				viaTopK = topKCommunities(t, ts, sh.topk)
			}
			if n := execs.Load(); n != 1 {
				t.Errorf("%s (topk first: %v): %d executions, want 1", sh.dsl, topkFirst, n)
			}
			if !cached {
				t.Errorf("%s (topk first: %v): the second request did not share the first's execution", sh.dsl, topkFirst)
			}
			if got := qr.Results[0].Nodes[0].Communities; string(got) != string(viaTopK) {
				t.Errorf("%s (topk first: %v):\ndsl  %s\ntopk %s", sh.dsl, topkFirst, got, viaTopK)
			}
			if want := naiveJSON(t, rankGraph(t), sh.k, sh.gamma, sh.mode); !bytes.Equal(viaTopK, want) {
				t.Errorf("%s (topk first: %v):\ntopk        %s\nbrute force %s", sh.dsl, topkFirst, viaTopK, want)
			}
		}
	}
}

// TestCSEMemoHoldsNewestEpochOnly: on a mutable dataset the first query
// after an update frees every older answer (a near node's reweighted graph
// included), and a request pinned before the update is answered from its
// snapshot without being memoized.
func TestCSEMemoHoldsNewestEpochOnly(t *testing.T) {
	s, ts := dslBackendsServer(t)
	ds := s.registry.lookup("dyn")
	if code, body := postQuery(t, ts, `{"query":"near(seeds=[0,1], k=2, gamma=2)","dataset":"dyn"}`); code != http.StatusOK {
		t.Fatalf("near batch: status %d: %s", code, body)
	}
	if n := ds.sharer.Len(); n != 2 {
		t.Fatalf("memo holds %d entries after a near node, want 2 (reweight + node)", n)
	}

	// The batch below pins epoch 0. Its execution publishes epoch 1 and
	// answers a /v1/topk there before the batch's own answer is ready.
	var fired atomic.Bool
	ds.sharer.SetExecHook(func(string) {
		if !fired.CompareAndSwap(false, true) {
			return
		}
		if _, err := store.AsMutable(ds.st).ApplyUpdates(context.Background(), []store.EdgeUpdate{{U: 4, V: 1}}); err != nil {
			t.Errorf("update: %v", err)
		}
		if r, err := fetchTopK(ts, "k=1&gamma=2&dataset=dyn"); err != nil || r.Cached {
			t.Errorf("the first query at epoch 1: cached %v, err %v", r.Cached, err)
		}
	})
	defer ds.sharer.SetExecHook(nil)

	code, body := postQuery(t, ts, `{"query":"topk(k=3, gamma=2)","dataset":"dyn"}`)
	var qr struct {
		rawQueryResponse
		SnapshotEpoch uint64 `json:"snapshot_epoch"`
	}
	if err := json.Unmarshal(body, &qr); err != nil || code != http.StatusOK || len(qr.Results) != 1 {
		t.Fatalf("pinned batch: status %d: %s", code, body)
	}
	if !fired.Load() || qr.SnapshotEpoch != 0 {
		t.Fatalf("hook fired %v, batch epoch %d: the batch was not pinned before the update", fired.Load(), qr.SnapshotEpoch)
	}
	var comms []communityJSON
	if err := json.Unmarshal(qr.Results[0].Nodes[0].Communities, &comms); err != nil || len(comms) == 0 {
		t.Fatalf("pinned batch answered no communities: %s", body)
	}
	// Only the epoch-1 /v1/topk answer is left.
	if n := ds.sharer.Len(); n != 1 {
		t.Errorf("memo holds %d entries, want 1 (the epoch-1 answer only)", n)
	}
	if r := getTopK(t, ts, "k=1&gamma=2&dataset=dyn"); !r.Cached {
		t.Error("the epoch-1 answer was not memoized")
	}
}

// TestCSEBatchRepeatsWithoutMemo: with the memo off, a node repeated within
// one batch is still computed once.
func TestCSEBatchRepeatsWithoutMemo(t *testing.T) {
	s, err := New(rankGraph(t), WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	ds := s.registry.lookup(DefaultDataset)
	var execs atomic.Int64
	ds.sharer.SetExecHook(func(string) { execs.Add(1) })

	code, body := postQuery(t, ts, `{"query":"topk(k=2, gamma=2); topk(k=2, gamma=2..3) | limit(1)"}`)
	var qr rawQueryResponse
	if err := json.Unmarshal(body, &qr); err != nil || code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if qr.CSEHits != 1 || execs.Load() != 2 {
		t.Errorf("cse_hits=%d executions=%d, want 1 and 2 (3 nodes, 2 distinct)", qr.CSEHits, execs.Load())
	}
	if n := ds.sharer.Len(); n != 0 {
		t.Errorf("memo holds %d entries at capacity 0", n)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.CacheCapacity != 0 || st.CacheEntries != 0 {
		t.Errorf("cache capacity=%d entries=%d, want 0/0", st.CacheCapacity, st.CacheEntries)
	}
}

// TestCSENearReweightsOncePerBatchWithoutMemo: a batch reweights each seed
// set once even when the memo keeps nothing — as for a batch pinned before
// an update, whose epoch the memo no longer holds.
func TestCSENearReweightsOncePerBatchWithoutMemo(t *testing.T) {
	s, err := New(rankGraph(t), WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	ds := s.registry.lookup(DefaultDataset)
	var reweights atomic.Int64
	ds.sharer.SetExecHook(func(key string) {
		if strings.HasPrefix(key, "reweight|") {
			reweights.Add(1)
		}
	})

	code, body := postQuery(t, ts, `{"query":"near(seeds=[0,1], k=2, gamma=2..4)"}`)
	var qr rawQueryResponse
	if err := json.Unmarshal(body, &qr); err != nil || code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if len(qr.Results) != 1 || len(qr.Results[0].Nodes) != 3 {
		t.Fatalf("result shape: %s", body)
	}
	if n := reweights.Load(); n != 1 {
		t.Errorf("reweight executed %d times for a 3-node γ range, want 1", n)
	}
}
