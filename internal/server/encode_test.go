package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"influcomm/internal/cluster"
	"influcomm/internal/gen"
	"influcomm/internal/query"
)

// appendFlat writes a flat community list the way encoding/json writes it,
// through the community appender the server uses.
func appendFlat(b []byte, comms []communityJSON) []byte {
	if comms == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range comms {
		if i > 0 {
			b = append(b, ',')
		}
		b = cluster.AppendCommunity(b, &comms[i])
	}
	return append(b, ']')
}

// encoderBytes is what json.NewEncoder(w).Encode(v) writes.
func encoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncodeEnvelopesMatchEncodingJSON pins the hand-written /v1/topk and
// /v1/query envelopes to json.NewEncoder over the documented structs:
// HTML-escaped strings (a size(<=n) statement prints <= as \u003c=), null
// for a nil list and [] for an empty one, the omitempty fields (shared,
// cached, accessed_vertices, snapshot_epoch) left out at zero, and
// elapsed_ms read only after the communities were written, so it covers
// rendering.
func TestEncodeEnvelopesMatchEncodingJSON(t *testing.T) {
	comm := communityJSON{Influence: 0.25, Size: 2, Keynode: 7, Members: []int32{3, 7}, Labels: []string{"<a>", "b&c"}}
	small := communityJSON{Influence: 1e-7, Size: 1, Keynode: 1, Members: []int32{1}}
	topks := []topKResponse{
		{K: 2, Gamma: 3, Mode: "core", Path: "index", Communities: []communityJSON{comm, small}, ElapsedMS: 1.25},
		{K: 1, Gamma: 9, Mode: "core", Path: "localsearch", ElapsedMS: 0.0004, AccessedVertices: 17},
		{K: 1, Gamma: 9, Mode: "truss", Path: "truss", Communities: []communityJSON{}, Cached: true},
		{K: 10, Gamma: 1, Mode: "noncontainment", Path: "localsearch", Communities: []communityJSON{small}, ElapsedMS: 1e21, AccessedVertices: 3, Cached: true},
	}
	for i := range topks {
		r := &topks[i]
		rendered := false
		got := appendTopK(nil, r, func(b []byte) []byte {
			rendered = true
			return appendFlat(b, r.Communities)
		}, func() float64 {
			if !rendered {
				t.Errorf("topk %d: elapsed_ms read before the communities were rendered", i)
			}
			return r.ElapsedMS
		})
		if want := encoderBytes(t, r); !bytes.Equal(got, want) {
			t.Errorf("topk %d\n got %s\nwant %s", i, got, want)
		}
	}

	queries := []queryResponse{
		{
			Query:   "topk(k=3, gamma=2, semantics=core) | size(<=4); topk(k=3, gamma=2, semantics=core)",
			Dataset: "default",
			Results: []statementResult{
				{Statement: "topk(k=3, gamma=2, semantics=core) | size(<=4)", Nodes: []nodeResult{
					{K: 3, Gamma: 2, Mode: "core", Path: "localsearch", Communities: []communityJSON{}, AccessedVertices: 9},
				}},
				{Statement: "topk(k=3, gamma=2, semantics=core)", Nodes: []nodeResult{
					{K: 3, Gamma: 2, Mode: "core", Path: "localsearch", Shared: true, Communities: []communityJSON{comm}},
					{K: 3, Gamma: 3, Mode: "core", Path: "index"},
				}},
			},
			PlanNodes: 3, CSEHits: 1, SnapshotEpoch: 7, ElapsedMS: 2.5,
		},
		{Query: "q", Dataset: "a&b", Results: []statementResult{{Statement: "s"}}, ElapsedMS: 1e-9},
		{Query: "", Dataset: ""},
	}
	for i := range queries {
		r := &queries[i]
		rendered := 0
		got := appendQueryResponse(nil, r, func(b []byte, n *nodeResult) []byte {
			rendered++
			return appendFlat(b, n.Communities)
		}, func() float64 {
			total := 0
			for _, st := range r.Results {
				total += len(st.Nodes)
			}
			if rendered != total {
				t.Errorf("query %d: elapsed_ms read after %d of %d nodes were rendered", i, rendered, total)
			}
			return r.ElapsedMS
		})
		if want := encoderBytes(t, r); !bytes.Equal(got, want) {
			t.Errorf("query %d\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestEncodeLiveResponsesRoundTrip checks served bytes against
// encoding/json: each /v1/topk and /v1/query body must equal what
// json.NewEncoder writes for the struct it decodes into, and the cases the
// envelope table pins appear as served: \u003c in a size(<=n) statement,
// null for an empty answer without a predicate and [] after one.
func TestEncodeLiveResponsesRoundTrip(t *testing.T) {
	_, ts := dslBackendsServer(t)
	get := func(url string) []byte {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, b)
		}
		return b
	}
	for _, params := range []string{"k=3&gamma=2", "k=3&gamma=2", "k=2&gamma=3&mode=truss", "k=5&gamma=2&mode=noncontainment", "k=3&gamma=9", "k=3&gamma=2&dataset=se", "k=3&gamma=2&dataset=ix"} {
		body := get(ts.URL + "/v1/topk?" + params)
		var r topKResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if want := encoderBytes(t, &r); !bytes.Equal(body, want) {
			t.Errorf("/v1/topk?%s\n got %s\nwant %s", params, body, want)
		}
		if params == "k=3&gamma=9" && !bytes.Contains(body, []byte(`"communities":null`)) {
			t.Errorf("an empty /v1/topk answer is not null: %s", body)
		}
	}
	for _, tc := range []struct{ batch, has string }{
		{`topk(k=3, gamma=2) | size(<=4); topk(k=3, gamma=2)`, `size(\u003c=4)`},
		{`topk(k=3, gamma=9)`, `"communities":null`},
		{`topk(k=3, gamma=9) | size(>=1)`, `"communities":[]`},
		{`topk(k=3, gamma=2) | limit(0)`, `"communities":[]`},
		{`topk(k=3, gamma=2..3, semantics=core+truss) | label("*") | limit(2); topk(k=3, gamma=2)`, `"shared":true`},
		{`near(seeds=[0,1], k=2, gamma=2) | influence(>=12)`, `"nodes"`},
	} {
		for _, ds := range []string{"", "se"} {
			if ds == "se" && strings.Contains(tc.batch, "truss") || ds == "se" && strings.Contains(tc.batch, "near") {
				continue
			}
			req, _ := json.Marshal(queryRequest{Query: tc.batch, Dataset: ds})
			code, body := postQuery(t, ts, string(req))
			if code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.batch, code, body)
			}
			var r queryResponse
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatal(err)
			}
			if want := encoderBytes(t, &r); !bytes.Equal(body, want) {
				t.Errorf("%s on %q\n got %s\nwant %s", tc.batch, ds, body, want)
			}
			if !bytes.Contains(body, []byte(tc.has)) {
				t.Errorf("%s on %q: body lacks %s: %s", tc.batch, ds, tc.has, body)
			}
		}
	}
}

// TestRenderMemoizedForestParallel renders one memoized answer from many
// concurrent requests — /v1/topk hits and /v1/query nodes under different
// filters — and checks every body against the sequential one. Rendering
// only reads the shared forest; the race detector checks that it writes
// nothing.
func TestRenderMemoizedForestParallel(t *testing.T) {
	g, err := gen.SocialNetwork(2000, 4, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// No admission limit: at -cpu 1 the default sheds some of the eight
	// workers' requests with 503.
	s, err := New(g, WithMaxInFlight(0))
	if err != nil {
		t.Fatal(err)
	}
	ts := newServerOn(t, s)
	topk := ts.URL + "/v1/topk?k=200&gamma=2"
	batches := []string{
		`{"query":"topk(k=200, gamma=2)"}`,
		`{"query":"topk(k=200, gamma=2) | size(>=40); topk(k=200, gamma=2) | limit(5)"}`,
		`{"query":"topk(k=200, gamma=2) | size(<=30) | limit(50)"}`,
	}
	fetchTopKBody := func() ([]byte, error) {
		resp, err := http.Get(topk)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("/v1/topk: status %d: %s", resp.StatusCode, b)
		}
		var r topKResponse
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, err
		}
		if !r.Cached {
			return nil, errors.New("/v1/topk missed the memo")
		}
		return json.Marshal(r.Communities)
	}
	stripTimes := func(b []byte) ([]byte, error) {
		var r queryResponse
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, err
		}
		r.ElapsedMS = 0
		return json.Marshal(r)
	}
	fetchBatch := func(i int) ([]byte, error) {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(batches[i]))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("/v1/query: status %d: %s", resp.StatusCode, b)
		}
		return stripTimes(b)
	}

	getJSON(t, topk, new(topKResponse)) // memoize the answer
	wantTopK, err := fetchTopKBody()
	if err != nil {
		t.Fatal(err)
	}
	wantBatch := make([][]byte, len(batches))
	for i := range batches {
		if wantBatch[i], err = fetchBatch(i); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 6; it++ {
				var got, want []byte
				var err error
				if i := (w + it) % (len(batches) + 1); i == len(batches) {
					got, err = fetchTopKBody()
					want = wantTopK
				} else {
					got, err = fetchBatch(i)
					want = wantBatch[i]
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("worker %d: concurrent render differs from the sequential one", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMemoHoldsForestNotRenderedLists: at k = 2000, γ = 2 the top
// communities nest deeply, so their sizes sum to many times their union.
// The memoized node holds the forest, whose groups partition that union,
// not the rendered lists.
func TestMemoHoldsForestNotRenderedLists(t *testing.T) {
	g, err := gen.SocialNetwork(6000, 3, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	ts := newServerOn(t, s)
	// The filter renders one community; the node is memoized whole.
	if code, body := postQuery(t, ts, `{"query":"topk(k=2000, gamma=2) | limit(1)"}`); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	ds := s.registry.lookup(DefaultDataset)
	n := query.FixedNode(2000, 2, query.SemCore)
	val, shared, err := ds.sharer.Do(context.Background(), 0, n.Key, func() (any, error) {
		return nil, errors.New("the node was not memoized")
	})
	if err != nil || !shared {
		t.Fatalf("memo lookup: shared %v, err %v", shared, err)
	}
	ans := val.(*execResult).Answer
	comms := ans.Communities(nil)
	if len(comms) != 2000 {
		t.Fatalf("memoized answer holds %d communities, want 2000", len(comms))
	}
	union := make(map[int32]bool)
	summed := 0
	for _, c := range comms {
		summed += len(c.Members)
		for _, v := range c.Members {
			union[v] = true
		}
	}
	if got := ans.Groups(); got != len(union) {
		t.Errorf("memoized answer holds %d group vertices, want the union %d", got, len(union))
	}
	if summed < 20*len(union) {
		t.Errorf("summed sizes %d are not far above the union %d: the test graph does not nest", summed, len(union))
	}
	t.Logf("k=2000 γ=2: Σ size %d, union %d (%.0f×)", summed, len(union), float64(summed)/float64(len(union)))
}

// TestUpdateFreesMemoBeforeNextQuery: a memoized forest holds its
// snapshot's graph, so a published update drops the dataset's memo at once,
// not at the first query on the new epoch.
func TestUpdateFreesMemoBeforeNextQuery(t *testing.T) {
	ts, _, _ := mutableServer(t)
	s := ts.Config.Handler.(*Server)
	ds := s.registry.lookup("dyn")
	getJSON(t, ts.URL+"/v1/topk?k=3&gamma=2&dataset=dyn", new(topKResponse))
	if code, body := postQuery(t, ts, `{"query":"topk(k=2, gamma=3)","dataset":"dyn"}`); code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	if n := ds.sharer.Len(); n != 2 {
		t.Fatalf("memo holds %d answers before the update, want 2", n)
	}
	resp, body := postUpdates(t, ts, "dyn", `{"updates":[{"op":"delete","u":0,"v":1}]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("updates: %d %s", resp.StatusCode, body)
	}
	if n := ds.sharer.Len(); n != 0 {
		t.Errorf("memo holds %d answers after the update and before any query, want 0", n)
	}
}

// newServerOn serves s on a test server closed with the test.
func newServerOn(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}
