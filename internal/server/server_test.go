package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"influcomm/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	weights := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	edges := [][2]int32{
		{0, 1}, {0, 5}, {0, 6}, {1, 5}, {1, 6}, {5, 6},
		{3, 4}, {3, 7}, {3, 8}, {4, 7}, {4, 8}, {7, 8},
		{3, 9}, {7, 9}, {8, 9},
		{1, 2}, {2, 3},
	}
	return graph.MustFromEdges(weights, edges)
}

func newTestServer(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	s, err := New(testGraph(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var got statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.Vertices != 10 || got.Edges != 17 {
		t.Errorf("stats = %+v", got)
	}
}

func TestTopKEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var got topKResponse
	if code := getJSON(t, ts.URL+"/v1/topk?k=2&gamma=3", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.Communities) != 2 {
		t.Fatalf("got %d communities, want 2", len(got.Communities))
	}
	if got.Communities[0].Influence != 13 || got.Communities[1].Influence != 10 {
		t.Errorf("influences %v, %v", got.Communities[0].Influence, got.Communities[1].Influence)
	}
	if got.Communities[0].Size != 5 {
		t.Errorf("top community size = %d, want 5", got.Communities[0].Size)
	}
	if got.Mode != "core" {
		t.Errorf("mode = %q", got.Mode)
	}
	// Members are original IDs: {3,4,7,8,9}.
	want := map[int32]bool{3: true, 4: true, 7: true, 8: true, 9: true}
	for _, m := range got.Communities[0].Members {
		if !want[m] {
			t.Errorf("unexpected member %d", m)
		}
	}
}

func TestTopKDefaults(t *testing.T) {
	ts := newTestServer(t)
	var got topKResponse
	if code := getJSON(t, ts.URL+"/v1/topk", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.K != 10 || got.Gamma != 5 {
		t.Errorf("defaults = k=%d γ=%d", got.K, got.Gamma)
	}
}

func TestTopKModes(t *testing.T) {
	ts := newTestServer(t)
	var nc topKResponse
	if code := getJSON(t, ts.URL+"/v1/topk?k=5&gamma=3&noncontainment=1", &nc); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if nc.Mode != "noncontainment" || len(nc.Communities) != 2 {
		t.Errorf("NC response: mode=%q n=%d", nc.Mode, len(nc.Communities))
	}
	var tr topKResponse
	if code := getJSON(t, ts.URL+"/v1/topk?k=5&gamma=4&truss=1", &tr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if tr.Mode != "truss" || len(tr.Communities) == 0 {
		t.Errorf("truss response: mode=%q n=%d", tr.Mode, len(tr.Communities))
	}
}

// TestTopKModeParam checks that mode= names the semantics on /v1/topk
// exactly like the single-node flags, wins over them, and that an unknown
// mode is a 400.
func TestTopKModeParam(t *testing.T) {
	s, err := New(rankGraph(t), WithResultCache(0))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, tc := range []struct{ mode, flags string }{
		{"mode=truss", "truss=1"},
		{"mode=noncontainment", "noncontainment=1"},
		{"mode=core&truss=1", ""},
		{"mode=truss&noncontainment=1", "truss=1"},
	} {
		code, byMode := fetch(t, ts.URL+"/v1/topk?k=2&gamma=3&"+tc.mode)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", tc.mode, code, byMode)
		}
		_, byFlags := fetch(t, ts.URL+"/v1/topk?k=2&gamma=3&"+tc.flags)
		if got, want := normalizeBody(t, byMode), normalizeBody(t, byFlags); got != want {
			t.Errorf("%s differs from %s\n got %s\nwant %s", tc.mode, tc.flags, got, want)
		}
	}
	if code, body := fetch(t, ts.URL+"/v1/topk?k=2&gamma=3&mode=bogus"); code != http.StatusBadRequest {
		t.Errorf("mode=bogus: status %d (%s), want 400", code, body)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, WithMaxK(50))
	cases := []string{
		"/v1/topk?k=abc",
		"/v1/topk?gamma=x",
		"/v1/topk?k=0",
		"/v1/topk?k=51",
		"/v1/topk?gamma=0",
		"/v1/topk?truss=1&noncontainment=1",
		"/v1/topk?truss=1&gamma=1",
	}
	for _, path := range cases {
		var e map[string]string
		if code := getJSON(t, ts.URL+path, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, code)
		}
		if e["error"] == "" {
			t.Errorf("%s: missing error message", path)
		}
	}
}

func TestConcurrentRequests(t *testing.T) {
	ts := newTestServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var got topKResponse
			url := fmt.Sprintf("%s/v1/topk?k=%d&gamma=3", ts.URL, i%5+1)
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				errs <- err
				return
			}
			if len(got.Communities) == 0 {
				errs <- fmt.Errorf("request %d: empty result", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil graph: want error")
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	var got struct {
		Status   string   `json:"status"`
		Ready    bool     `json:"ready"`
		Datasets int      `json:"datasets"`
		Warming  []string `json:"warming"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.Status != "ok" {
		t.Errorf("healthz status = %+v", got)
	}
	if !got.Ready || got.Datasets < 1 || len(got.Warming) != 0 {
		t.Errorf("a steady server must be ready: %+v", got)
	}
}

// TestAbortedRequestStopsSearch drives the handler with already-cancelled
// and already-expired request contexts: the search must stop, the status
// must reflect why, and the canceled counter must advance — the end-to-end
// cancellation path without any timing dependence.
func TestAbortedRequestStopsSearch(t *testing.T) {
	s, err := New(testGraph(t))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/v1/topk?k=2&gamma=3", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Errorf("cancelled request: status %d, want 499", rec.Code)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	req = httptest.NewRequest("GET", "/v1/topk?k=2&gamma=3&truss=1", nil).WithContext(dctx)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("expired request: status %d, want 504", rec.Code)
	}

	if got := s.metrics.canceled.Load(); got != 2 {
		t.Errorf("canceled counter = %d, want 2", got)
	}
	if got := s.metrics.inFlight.Load(); got != 0 {
		t.Errorf("in-flight counter = %d after completion, want 0", got)
	}
}

// TestSaturationRejects fills the admission semaphore by hand and checks
// the next request is shed with a 503 and counted.
func TestSaturationRejects(t *testing.T) {
	s, err := New(testGraph(t), WithMaxInFlight(2))
	if err != nil {
		t.Fatal(err)
	}
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}
	req := httptest.NewRequest("GET", "/v1/topk?k=1&gamma=3", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated server: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
	if got := s.metrics.rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	<-s.inflight
	<-s.inflight
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/topk?k=1&gamma=3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("drained server: status %d, want 200", rec.Code)
	}
}

// TestConcurrentLoad hammers a limited server from many goroutines (run
// under -race): every response is a 200 or a shed 503, and the counters
// reconcile exactly with what the clients saw.
func TestConcurrentLoad(t *testing.T) {
	s, err := New(testGraph(t), WithMaxInFlight(2))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	const total = 128
	var ok, shed, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/v1/topk?k=%d&gamma=3", ts.URL, i%5+1)
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				var got topKResponse
				if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
				if len(got.Communities) == 0 {
					t.Errorf("request %d: empty result", i)
				}
				ok.Add(1)
			case http.StatusServiceUnavailable:
				shed.Add(1)
			default:
				other.Add(1)
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if ok.Load()+shed.Load()+other.Load() != total {
		t.Fatalf("accounting mismatch: %d ok, %d shed, %d other", ok.Load(), shed.Load(), other.Load())
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Queries != ok.Load() || st.Rejected != shed.Load() {
		t.Errorf("stats queries=%d rejected=%d, clients saw ok=%d shed=%d",
			st.Queries, st.Rejected, ok.Load(), shed.Load())
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight = %d after load, want 0", st.InFlight)
	}
	if st.MaxInFlight != 2 {
		t.Errorf("max_in_flight = %d, want 2", st.MaxInFlight)
	}
}

// TestStatsCounters checks the query counter and latency accumulator move.
func TestStatsCounters(t *testing.T) {
	ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		var got topKResponse
		if code := getJSON(t, ts.URL+"/v1/topk?k=2&gamma=3", &got); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	var e map[string]string
	if code := getJSON(t, ts.URL+"/v1/topk?k=0", &e); code != http.StatusBadRequest {
		t.Fatalf("bad request status %d", code)
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Queries != 4 {
		t.Errorf("queries = %d, want 4 (bad requests are admitted before validation)", st.Queries)
	}
	if st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
	if st.Canceled != 0 || st.Rejected != 0 {
		t.Errorf("canceled=%d rejected=%d, want 0/0", st.Canceled, st.Rejected)
	}
}
