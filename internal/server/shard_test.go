package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"influcomm/internal/cluster"
	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/truss"
)

// readStream fetches a shard stream and decodes every line.
func readStream(t *testing.T, url string) (int, []cluster.StreamLine) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var lines []cluster.StreamLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line cluster.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("malformed line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, lines
}

func TestShardStream(t *testing.T) {
	ts := newTestServer(t)
	code, lines := readStream(t, ts.URL+cluster.StreamPath+"?gamma=3&limit=10")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(lines) < 2 {
		t.Fatalf("got %d lines, want header + trailer at least", len(lines))
	}
	hdr := lines[0].Header
	if hdr == nil {
		t.Fatalf("first line is not a header: %+v", lines[0])
	}
	if hdr.Dataset != DefaultDataset || hdr.Mode != cluster.ModeCore {
		t.Errorf("header = %+v", hdr)
	}
	tr := lines[len(lines)-1].Trailer
	if tr == nil {
		t.Fatalf("last line is not a trailer: %+v", lines[len(lines)-1])
	}
	comms := lines[1 : len(lines)-1]
	if tr.Communities != len(comms) {
		t.Errorf("trailer counts %d communities, stream has %d", tr.Communities, len(comms))
	}
	if !tr.Exhausted {
		t.Error("limit 10 on the test graph should exhaust the stream")
	}
	// Decreasing influence order is the merge precondition.
	last := -1.0
	for i, l := range comms {
		c := l.Community
		if c == nil {
			t.Fatalf("line %d is not a community: %+v", i+1, l)
		}
		if last >= 0 && c.Influence > last {
			t.Fatalf("influence rose from %v to %v at line %d", last, c.Influence, i+1)
		}
		last = c.Influence
	}
	// The stream must agree with /v1/topk at the same k: same communities,
	// same order, field for field.
	var topk topKResponse
	if code := getJSON(t, ts.URL+"/v1/topk?k=10&gamma=3", &topk); code != http.StatusOK {
		t.Fatalf("topk status %d", code)
	}
	if len(topk.Communities) != len(comms) {
		t.Fatalf("stream has %d communities, /v1/topk %d", len(comms), len(topk.Communities))
	}
	for i := range comms {
		sj, _ := json.Marshal(comms[i].Community)
		tj, _ := json.Marshal(topk.Communities[i])
		if string(sj) != string(tj) {
			t.Errorf("community %d differs:\nstream %s\ntopk   %s", i, sj, tj)
		}
	}
}

func TestShardStreamLimit(t *testing.T) {
	ts := newTestServer(t)
	code, lines := readStream(t, ts.URL+cluster.StreamPath+"?gamma=3&limit=1")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	tr := lines[len(lines)-1].Trailer
	if tr == nil || tr.Communities != 1 {
		t.Fatalf("trailer = %+v, want 1 community", tr)
	}
	if tr.Exhausted {
		t.Error("limit 1 should not exhaust a graph with 2 communities at γ=3")
	}
}

// TestShardStreamModes streams the non-containment and truss answers and
// holds their community lines to the brute-force references.
func TestShardStreamModes(t *testing.T) {
	ts := newTestServer(t)
	for _, mode := range []string{cluster.ModeNonContainment, cluster.ModeTruss} {
		gamma := int32(3)
		if mode == cluster.ModeTruss {
			gamma = 4
		}
		code, lines := readStream(t, fmt.Sprintf("%s%s?gamma=%d&limit=5&mode=%s", ts.URL, cluster.StreamPath, gamma, mode))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", mode, code)
		}
		if lines[0].Header == nil || lines[0].Header.Mode != mode {
			t.Errorf("%s: header = %+v", mode, lines[0].Header)
		}
		if lines[len(lines)-1].Trailer == nil {
			t.Errorf("%s: no trailer", mode)
		}
		var comms []*cluster.Community
		for _, l := range lines[1 : len(lines)-1] {
			comms = append(comms, l.Community)
		}
		got, _ := json.Marshal(comms)
		if want := naiveJSON(t, testGraph(t), 5, gamma, mode); !bytes.Equal(got, want) {
			t.Errorf("%s: streamed %s\nbrute force %s", mode, got, want)
		}
	}
}

// naiveJSON is the brute-force answer to the (k, γ, mode) query on g
// (core.NaiveTopK, core.NaiveNonContainment or truss.NaiveTopK), rendered
// by cluster.Render and encoded as the query routes encode communities.
// An empty reference fails the test, so no check against it is vacuous.
func naiveJSON(t *testing.T, g *graph.Graph, k int, gamma int32, mode string) []byte {
	t.Helper()
	var want []core.NaiveCommunity
	switch mode {
	case cluster.ModeCore:
		want = core.NaiveTopK(g, k, gamma)
	case cluster.ModeNonContainment:
		want = core.NaiveNonContainment(g, gamma)
	case cluster.ModeTruss:
		want = truss.NaiveTopK(g, k, gamma)
	}
	if len(want) == 0 {
		t.Fatalf("%s k=%d γ=%d: the brute-force answer is empty", mode, k, gamma)
	}
	comms := make([]cluster.Community, min(k, len(want)))
	for i := range comms {
		comms[i] = cluster.Render(g, want[i].Influence, want[i].Keynode, want[i].Vertices)
	}
	b, err := json.Marshal(comms)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestShardStreamErrors(t *testing.T) {
	ts := newTestServer(t)
	for _, q := range []string{
		"?gamma=3",                     // missing limit
		"?gamma=3&limit=0",             // limit below 1
		"?gamma=3&limit=x",             // malformed limit
		"?gamma=0&limit=5",             // bad gamma
		"?gamma=3&limit=5&mode=bogus",  // unknown mode
		"?gamma=1&limit=5&mode=truss",  // truss needs gamma >= 2
		"?gamma=3&limit=5&dataset=nix", // unknown dataset
	} {
		code, _ := readStream(t, ts.URL+cluster.StreamPath+q)
		if code == http.StatusOK {
			t.Errorf("%s: got 200, want an error status", q)
		}
	}
}

// TestShardStreamBoundsLimitNotK: a stream's bound is limit, in [1, maxK],
// so a shard whose maxK is below /v1/topk's default k of 10 still streams
// (the coordinator never sends k).
func TestShardStreamBoundsLimitNotK(t *testing.T) {
	s, err := New(rankGraph(t), WithMaxK(5))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	code, lines := readStream(t, ts.URL+cluster.StreamPath+"?gamma=2&limit=3")
	if code != http.StatusOK {
		t.Fatalf("limit=3 under maxk 5: status %d, want 200", code)
	}
	if len(lines) < 2 || lines[0].Header == nil || lines[len(lines)-1].Trailer == nil {
		t.Fatalf("want header ... trailer, got %d lines", len(lines))
	}
	var comms []*cluster.Community
	for _, l := range lines[1 : len(lines)-1] {
		comms = append(comms, l.Community)
	}
	var topk topKResponse
	if code := getJSON(t, ts.URL+"/v1/topk?k=3&gamma=2", &topk); code != http.StatusOK {
		t.Fatalf("topk status %d", code)
	}
	got, _ := json.Marshal(comms)
	want, _ := json.Marshal(topk.Communities)
	if len(comms) == 0 || !bytes.Equal(got, want) {
		t.Errorf("stream %s\ntopk   %s", got, want)
	}
	if code, _ := readStream(t, ts.URL+cluster.StreamPath+"?gamma=2&limit=6"); code != http.StatusBadRequest {
		t.Errorf("limit=6 under maxk 5: status %d, want 400", code)
	}
}

func TestShardStreamCountsInStats(t *testing.T) {
	ts := newTestServer(t)
	readStream(t, ts.URL+cluster.StreamPath+"?gamma=3&limit=2")
	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.ShardStreams != 1 {
		t.Errorf("shard_streams = %d, want 1", st.ShardStreams)
	}
}

// TestShardStreamSemiExtProgressive serves one graph twice, in memory and
// from a semi-external edge file, and requires every shard stream line
// after the header to be byte-equal between the two, trailer included.
// Both backends run LocalSearch-P, so a semi-external shard stops where
// the limit stops the stream and reports the same accessed_vertices and
// exhausted as the in-memory one. rankGraph makes ranks and original IDs
// coincide, so the community lines are comparable.
func TestShardStreamSemiExtProgressive(t *testing.T) {
	g := rankGraph(t)
	s, err := New(g, WithDataset("se", DatasetConfig{Store: edgeFileStore(t, g)}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	rawLines := func(url string) [][]byte {
		t.Helper()
		code, body := fetch(t, url)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, code, body)
		}
		lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		if len(lines) < 2 {
			t.Fatalf("%s: %d lines, want header + trailer at least", url, len(lines))
		}
		return lines[1:] // the header names the dataset
	}
	for _, mode := range []string{cluster.ModeCore, cluster.ModeNonContainment} {
		for gamma := 1; gamma <= 4; gamma++ {
			for _, limit := range []int{1, 2, 5, 50} {
				q := fmt.Sprintf("%s%s?gamma=%d&limit=%d&mode=%s", ts.URL, cluster.StreamPath, gamma, limit, mode)
				mem, se := rawLines(q), rawLines(q+"&dataset=se")
				if len(mem) != len(se) {
					t.Fatalf("%s γ=%d limit=%d: memory streamed %d lines, semiext %d\nmemory %s\nsemiext %s",
						mode, gamma, limit, len(mem), len(se), bytes.Join(mem, nil), bytes.Join(se, nil))
				}
				for i := range mem {
					if !bytes.Equal(mem[i], se[i]) {
						t.Errorf("%s γ=%d limit=%d line %d:\nmemory  %s\nsemiext %s", mode, gamma, limit, i+1, mem[i], se[i])
					}
				}
			}
		}
	}
}
