// Tests in this file live in package cluster_test so they can stand up real
// shard servers: internal/server imports internal/cluster for the wire
// types, so the reverse import has to stay out of package cluster.
package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"influcomm/internal/cluster"
	"influcomm/internal/graph"
	"influcomm/internal/server"
	"influcomm/internal/store"
)

// clusterTestGraph builds four connected components (rings with chords) with
// deliberately colliding weights, so influence ties across shards exercise
// the merge's keynode tie-break.
func clusterTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	var weights []float64
	var edges [][2]int32
	id := int32(0)
	for c, sz := range []int{14, 11, 9, 6} {
		base := id
		for i := 0; i < sz; i++ {
			weights = append(weights, float64((int(id)*7+c*3)%11+1))
			id++
		}
		for i := int32(0); int(i) < sz; i++ {
			edges = append(edges, [2]int32{base + i, base + (i+1)%int32(sz)})
			if int(i+2) < sz {
				edges = append(edges, [2]int32{base + i, base + i + 2})
			}
		}
	}
	return graph.MustFromEdges(weights, edges)
}

// labelledTestGraph is two K4s and a 5-ring whose labels hold the
// characters JSON encoders may escape (&, <, >), so byte identity covers
// how each front encodes labels.
func labelledTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	var b graph.Builder
	labels := []string{"R&D <lab>", "a>b", "x&y", "<root>", "Q&A", "1<2", "3>2", "&amp;", "<>", "&&", "p<q>r", "s&t", "u>v"}
	for i, l := range labels {
		b.AddLabeledVertex(int32(i), float64((i*5)%7+1), l)
	}
	for _, base := range []int32{0, 4} {
		for u := base; u < base+4; u++ {
			for v := u + 1; v < base+4; v++ {
				b.AddEdge(u, v)
			}
		}
	}
	for i := int32(0); i < 5; i++ {
		b.AddEdge(8+i, 8+(i+1)%5)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shardServers partitions g into n shards, serves each from its own
// httptest server, and returns the coordinator topology.
func shardServers(t *testing.T, g *graph.Graph, n int) []cluster.Shard {
	t.Helper()
	parts, err := cluster.Partition(g, n)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]cluster.Shard, len(parts))
	for i, pg := range parts {
		s, err := server.New(pg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		shards[i] = cluster.Shard{Name: fmt.Sprintf("shard%d", i), Replicas: []string{ts.URL}}
	}
	return shards
}

// singleCommunities fetches the single-node answer's communities as raw JSON.
func singleCommunities(t *testing.T, url string) json.RawMessage {
	t.Helper()
	resp, err := http.Get(url)
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
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body.Error)
	}
	return body.Communities
}

// modeFlag maps a cluster mode to the single-node query flag.
func modeFlag(mode string) string {
	switch mode {
	case cluster.ModeNonContainment:
		return "&noncontainment=1"
	case cluster.ModeTruss:
		return "&truss=1"
	}
	return ""
}

// TestCoordinatorMatchesSingleNode is the tier's core property: for every
// (k, γ, mode) in the matrix, the coordinator's merged answer over a
// partitioned deployment is byte-identical to one node serving the
// unpartitioned graph, through the library and through iccoord's HTTP
// front alike, on an unlabelled and a labelled graph.
func TestCoordinatorMatchesSingleNode(t *testing.T) {
	for name, g := range map[string]*graph.Graph{"unlabelled": clusterTestGraph(t), "labelled": labelledTestGraph(t)} {
		s, err := server.New(g)
		if err != nil {
			t.Fatal(err)
		}
		single := httptest.NewServer(s)
		defer single.Close()

		coord, err := cluster.NewCoordinator(shardServers(t, g, 3))
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(cluster.NewHandler(coord, 1000))
		defer front.Close()
		for _, mode := range []string{cluster.ModeCore, cluster.ModeNonContainment, cluster.ModeTruss} {
			for _, gamma := range []int32{2, 3, 4} {
				for _, k := range []int{1, 2, 5, 100} {
					res, err := coord.TopK(context.Background(), "", k, gamma, mode)
					if err != nil {
						t.Fatalf("%s %s k=%d γ=%d: %v", name, mode, k, gamma, err)
					}
					if res.Partial {
						t.Fatalf("%s %s k=%d γ=%d: unexpected partial result", name, mode, k, gamma)
					}
					got, err := json.Marshal(res.Communities)
					if err != nil {
						t.Fatal(err)
					}
					url := fmt.Sprintf("%s/v1/topk?k=%d&gamma=%d%s", single.URL, k, gamma, modeFlag(mode))
					want := singleCommunities(t, url)
					if string(got) != string(want) {
						t.Errorf("%s %s k=%d γ=%d:\ncluster %s\nsingle  %s", name, mode, k, gamma, got, want)
					}
					viaFront := singleCommunities(t, fmt.Sprintf("%s/v1/topk?k=%d&gamma=%d&mode=%s", front.URL, k, gamma, mode))
					if string(viaFront) != string(want) {
						t.Errorf("%s %s k=%d γ=%d:\niccoord %s\nsingle  %s", name, mode, k, gamma, viaFront, want)
					}
					// γ=2 must produce real communities, or the matrix is vacuous.
					if gamma == 2 && k == 100 && len(res.Communities) == 0 {
						t.Fatalf("%s %s γ=2: no communities at all", name, mode)
					}
				}
			}
		}
	}
}

// mutableDeployment is a cluster and a single node over the same graph, both
// backed by mutable stores so updates can be applied in lockstep.
type mutableDeployment struct {
	single   *httptest.Server
	globalMS store.MutableStore
	coord    *cluster.Coordinator
	shardMS  []store.MutableStore // parallel to shard names "shard0"...
	owner    map[int32]int        // original vertex ID -> shard index
}

func newMutableDeployment(t *testing.T, g *graph.Graph, n int) *mutableDeployment {
	t.Helper()
	d := &mutableDeployment{owner: make(map[int32]int)}
	gms, err := store.OpenMutableGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	d.globalMS = gms
	s, err := server.New(g, server.WithDataset("dyn", server.DatasetConfig{Store: gms}))
	if err != nil {
		t.Fatal(err)
	}
	d.single = httptest.NewServer(s)
	t.Cleanup(d.single.Close)

	parts, err := cluster.Partition(g, n)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]cluster.Shard, len(parts))
	for i, pg := range parts {
		for u := int32(0); int(u) < pg.NumVertices(); u++ {
			d.owner[pg.OrigID(u)] = i
		}
		ms, err := store.OpenMutableGraph(pg)
		if err != nil {
			t.Fatal(err)
		}
		d.shardMS = append(d.shardMS, ms)
		ss, err := server.New(pg, server.WithDataset("dyn", server.DatasetConfig{Store: ms}))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(ss)
		t.Cleanup(ts.Close)
		shards[i] = cluster.Shard{Name: fmt.Sprintf("shard%d", i), Replicas: []string{ts.URL}}
	}
	d.coord, err = cluster.NewCoordinator(shards)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// apply routes one update batch to the global store and the owning shards.
// Every edge must stay within one shard, or the partition would no longer be
// component-closed.
func (d *mutableDeployment) apply(t *testing.T, batch []store.EdgeUpdate) {
	t.Helper()
	perShard := make(map[int][]store.EdgeUpdate)
	for _, u := range batch {
		su, sv := d.owner[u.U], d.owner[u.V]
		if su != sv {
			t.Fatalf("update (%d,%d) crosses shards %d and %d", u.U, u.V, su, sv)
		}
		perShard[su] = append(perShard[su], u)
	}
	if _, err := d.globalMS.ApplyUpdates(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	for s, b := range perShard {
		if _, err := d.shardMS[s].ApplyUpdates(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCoordinatorMatchesSingleNodeUnderUpdates drives update waves through a
// mutable deployment while background queries hammer both paths (the -race
// payoff), and after every wave — stores quiesced — asserts the matrix
// equivalence again plus the epoch vector.
func TestCoordinatorMatchesSingleNodeUnderUpdates(t *testing.T) {
	g := clusterTestGraph(t)
	d := newMutableDeployment(t, g, 3)

	// Background traffic across both serving paths for the whole test.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = d.coord.TopK(context.Background(), "dyn", 5, 3, cluster.ModeCore)
				resp, err := http.Get(d.single.URL + "/v1/topk?k=5&gamma=3&dataset=dyn")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)

	// Edge waves confined to component 0 (original IDs 0..13): new chords
	// arrive, then some leave again.
	waves := [][]store.EdgeUpdate{
		{{U: 0, V: 3}, {U: 1, V: 4}, {U: 2, V: 5}},
		{{U: 4, V: 7}, {U: 5, V: 8}, {U: 0, V: 3, Delete: true}},
		{{U: 1, V: 4, Delete: true}, {U: 2, V: 5, Delete: true}, {U: 6, V: 9}},
	}
	check := func(wave int) {
		for _, gamma := range []int32{2, 3, 4} {
			for _, k := range []int{1, 5, 100} {
				res, err := d.coord.TopK(context.Background(), "dyn", k, gamma, cluster.ModeCore)
				if err != nil {
					t.Fatalf("wave %d k=%d γ=%d: %v", wave, k, gamma, err)
				}
				got, _ := json.Marshal(res.Communities)
				url := fmt.Sprintf("%s/v1/topk?k=%d&gamma=%d&dataset=dyn", d.single.URL, k, gamma)
				want := singleCommunities(t, url)
				if string(got) != string(want) {
					t.Errorf("wave %d k=%d γ=%d:\ncluster %s\nsingle  %s", wave, k, gamma, got, want)
				}
				for i, ms := range d.shardMS {
					name := fmt.Sprintf("shard%d", i)
					if res.Epochs[name] != ms.SnapshotEpoch() {
						t.Errorf("wave %d: epoch[%s] = %d, store at %d", wave, name, res.Epochs[name], ms.SnapshotEpoch())
					}
				}
			}
		}
	}
	check(0)
	for i, w := range waves {
		d.apply(t, w)
		check(i + 1)
	}
}

// truncatingShard streams a header and one very influential community, then
// drops the connection without a trailer: a mid-stream failure the merge has
// already consumed from.
func truncatingShard(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		enc.Encode(cluster.StreamLine{Header: &cluster.StreamHeader{Dataset: "default", Mode: cluster.ModeCore, SnapshotEpoch: 7}})
		enc.Encode(cluster.StreamLine{Community: &cluster.Community{
			Influence: 999, Size: 1, Keynode: 1000, Members: []int32{1000},
		}})
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		// Returning here truncates: no trailer, no error line.
	}))
	t.Cleanup(ts.Close)
	return ts
}

// hangingShard streams a header and then stalls until the client gives up.
func hangingShard(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		enc.Encode(cluster.StreamLine{Header: &cluster.StreamHeader{Dataset: "default", Mode: cluster.ModeCore}})
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestShardFailureStrictMode(t *testing.T) {
	g := clusterTestGraph(t)
	shards := shardServers(t, g, 2)
	shards[1] = cluster.Shard{Name: "bad", Replicas: []string{truncatingShard(t).URL}}
	coord, err := cluster.NewCoordinator(shards)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.TopK(context.Background(), "", 5, 3, cluster.ModeCore); err == nil {
		t.Fatal("strict mode: want an error when a shard dies mid-query")
	}
}

func TestShardFailurePartialMode(t *testing.T) {
	g := clusterTestGraph(t)
	shards := shardServers(t, g, 2)
	good := shards[0]
	shards[1] = cluster.Shard{Name: "bad", Replicas: []string{truncatingShard(t).URL}}
	coord, err := cluster.NewCoordinator(shards, cluster.WithPartialResults(true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.TopK(context.Background(), "", 5, 3, cluster.ModeCore)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || len(res.FailedShards) != 1 || res.FailedShards[0] != "bad" {
		t.Fatalf("partial=%v failed=%v, want partial with [bad]", res.Partial, res.FailedShards)
	}
	if _, ok := res.Epochs["bad"]; ok {
		t.Error("a dropped shard must not appear in the epoch vector")
	}
	// The answer is exactly the surviving shard's alone — the truncating
	// shard's fake 999-influence community must not leak into it.
	soloCoord, err := cluster.NewCoordinator([]cluster.Shard{good})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := soloCoord.TopK(context.Background(), "", 5, 3, cluster.ModeCore)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res.Communities)
	want, _ := json.Marshal(solo.Communities)
	if string(got) != string(want) {
		t.Errorf("partial answer:\ngot  %s\nwant %s", got, want)
	}
}

func TestShardFailoverMidStream(t *testing.T) {
	g := clusterTestGraph(t)
	shards := shardServers(t, g, 2)
	// The second shard's primary dies mid-stream; its replica is healthy.
	// The coordinator must restart the query and deliver the full answer.
	shards[1].Replicas = append([]string{truncatingShard(t).URL}, shards[1].Replicas...)
	coord, err := cluster.NewCoordinator(shards)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.TopK(context.Background(), "", 5, 3, cluster.ModeCore)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatal("failover should produce a complete answer")
	}
	for _, c := range res.Communities {
		if c.Influence == 999 {
			t.Fatal("truncated stream's community leaked into the merged answer")
		}
	}
	if coord.Stats().Failovers == 0 {
		t.Error("failover counter did not move")
	}
}

func TestShardFailoverOpenTime(t *testing.T) {
	g := clusterTestGraph(t)
	shards := shardServers(t, g, 2)
	// Primary refuses connections outright (closed server): the reader fails
	// over before anything is consumed, invisibly to the merge.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	shards[0].Replicas = append([]string{deadURL}, shards[0].Replicas...)
	coord, err := cluster.NewCoordinator(shards)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.TopK(context.Background(), "", 3, 3, cluster.ModeCore)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || len(res.Communities) == 0 {
		t.Fatalf("partial=%v n=%d, want a complete answer", res.Partial, len(res.Communities))
	}
}

func TestShardTimeout(t *testing.T) {
	g := clusterTestGraph(t)
	shards := shardServers(t, g, 2)
	shards[1] = cluster.Shard{Name: "slow", Replicas: []string{hangingShard(t).URL}}
	coord, err := cluster.NewCoordinator(shards,
		cluster.WithShardTimeout(100*time.Millisecond),
		cluster.WithPartialResults(true))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := coord.TopK(context.Background(), "", 5, 3, cluster.ModeCore)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %s", elapsed)
	}
	if !res.Partial || len(res.FailedShards) != 1 || res.FailedShards[0] != "slow" {
		t.Fatalf("partial=%v failed=%v, want [slow] dropped", res.Partial, res.FailedShards)
	}
}

func TestCoordinatorHandler(t *testing.T) {
	g := clusterTestGraph(t)
	coord, err := cluster.NewCoordinator(shardServers(t, g, 3))
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(cluster.NewHandler(coord, 1000))
	defer front.Close()

	s, err := server.New(g)
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(s)
	defer single.Close()

	resp, err := http.Get(front.URL + "/v1/topk?k=4&gamma=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		K            int               `json:"k"`
		Gamma        int               `json:"gamma"`
		Mode         string            `json:"mode"`
		Communities  json.RawMessage   `json:"communities"`
		Epochs       map[string]uint64 `json:"epochs"`
		Partial      bool              `json:"partial"`
		FailedShards []string          `json:"failed_shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body.K != 4 || body.Gamma != 3 || body.Mode != "core" {
		t.Fatalf("status %d, body %+v", resp.StatusCode, body)
	}
	if len(body.Epochs) != 3 || body.Partial {
		t.Errorf("epochs %v partial %v", body.Epochs, body.Partial)
	}
	want := singleCommunities(t, single.URL+"/v1/topk?k=4&gamma=3")
	if string(body.Communities) != string(want) {
		t.Errorf("handler communities differ:\ngot  %s\nwant %s", body.Communities, want)
	}

	var health struct {
		Status string `json:"status"`
		Shards int    `json:"shards"`
	}
	hr, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(hr.Body).Decode(&health)
	hr.Body.Close()
	if health.Status != "ok" || health.Shards != 3 {
		t.Errorf("healthz = %+v", health)
	}

	var topo struct {
		Shards []cluster.Shard `json:"shards"`
	}
	cr, err := http.Get(front.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(cr.Body).Decode(&topo)
	cr.Body.Close()
	if len(topo.Shards) != 3 || topo.Shards[0].Name != "shard0" {
		t.Errorf("topology = %+v", topo)
	}

	var stats cluster.Stats
	sr, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(sr.Body).Decode(&stats)
	sr.Body.Close()
	if stats.Queries < 1 || stats.Shards != 3 {
		t.Errorf("stats = %+v", stats)
	}

	for _, q := range []string{
		"?k=0", "?k=x", "?gamma=0", "?mode=bogus", "?truss=1&noncontainment=1", "?k=100000",
	} {
		br, err := http.Get(front.URL + "/v1/topk" + q)
		if err != nil {
			t.Fatal(err)
		}
		br.Body.Close()
		if br.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, br.StatusCode)
		}
	}
}
