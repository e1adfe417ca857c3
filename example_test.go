package influcomm_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"influcomm"
	"influcomm/internal/server"
)

// exampleGraph builds the small fixture the examples share: two triangles
// bridged by an edge, with weights decreasing in vertex ID so that IDs
// coincide with weight ranks.
func exampleGraph() *influcomm.Graph {
	var b influcomm.Builder
	for id := int32(0); id < 6; id++ {
		b.AddVertex(id, float64(10-id))
	}
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func ExampleTopK() {
	g := exampleGraph()
	res, err := influcomm.TopK(g, 2, 2) // top-2, γ = 2
	if err != nil {
		panic(err)
	}
	for _, c := range res.Communities {
		fmt.Printf("influence %.0f, %d members\n", c.Influence(), c.Size())
	}
	// Output:
	// influence 8, 3 members
	// influence 5, 6 members
}

func ExampleStream() {
	g := exampleGraph()
	_, err := influcomm.Stream(g, 2, func(c *influcomm.Community) bool {
		fmt.Printf("influence %.0f\n", c.Influence())
		return true // keep streaming
	})
	if err != nil {
		panic(err)
	}
	// Output:
	// influence 8
	// influence 5
}

func ExampleQueryPool() {
	pool := influcomm.NewQueryPool(exampleGraph())
	for i := 0; i < 3; i++ { // engines are reused, not reallocated
		res, err := pool.TopK(context.Background(), 1, 2)
		if err != nil {
			panic(err)
		}
		fmt.Printf("top influence %.0f\n", res.Communities[0].Influence())
	}
	// Output:
	// top influence 8
	// top influence 8
	// top influence 8
}

func ExampleTopKBatch() {
	g := exampleGraph()
	queries := []influcomm.Query{{K: 1, Gamma: 2}, {K: 2, Gamma: 2}}
	for _, r := range influcomm.TopKBatch(g, queries, 2) {
		if r.Err != nil {
			panic(r.Err)
		}
		fmt.Printf("k=%d: %d communities\n", r.Query.K, len(r.Result.Communities))
	}
	// Output:
	// k=1: 1 communities
	// k=2: 2 communities
}

func ExampleNewMutableStore() {
	st, err := influcomm.NewMutableStore(exampleGraph())
	if err != nil {
		panic(err)
	}
	defer st.Close()
	ctx := context.Background()

	// Deleting one triangle edge dissolves the top community; queries
	// in flight keep their snapshot, new queries see the change.
	stats, err := st.ApplyUpdates(ctx, []influcomm.EdgeUpdate{{U: 0, V: 1, Delete: true}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("deleted %d, epoch %d\n", stats.Deleted, stats.Epoch)
	res, err := st.TopK(ctx, 1, 2, influcomm.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("top influence now %.0f\n", res.Communities[0].Influence())
	// Output:
	// deleted 1, epoch 1
	// top influence now 5
}

func ExampleNewMutableStore_autoReindex() {
	// With auto-reindex, a served mutable dataset keeps its prebuilt index
	// current across online updates instead of dropping it on the first
	// one: small deltas are repaired synchronously inside ApplyUpdates,
	// larger ones rebuild in the background while queries fall back to
	// LocalSearch.
	var b influcomm.Builder
	for id := int32(0); id < 20; id++ {
		b.AddVertex(id, float64(40-id))
	}
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {1, 2}, {17, 18}, {17, 19}, {18, 19}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	ms, err := influcomm.NewMutableStore(g)
	if err != nil {
		panic(err)
	}
	ix, err := influcomm.BuildIndex(ms.Graph())
	if err != nil {
		panic(err)
	}
	s, err := server.New(exampleGraph(),
		server.WithDataset("social", server.DatasetConfig{Store: ms, Index: ix, Reindex: "auto"}))
	if err != nil {
		panic(err)
	}
	defer s.Close()

	// Deleting a bottom-of-the-ranking edge touches only a small suffix of
	// the weight ranking, so the delta repair re-attaches a current index
	// before ApplyUpdates even returns.
	if _, err := ms.ApplyUpdates(context.Background(), []influcomm.EdgeUpdate{{U: 18, V: 19, Delete: true}}); err != nil {
		panic(err)
	}
	for _, d := range s.Datasets() {
		if d.Name == "social" {
			fmt.Printf("index %s after %d delta repair(s), %d rebuild(s)\n",
				d.IndexState, d.IndexDeltaRepairs, d.IndexRebuilds)
		}
	}
	// Output:
	// index attached after 1 delta repair(s), 0 rebuild(s)
}

func ExampleApply() {
	st, err := influcomm.NewMutableStore(exampleGraph())
	if err != nil {
		panic(err)
	}
	defer st.Close()
	// Apply works on a plain Store as long as its backend is mutable; a
	// no-op insert is skipped, not an error.
	stats, err := influcomm.Apply(context.Background(), st, []influcomm.EdgeUpdate{
		{U: 0, V: 3}, // new bridge
		{U: 0, V: 1}, // already present
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("inserted %d, skipped %d\n", stats.Inserted, stats.Skipped)
	// Output:
	// inserted 1, skipped 1
}

func ExampleOpenMutableStore() {
	dir, err := os.MkdirTemp("", "influcomm-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "g.edges")
	if err := influcomm.SaveEdgeFile(path, exampleGraph()); err != nil {
		panic(err)
	}

	st, err := influcomm.OpenMutableStore(path)
	if err != nil {
		panic(err)
	}
	if _, err := st.ApplyUpdates(context.Background(), []influcomm.EdgeUpdate{{U: 1, V: 4}}); err != nil {
		panic(err)
	}
	// The batch is already fsynced to the write-ahead log; Close compacts
	// the log back into the edge file.
	if err := st.Close(); err != nil {
		panic(err)
	}

	re, err := influcomm.OpenMutableStore(path)
	if err != nil {
		panic(err)
	}
	defer re.Close()
	fmt.Printf("%d edges survive the restart\n", re.NumEdges())
	// Output:
	// 8 edges survive the restart
}

func ExampleOpenEdgeFileStore() {
	dir, err := os.MkdirTemp("", "influcomm-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "g.edges")
	if err := influcomm.SaveEdgeFile(path, exampleGraph()); err != nil {
		panic(err)
	}

	// Semi-external serving: only per-vertex state is resident; the query
	// reads just the weight-ranked prefix it needs.
	st, err := influcomm.OpenEdgeFileStore(path)
	if err != nil {
		panic(err)
	}
	defer st.Close()
	res, err := st.TopK(context.Background(), 1, 2, influcomm.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("influence %.0f from the %s backend\n", res.Communities[0].Influence(), st.Backend())
	// Output:
	// influence 8 from the semiext backend
}

func ExampleApplyEdits() {
	g := exampleGraph()
	// ApplyEdits rebuilds from scratch and may reweight vertices; for
	// weight-preserving edge updates at serving time, prefer a
	// MutableStore, which updates incrementally.
	ng, err := influcomm.ApplyEdits(g, influcomm.Edit{
		AddEdges:   [][2]int32{{1, 4}},
		SetWeights: map[int32]float64{5: 99},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d edges, heaviest vertex is %d\n", ng.NumEdges(), ng.OrigID(0))
	// Output:
	// 8 edges, heaviest vertex is 5
}

// clusterGraph builds the disconnected fixture the cluster examples share:
// two separate triangles, so the graph partitions into two component-closed
// shards.
func clusterGraph() *influcomm.Graph {
	var b influcomm.Builder
	for id := int32(0); id < 6; id++ {
		b.AddVertex(id, float64(10-id))
	}
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func ExamplePartitionGraph() {
	g := clusterGraph()
	shards, err := influcomm.PartitionGraph(g, 2) // deploy one icserver each
	if err != nil {
		panic(err)
	}
	for i, sg := range shards {
		res, err := influcomm.TopK(sg, 1, 2)
		if err != nil {
			panic(err)
		}
		fmt.Printf("shard %d: %d vertices, best influence %.0f\n",
			i, sg.NumVertices(), res.Communities[0].Influence())
	}
	// Output:
	// shard 0: 3 vertices, best influence 8
	// shard 1: 3 vertices, best influence 5
}

func ExampleNewClusterCoordinator() {
	// Each shard is an ordinary icserver over one partition; here they run
	// in-process on httptest listeners.
	parts, err := influcomm.PartitionGraph(clusterGraph(), 2)
	if err != nil {
		panic(err)
	}
	var shards []influcomm.ClusterShard
	for i, pg := range parts {
		s, err := server.New(pg)
		if err != nil {
			panic(err)
		}
		ts := httptest.NewServer(s)
		defer ts.Close()
		shards = append(shards, influcomm.ClusterShard{
			Name:     fmt.Sprintf("s%d", i),
			Replicas: []string{ts.URL},
		})
	}

	coord, err := influcomm.NewClusterCoordinator(shards,
		influcomm.WithClusterShardTimeout(10*time.Second))
	if err != nil {
		panic(err)
	}
	res, err := coord.TopK(context.Background(), "", 2, 2, influcomm.ClusterModeCore)
	if err != nil {
		panic(err)
	}
	// The merged answer is byte-identical to a single node serving the
	// whole graph.
	for _, c := range res.Communities {
		fmt.Printf("influence %.0f, %d members\n", c.Influence, c.Size)
	}
	fmt.Printf("partial=%v epochs=%d\n", res.Partial, len(res.Epochs))
	// Output:
	// influence 8, 3 members
	// influence 5, 3 members
	// partial=false epochs=2
}
