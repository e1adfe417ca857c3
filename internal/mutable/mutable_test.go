package mutable

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/semiext"
	"influcomm/internal/truss"
)

// edgeSet extracts the live rank-space edge set of a graph.
func edgeSet(g *graph.Graph) [][2]int32 {
	var es [][2]int32
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.UpNeighbors(u) {
			es = append(es, [2]int32{v, u})
		}
	}
	return es
}

// fingerprint renders a query result to a comparable string: communities in
// order with influence, keynode, and full membership, plus the access
// statistics — the "byte-identical" equality the acceptance criteria ask
// for, across top-k, stream, and truss.
func fingerprint(t *testing.T, g *graph.Graph) string {
	t.Helper()
	ctx := context.Background()
	out := ""
	pool := core.NewPool(g)
	for _, q := range []struct{ k, gamma int }{{1, 1}, {3, 2}, {5, 3}, {100, 2}} {
		res, err := pool.TopK(ctx, q.k, int32(q.gamma), core.Options{})
		if err != nil {
			t.Fatalf("topk(%d,%d): %v", q.k, q.gamma, err)
		}
		out += fmt.Sprintf("topk %d %d: %+v\n", q.k, q.gamma, res.Stats)
		for _, c := range res.Communities {
			out += fmt.Sprintf("  %v %d %v\n", c.Influence(), c.Keynode(), c.Vertices())
		}
		nc, err := pool.TopK(ctx, q.k, int32(q.gamma), core.Options{NonContainment: true})
		if err != nil {
			t.Fatalf("nc topk(%d,%d): %v", q.k, q.gamma, err)
		}
		for _, c := range nc.Communities {
			out += fmt.Sprintf("  nc %v %d %v\n", c.Influence(), c.Keynode(), c.Vertices())
		}
	}
	st, err := pool.Stream(ctx, 2, core.Options{}, func(c *core.Community) bool {
		out += fmt.Sprintf("stream %v %d %v\n", c.Influence(), c.Keynode(), c.Vertices())
		return true
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	out += fmt.Sprintf("stream stats %+v\n", st)
	tres, err := truss.LocalSearch(truss.NewIndex(g), 3, 3)
	if err != nil {
		t.Fatalf("truss: %v", err)
	}
	for _, c := range tres.Communities {
		out += fmt.Sprintf("truss %v %d %v\n", c.Influence(), c.Keynode(), c.Vertices())
	}
	return out
}

// randomGraph builds a connected-ish random weighted graph in rank space.
func randomGraph(rng *rand.Rand, n int) *graph.Graph {
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = rng.Float64() * 100
	}
	seen := map[[2]int32]bool{}
	var edges [][2]int32
	for i := 0; i < 4*n; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if !seen[[2]int32{u, v}] {
			seen[[2]int32{u, v}] = true
			edges = append(edges, [2]int32{u, v})
		}
	}
	g, err := graph.FromEdges(weights, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// randomBatch mutates roughly b edges of the current graph, mixing inserts,
// deletes, no-ops, and within-batch duplicates.
func randomBatch(rng *rand.Rand, g *graph.Graph, b int) []Update {
	n := int32(g.NumVertices())
	var batch []Update
	for i := 0; i < b; i++ {
		u, v := rng.Int31n(n), rng.Int31n(n)
		if u == v {
			continue
		}
		switch rng.Intn(4) {
		case 0: // deliberate no-op or duplicate-prone op
			batch = append(batch, Update{U: u, V: v, Delete: rng.Intn(2) == 0})
		case 1:
			batch = append(batch, Update{U: u, V: v, Delete: g.HasEdge(min32(u, v), max32(u, v))})
		default:
			batch = append(batch, Update{U: u, V: v, Delete: !g.HasEdge(min32(u, v), max32(u, v))})
		}
	}
	return batch
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a < b {
		return b
	}
	return a
}

// TestApplyUpdatesMatchesFreshRebuild is the acceptance property test:
// after every batch, top-k (both semantics), stream, and truss results on
// the mutable store are byte-identical to a fresh in-memory store built
// from scratch over the updated edge set.
func TestApplyUpdatesMatchesFreshRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, 12+rng.Intn(30))
		st, err := NewStore(g)
		if err != nil {
			t.Fatal(err)
		}
		for batch := 0; batch < 6; batch++ {
			b := randomBatch(rng, st.Graph(), 1+rng.Intn(12))
			stats, err := st.ApplyUpdates(ctx, b)
			if err != nil {
				t.Fatalf("trial %d batch %d: %v", trial, batch, err)
			}
			if stats.Inserted+stats.Deleted+stats.Skipped == 0 && len(b) > 0 {
				t.Fatalf("batch of %d reported no work at all", len(b))
			}
			cur := st.Graph()
			fresh, err := graph.FromEdges(cur.Weights(), edgeSet(cur))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fingerprint(t, cur), fingerprint(t, fresh); got != want {
				t.Fatalf("trial %d batch %d: snapshot diverges from fresh rebuild\ngot:\n%s\nwant:\n%s", trial, batch, got, want)
			}
		}
	}
}

// TestSnapshotIsolationUnderConcurrentQueries hammers the store with
// concurrent queries while batches apply (run under -race): queries must
// never fail, never pause, and always see some complete snapshot.
func TestSnapshotIsolationUnderConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomGraph(rng, 60)
	st, err := NewStore(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := st.TopK(ctx, 1+i%5, int32(1+i%3), core.Options{})
				if err != nil {
					t.Errorf("concurrent query failed: %v", err)
					return
				}
				if len(res.Communities) == 0 {
					t.Error("query returned no communities")
					return
				}
			}
		}(int64(w))
	}
	for batch := 0; batch < 40; batch++ {
		b := randomBatch(rng, st.Graph(), 6)
		if _, err := st.ApplyUpdates(ctx, b); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	close(stop)
	wg.Wait()

	cur := st.Graph()
	fresh, err := graph.FromEdges(cur.Weights(), edgeSet(cur))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, cur), fingerprint(t, fresh); got != want {
		t.Fatal("final state diverges from fresh rebuild after concurrent run")
	}
}

// TestDurableReplayAfterCrash: a store that is dropped without Close (the
// crash) must come back from edge file + log with the exact same graph.
func TestDurableReplayAfterCrash(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	path := filepath.Join(dir, "g.edges")
	g := randomGraph(rng, 25)
	if err := semiext.WriteEdgeFile(path, g); err != nil {
		t.Fatal(err)
	}

	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := st.ApplyUpdates(ctx, randomBatch(rng, st.Graph(), 8)); err != nil {
			t.Fatal(err)
		}
	}
	want := fingerprint(t, st.Graph())
	wantEpoch := st.SnapshotEpoch()
	// Crash: no compaction, the log handle just dies (Abandon is the
	// in-process stand-in for the process exiting; it releases the log's
	// exclusive lock without folding anything in). The log must carry the
	// state.
	if _, err := os.Stat(semiext.UpdateLogPath(path)); err != nil {
		t.Fatalf("update log missing before crash-reopen: %v", err)
	}
	if err := st.Abandon(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, re.Graph()); got != want {
		t.Fatal("replayed store diverges from pre-crash state")
	}
	if re.SnapshotEpoch() != wantEpoch {
		t.Fatalf("replayed epoch %d, want %d", re.SnapshotEpoch(), wantEpoch)
	}

	// Clean shutdown compacts: log gone, edge file updated, reopen matches
	// with epoch reset to 0 (a compacted file has no pending updates).
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(semiext.UpdateLogPath(path)); !os.IsNotExist(err) {
		t.Fatalf("update log survived clean close: %v", err)
	}
	final, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if got := fingerprint(t, final.Graph()); got != want {
		t.Fatal("compacted store diverges from pre-crash state")
	}
	if final.SnapshotEpoch() != 0 {
		t.Fatalf("compacted store starts at epoch %d", final.SnapshotEpoch())
	}
}

// TestReplayIdempotentAfterCompactionCrash covers the crash window between
// edge-file compaction and log removal: replaying the stale log against the
// already-compacted file must be a pure no-op.
func TestReplayIdempotentAfterCompactionCrash(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	path := filepath.Join(dir, "g.edges")
	g := randomGraph(rng, 20)
	if err := semiext.WriteEdgeFile(path, g); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyUpdates(context.Background(), randomBatch(rng, st.Graph(), 10)); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, st.Graph())
	// Simulate the torn compaction: write the edge file (as Close would)
	// but leave the log in place, then crash.
	if err := semiext.WriteEdgeFile(path, st.Graph()); err != nil {
		t.Fatal(err)
	}
	if err := st.Abandon(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.UpdatesApplied() != 0 {
		t.Fatalf("stale log applied %d updates against the compacted file", re.UpdatesApplied())
	}
	if got := fingerprint(t, re.Graph()); got != want {
		t.Fatal("post-compaction-crash replay diverged")
	}
}

func TestApplyUpdatesValidation(t *testing.T) {
	g := graph.MustFromEdges([]float64{9, 8, 7}, [][2]int32{{0, 1}, {1, 2}})
	st, err := NewStore(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, b := range [][]Update{
		{{U: 0, V: 0}},  // self loop
		{{U: 0, V: 99}}, // unknown vertex
		{{U: -1, V: 1}},
	} {
		_, err := st.ApplyUpdates(ctx, b)
		if err == nil {
			t.Errorf("batch %+v accepted", b)
		} else if !errors.Is(err, ErrInvalidBatch) {
			t.Errorf("batch %+v: error %v does not wrap ErrInvalidBatch", b, err)
		}
	}
	// No-ops are skipped, not errors, and do not bump the epoch.
	stats, err := st.ApplyUpdates(ctx, []Update{{U: 0, V: 1}, {U: 0, V: 2, Delete: true}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 2 || stats.Inserted+stats.Deleted != 0 || stats.Epoch != 0 {
		t.Fatalf("no-op batch: %+v", stats)
	}
	// Last op on an edge wins within a batch.
	stats, err = st.ApplyUpdates(ctx, []Update{{U: 0, V: 2}, {U: 2, V: 0, Delete: true}})
	if err != nil {
		t.Fatal(err)
	}
	// One op superseded within the batch plus the surviving delete being a
	// no-op: two skips, nothing applied.
	if stats.Skipped != 2 || stats.Deleted != 0 || stats.Inserted != 0 {
		t.Fatalf("duplicate collapse: %+v", stats)
	}
	// Closed stores refuse queries and updates; the failure is the
	// store's, not the batch's.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.TopK(ctx, 1, 1, core.Options{}); err == nil {
		t.Error("query on closed store succeeded")
	}
	if _, err := st.ApplyUpdates(ctx, []Update{{U: 0, V: 2}}); err == nil {
		t.Error("update on closed store succeeded")
	} else if errors.Is(err, ErrInvalidBatch) {
		t.Error("closed-store error must not claim the batch was invalid")
	}
}

// TestDoubleOpenRefused: two mutable stores over one edge file would
// interleave appends into one write-ahead log; the log's exclusive lock
// must make the second open fail instead.
func TestDoubleOpenRefused(t *testing.T) {
	if runtime.GOOS == "windows" || runtime.GOOS == "plan9" || runtime.GOOS == "js" || runtime.GOOS == "wasip1" {
		t.Skip("log locking is advisory flock, unix-only")
	}
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := semiext.WriteEdgeFile(path, randomGraph(rand.New(rand.NewSource(5)), 10)); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("second mutable open of the same edge file succeeded")
	}
	// Releasing the first store frees the lock.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	re.Close()
}

// TestOriginalIDResolution: stores over graphs whose original IDs differ
// from ranks must accept updates in original-ID space.
func TestOriginalIDResolution(t *testing.T) {
	// Vertex 0 has the lowest weight, so ranks reverse the IDs.
	g := graph.MustFromEdges([]float64{1, 2, 3, 4}, [][2]int32{{0, 1}, {2, 3}})
	st, err := NewStore(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyUpdates(context.Background(), []Update{{U: 0, V: 3}}); err != nil {
		t.Fatal(err)
	}
	ng := st.Graph()
	var found bool
	for _, e := range edgeSet(ng) {
		if ng.OrigID(e[0]) == 3 && ng.OrigID(e[1]) == 0 || ng.OrigID(e[0]) == 0 && ng.OrigID(e[1]) == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("edge (0,3) in original IDs not found after insert")
	}
}

// TestCompactionPreservesFormat: a store opened from a compressed (v2) edge
// file must compact back to v2 on Close, and the compacted file must carry
// the updated graph — the open/update/close/reopen cycle keeps both the
// layout and the data.
func TestCompactionPreservesFormat(t *testing.T) {
	for _, format := range []int{semiext.FormatV1, semiext.FormatV2} {
		t.Run(fmt.Sprintf("v%d", format), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			path := filepath.Join(t.TempDir(), "g.edges")
			g := randomGraph(rng, 30)
			if err := semiext.WriteEdgeFileFormat(path, g, format); err != nil {
				t.Fatal(err)
			}
			st, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for i := 0; i < 3; i++ {
				if _, err := st.ApplyUpdates(ctx, randomBatch(rng, st.Graph(), 10)); err != nil {
					t.Fatal(err)
				}
			}
			want := fingerprint(t, st.Graph())
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			v, err := semiext.OpenView(path)
			if err != nil {
				t.Fatal(err)
			}
			if v.Format() != format {
				t.Fatalf("compacted file has format v%d, want v%d", v.Format(), format)
			}
			v.Close()
			re, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := fingerprint(t, re.Graph()); got != want {
				t.Fatal("compacted store diverges from pre-close state")
			}
		})
	}
}

// TestOpenLeavesNothingAliasingEdgeFile: Open loads the edge file into
// memory the store owns. Truncating the file in place afterwards must not
// disturb queries or updates — a snapshot still reading through a mapping
// of the file would fault on the vanished pages.
func TestOpenLeavesNothingAliasingEdgeFile(t *testing.T) {
	for _, format := range []int{semiext.FormatV1, semiext.FormatV2} {
		t.Run(fmt.Sprintf("v%d", format), func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			g := randomGraph(rng, 40)
			// The edge file stores rank IDs; the in-memory reference uses
			// the same IDs so both stores read one update batch alike.
			weights := make([]float64, g.NumVertices())
			for u := range weights {
				weights[u] = g.Weight(int32(u))
			}
			rg, err := graph.FromEdges(weights, edgeSet(g))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewStore(rg)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "g.edges")
			if err := semiext.WriteEdgeFileFormat(path, g, format); err != nil {
				t.Fatal(err)
			}
			st, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Abandon()
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
			if got, want := fingerprint(t, st.Graph()), fingerprint(t, ref.Graph()); got != want {
				t.Fatal("store over a truncated edge file diverges from the in-memory reference")
			}
			ctx := context.Background()
			batch := randomBatch(rng, ref.Graph(), 12)
			got, err := st.ApplyUpdates(ctx, batch)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.ApplyUpdates(ctx, batch)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("batch stats %+v, reference %+v", got, want)
			}
			if got, want := fingerprint(t, st.Graph()), fingerprint(t, ref.Graph()); got != want {
				t.Fatal("store after an update diverges from the in-memory reference")
			}
		})
	}
}
