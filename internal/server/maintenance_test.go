package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"influcomm/internal/gen"
	"influcomm/internal/graph"
	"influcomm/internal/index"
	"influcomm/internal/semiext"
	"influcomm/internal/store"
)

// reindexServer builds a server whose "dyn" dataset is a durable mutable
// store over a fresh edge file of g, registered with cfg (Store is filled
// in). withIndex attaches a prebuilt index over the opened snapshot, so
// the dataset starts out serving index-first.
func reindexServer(t *testing.T, g *graph.Graph, withIndex bool, cfg DatasetConfig, opts ...Option) (*Server, *httptest.Server, store.MutableStore) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := semiext.WriteEdgeFile(path, g); err != nil {
		t.Fatal(err)
	}
	ms, err := store.OpenMutable(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = ms
	if withIndex {
		ix, err := index.Build(ms.Graph())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Index = ix
	}
	s, err := New(rankGraph(t), append(opts, WithDataset("dyn", cfg))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, ms
}

// maintOf returns the "dyn" dataset's maintenance pipeline for white-box
// observation (counters, build hooks).
func maintOf(t *testing.T, s *Server) *maintainer {
	t.Helper()
	ds := s.registry.lookup("dyn")
	if ds == nil {
		t.Fatal("dataset dyn not registered")
	}
	if ds.maint == nil {
		t.Fatal("dataset dyn has no maintainer")
	}
	return ds.maint
}

func serializedIndex(t *testing.T, ix *index.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// maintainedUpdateResponse is the slice of updatesResponse these tests
// care about.
type maintainedUpdateResponse struct {
	Index            string `json:"index"`
	IndexInvalidated bool   `json:"index_invalidated"`
	SnapshotEpoch    uint64 `json:"snapshot_epoch"`
}

func postMaintainedUpdate(t *testing.T, ts *httptest.Server, body string) maintainedUpdateResponse {
	t.Helper()
	resp, b := postUpdates(t, ts, "dyn", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d: %s", resp.StatusCode, b)
	}
	var ur maintainedUpdateResponse
	if err := json.Unmarshal(b, &ur); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
	return ur
}

// requireFreshBuildMatch asserts the attached index serializes
// byte-identically to a fresh Build over the store's current snapshot and
// is attached at the current epoch.
func requireFreshBuildMatch(t *testing.T, s *Server, ms store.MutableStore) {
	t.Helper()
	ds := s.registry.lookup("dyn")
	g, epoch := ms.Snapshot()
	at := ds.attached.Load()
	if at == nil {
		t.Fatal("no index attached")
	}
	if at.epoch != epoch {
		t.Fatalf("attached at epoch %d, store at %d", at.epoch, epoch)
	}
	fresh, err := index.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serializedIndex(t, at.ix), serializedIndex(t, fresh)) {
		t.Fatal("maintained index differs from a fresh build on the same snapshot")
	}
}

// dynInfo fetches the "dyn" dataset's stats row.
func dynInfo(t *testing.T, ts *httptest.Server) DatasetInfo {
	t.Helper()
	var stats struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	return *datasetNamed(t, stats.Datasets, "dyn")
}

// TestReindexDeltaRepairKeepsIndexAttached covers the synchronous fast
// path: a small-suffix update is repaired before the update response, the
// repaired index is byte-identical to a fresh build, and queries keep
// being served index-first with no rebuild involved. On rankGraph the
// edge 8–9 cuts at rank 8, so each batch touches 2 of 10 ranks, inside
// the repairFraction gate.
func TestReindexDeltaRepairKeepsIndexAttached(t *testing.T) {
	s, ts, ms := reindexServer(t, rankGraph(t), true, DatasetConfig{Reindex: "auto"})

	ur := postMaintainedUpdate(t, ts, `{"updates":[{"op":"delete","u":8,"v":9}]}`)
	if ur.Index != outcomeRepaired {
		t.Fatalf("index outcome %q, want %q", ur.Index, outcomeRepaired)
	}
	if ur.IndexInvalidated {
		t.Fatal("repair must not report the index as invalidated")
	}
	requireFreshBuildMatch(t, s, ms)

	info := dynInfo(t, ts)
	if info.IndexState != "attached" || !info.IndexLoaded {
		t.Fatalf("after repair: state %q loaded %v, want attached", info.IndexState, info.IndexLoaded)
	}
	if info.IndexDeltaRepairs < 1 {
		t.Fatalf("delta repairs = %d, want >= 1", info.IndexDeltaRepairs)
	}

	// The repaired index serves the very next query (no rebuild window).
	var res map[string]any
	getJSON(t, ts.URL+"/v1/topk?dataset=dyn&k=5&gamma=3", &res)
	after := dynInfo(t, ts)
	if after.IndexQueries != info.IndexQueries+1 {
		t.Fatalf("index queries %d -> %d, want an index-served query", info.IndexQueries, after.IndexQueries)
	}

	// A second batch repairs again from the already-repaired index.
	ur = postMaintainedUpdate(t, ts, `{"updates":[{"op":"insert","u":8,"v":9}]}`)
	if ur.Index != outcomeRepaired {
		t.Fatalf("second batch outcome %q, want %q", ur.Index, outcomeRepaired)
	}
	requireFreshBuildMatch(t, s, ms)
}

// TestReindexBackgroundRebuildAttaches covers the general path: a dataset
// loaded without an index bootstraps one in the background, and an update
// too large for the fast path detaches into "rebuilding" until the
// epoch-tagged rebuild attaches a byte-identical-to-fresh index.
func TestReindexBackgroundRebuildAttaches(t *testing.T) {
	s, ts, ms := reindexServer(t, rankGraph(t), false, DatasetConfig{Reindex: "auto"})
	m := maintOf(t, s)

	// Bootstrap: auto-reindex builds the first index on its own.
	waitFor(t, "bootstrap rebuild", func() bool { return dynInfo(t, ts).IndexState == "attached" })
	if n := m.rebuilds.Load(); n != 1 {
		t.Fatalf("rebuilds after bootstrap = %d, want 1", n)
	}
	requireFreshBuildMatch(t, s, ms)

	// An edge at rank 0 cuts at 0, past the repair gate, so the update
	// must go through the worker.
	ur := postMaintainedUpdate(t, ts, `{"updates":[{"op":"insert","u":0,"v":9}]}`)
	if ur.Index != outcomeRebuilding {
		t.Fatalf("index outcome %q, want %q", ur.Index, outcomeRebuilding)
	}
	if got := m.outcomeFor(ur.SnapshotEpoch); got != outcomeRebuilding {
		t.Fatalf("outcomeFor(%d) = %q mid-rebuild", ur.SnapshotEpoch, got)
	}

	// Mid-rebuild the dataset still answers (LocalSearch fallback).
	var res map[string]any
	getJSON(t, ts.URL+"/v1/topk?dataset=dyn&k=5&gamma=3", &res)

	waitFor(t, "rebuild after update", func() bool { return dynInfo(t, ts).IndexState == "attached" })
	if n := m.rebuilds.Load(); n != 2 {
		t.Fatalf("rebuilds = %d, want 2", n)
	}
	requireFreshBuildMatch(t, s, ms)

	info := dynInfo(t, ts)
	if info.IndexRebuilds != 2 {
		t.Fatalf("stats report %d rebuilds, want 2", info.IndexRebuilds)
	}
}

// TestReindexMaintainedMatchesFreshBuildUnderTraffic is the acceptance
// property: across a (k, gamma, update-batch) matrix with concurrent query
// traffic, maintenance — whichever mix of delta repairs and background
// rebuilds it chooses — converges to an index byte-identical to a fresh
// build on the final snapshot, and the quiesced server serves index-first
// with index_queries advancing.
func TestReindexMaintainedMatchesFreshBuildUnderTraffic(t *testing.T) {
	g := gen.Random(120, 6, 7)
	s, ts, ms := reindexServer(t, g, true, DatasetConfig{Reindex: "auto"}, WithResultCache(0))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ks := []int{1, 5, 10}
			gammas := []int{1, 2, 3, 4}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := fmt.Sprintf("%s/v1/topk?dataset=dyn&k=%d&gamma=%d",
					ts.URL, ks[(w+i)%len(ks)], gammas[i%len(gammas)])
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}

	// Toggle tracked edges so every batch is effective, mixing small
	// batches (repair path) with spread-out ones (rebuild path).
	rng := rand.New(rand.NewSource(11))
	n := int32(g.NumVertices())
	exists := make(map[[2]int32]bool)
	for batch := 0; batch < 12; batch++ {
		var ops []string
		used := make(map[[2]int32]bool)
		want := 1 + rng.Intn(5)
		for len(ops) < want {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			key := [2]int32{u, v}
			if used[key] {
				// Toggling the same edge twice in one batch would cancel
				// out into a no-op; every op here must stay effective.
				continue
			}
			used[key] = true
			if _, seen := exists[key]; !seen {
				exists[key] = g.HasEdge(u, v)
			}
			op := "insert"
			if exists[key] {
				op = "delete"
			}
			exists[key] = !exists[key]
			ops = append(ops, fmt.Sprintf(`{"op":%q,"u":%d,"v":%d}`, op, g.OrigID(u), g.OrigID(v)))
		}
		ur := postMaintainedUpdate(t, ts, `{"updates":[`+strings.Join(ops, ",")+`]}`)
		if ur.Index != outcomeRepaired && ur.Index != outcomeRebuilding {
			t.Fatalf("batch %d: index outcome %q", batch, ur.Index)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Quiesce: maintenance converges to an attached, current index.
	waitFor(t, "index to converge", func() bool { return dynInfo(t, ts).IndexState == "attached" })
	requireFreshBuildMatch(t, s, ms)

	before := dynInfo(t, ts)
	for gamma := 1; gamma <= 3; gamma++ {
		var res map[string]any
		getJSON(t, fmt.Sprintf("%s/v1/topk?dataset=dyn&k=10&gamma=%d", ts.URL, gamma), &res)
	}
	after := dynInfo(t, ts)
	if after.IndexState != "attached" {
		t.Fatalf("quiesced state %q, want attached", after.IndexState)
	}
	if after.IndexQueries != before.IndexQueries+3 {
		t.Fatalf("index_queries %d -> %d, want +3 (index-first serving restored)",
			before.IndexQueries, after.IndexQueries)
	}
	m := maintOf(t, s)
	if m.rebuilds.Load()+m.deltaRepairs.Load() == 0 {
		t.Fatal("maintenance attached nothing despite 12 effective batches")
	}
}

// TestReindexMidRebuildDiscardsStale pins the epoch fence: an update
// landing while a rebuild is in flight makes the finished build stale —
// it is discarded, never attached, and the worker immediately rebuilds
// against the snapshot that superseded it.
func TestReindexMidRebuildDiscardsStale(t *testing.T) {
	s, ts, ms := reindexServer(t, rankGraph(t), true, DatasetConfig{Reindex: "auto"})
	m := maintOf(t, s)

	started := make(chan uint64, 8)
	release := make(chan struct{})
	var blockFirst atomic.Bool
	blockFirst.Store(true)
	hook := func(epoch uint64) {
		select {
		case started <- epoch:
		default:
		}
		if blockFirst.CompareAndSwap(true, false) {
			<-release
		}
	}
	m.testBuildStarted.Store(&hook)

	// Both batches cut below rank 2, past the repair gate: rebuilds.
	postMaintainedUpdate(t, ts, `{"updates":[{"op":"delete","u":0,"v":1}]}`)
	e1 := <-started // the worker is now mid-build against e1, holding it open

	// Land a second batch while the first build is in flight.
	ur := postMaintainedUpdate(t, ts, `{"updates":[{"op":"delete","u":1,"v":2}]}`)
	if ur.SnapshotEpoch <= e1 {
		t.Fatalf("second batch epoch %d did not pass build epoch %d", ur.SnapshotEpoch, e1)
	}
	close(release)

	waitFor(t, "rebuild at the superseding epoch", func() bool {
		return dynInfo(t, ts).IndexState == "attached"
	})
	if d := m.discarded.Load(); d < 1 {
		t.Fatalf("discarded = %d, want >= 1 (stale build must not attach)", d)
	}
	e2 := <-started
	if e2 != ur.SnapshotEpoch {
		t.Fatalf("retry built against epoch %d, want %d", e2, ur.SnapshotEpoch)
	}
	requireFreshBuildMatch(t, s, ms)
}

// TestReindexCloseDrainsInFlightRebuild pins shutdown: Server.Close while
// the rebuild worker has a build in flight cancels it, waits the worker
// out without hanging, and never attaches the cancelled build.
func TestReindexCloseDrainsInFlightRebuild(t *testing.T) {
	g := gen.Random(800, 8, 3)
	s, ts, _ := reindexServer(t, g, false, DatasetConfig{Reindex: "auto"})
	m := maintOf(t, s)
	waitFor(t, "bootstrap rebuild", func() bool { return dynInfo(t, ts).IndexState == "attached" })

	// Park the worker right at the start of its build cycle, so Close
	// provably lands while the rebuild is in flight.
	started := make(chan uint64, 8)
	release := make(chan struct{})
	var blockFirst atomic.Bool
	blockFirst.Store(true)
	hook := func(epoch uint64) {
		select {
		case started <- epoch:
		default:
		}
		if blockFirst.CompareAndSwap(true, false) {
			<-release
		}
	}
	m.testBuildStarted.Store(&hook)

	// An edge between ranks 0 and 1 cuts at 0: a rebuild, not a repair.
	op := "insert"
	if g.HasEdge(0, 1) {
		op = "delete"
	}
	postMaintainedUpdate(t, ts, fmt.Sprintf(`{"updates":[{"op":%q,"u":%d,"v":%d}]}`, op, g.OrigID(0), g.OrigID(1)))
	<-started

	ts.Close()
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	// Close is now blocked draining the worker; release it into a build
	// whose context Close has already cancelled.
	time.Sleep(5 * time.Millisecond)
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close hung on an in-flight rebuild")
	}
	if n := m.rebuilds.Load(); n != 1 {
		t.Fatalf("rebuilds = %d after close, want only the bootstrap build (a cancelled build must not attach)", n)
	}
}

// TestReindexWALReplayRebuildsOnce covers the crash path: reopening a
// mutable store replays the whole write-ahead log before the maintenance
// hook exists, so an auto-reindex dataset over the replayed store
// triggers exactly one rebuild, not one per replayed batch.
func TestReindexWALReplayRebuildsOnce(t *testing.T) {
	g := rankGraph(t)
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := semiext.WriteEdgeFile(path, g); err != nil {
		t.Fatal(err)
	}
	ms, err := store.OpenMutable(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, b := range [][]store.EdgeUpdate{
		{{U: 0, V: 1, Delete: true}},
		{{U: 0, V: 9}},
		{{U: 2, V: 7}},
	} {
		if _, err := ms.ApplyUpdates(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	wantEpoch := ms.SnapshotEpoch()
	if err := ms.(interface{ Abandon() error }).Abandon(); err != nil {
		t.Fatal(err)
	}

	re, err := store.OpenMutable(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.SnapshotEpoch() != wantEpoch {
		t.Fatalf("replayed epoch %d, want %d", re.SnapshotEpoch(), wantEpoch)
	}
	s, err := New(rankGraph(t),
		WithDataset("dyn", DatasetConfig{Store: re, Reindex: "auto"}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	m := maintOf(t, s)
	waitFor(t, "post-replay rebuild", func() bool { return dynInfo(t, ts).IndexState == "attached" })
	// Give a hypothetical second rebuild time to fire (a kick waits out
	// the debounce before building), then pin the count.
	time.Sleep(2 * reindexDebounce)
	if n := m.rebuilds.Load(); n != 1 {
		t.Fatalf("rebuilds after crash-replay = %d, want exactly 1", n)
	}
	if d := m.discarded.Load(); d != 0 {
		t.Fatalf("discarded = %d after a quiet replay", d)
	}
	requireFreshBuildMatch(t, s, re)
}

// TestReindexOffDroppedLatch pins the unmaintained contract: with
// maintenance off, the first effective batch drops the index and reports
// the transition; every later batch still reports index "dropped" even
// though the transition flag is spent.
func TestReindexOffDroppedLatch(t *testing.T) {
	s, ts, _ := reindexServer(t, rankGraph(t), true, DatasetConfig{Reindex: "off"})
	if ds := s.registry.lookup("dyn"); ds.maint != nil {
		t.Fatal("reindex=off must not start a maintainer")
	}

	first := postMaintainedUpdate(t, ts, `{"updates":[{"op":"delete","u":8,"v":9}]}`)
	if !first.IndexInvalidated || first.Index != outcomeDropped {
		t.Fatalf("first batch: invalidated=%v index=%q, want the drop transition", first.IndexInvalidated, first.Index)
	}
	second := postMaintainedUpdate(t, ts, `{"updates":[{"op":"insert","u":8,"v":9}]}`)
	if second.IndexInvalidated {
		t.Fatal("second batch re-reported the drop transition")
	}
	if second.Index != outcomeDropped {
		t.Fatalf("second batch index %q, want %q (latched)", second.Index, outcomeDropped)
	}
	if st := dynInfo(t, ts).IndexState; st != "dropped" {
		t.Fatalf("dataset state %q, want dropped", st)
	}
}

// BenchmarkIndexMaintenance measures query cost on a mutable dataset under
// a steady trickle of updates (one small batch per 32 queries, in-process
// through ServeHTTP): "auto-reindex" keeps the index current — the batch
// pays a synchronous delta repair and the queries stay index-served —
// while "localsearch-fallback" is the unmaintained behavior, every query
// paying an online LocalSearch after the index drops.
func BenchmarkIndexMaintenance(b *testing.B) {
	run := func(b *testing.B, reindex string) {
		g := gen.Random(400, 8, 5)
		path := filepath.Join(b.TempDir(), "g.edges")
		if err := semiext.WriteEdgeFile(path, g); err != nil {
			b.Fatal(err)
		}
		ms, err := store.OpenMutable(path)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := index.Build(ms.Graph())
		if err != nil {
			b.Fatal(err)
		}
		s, err := New(rankGraph(b), WithResultCache(0),
			WithDataset("dyn", DatasetConfig{Store: ms, Index: ix, Reindex: reindex}))
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()

		// Toggle an edge between the two lowest-weight vertices: the delta
		// cut lands at rank n-2, the small-suffix case the repair path is
		// built for.
		n := int32(g.NumVertices())
		u, v := g.OrigID(n-2), g.OrigID(n-1)
		del := g.HasEdge(n-2, n-1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%32 == 31 {
				op := "insert"
				if del {
					op = "delete"
				}
				del = !del
				body := fmt.Sprintf(`{"updates":[{"op":%q,"u":%d,"v":%d}]}`, op, u, v)
				req := httptest.NewRequest("POST", "/v1/admin/datasets/dyn/updates", strings.NewReader(body))
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("update: %d %s", w.Code, w.Body)
				}
			}
			req := httptest.NewRequest("GET", "/v1/topk?dataset=dyn&k=10&gamma=3", nil)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("query: %d %s", w.Code, w.Body)
			}
		}
	}
	b.Run("auto-reindex", func(b *testing.B) { run(b, "auto") })
	b.Run("localsearch-fallback", func(b *testing.B) { run(b, "off") })
}

// TestReindexConfigValidation pins the registration rules: bad values and
// maintenance on ineligible backends fail loudly, and an empty Reindex
// means off.
func TestReindexConfigValidation(t *testing.T) {
	if _, err := New(rankGraph(t), WithDataset("x", DatasetConfig{Graph: rankGraph(t), Reindex: "always"})); err == nil {
		t.Fatal("bad reindex value accepted")
	}
	// Explicit auto on an immutable in-memory dataset: error.
	if _, err := New(rankGraph(t), WithDataset("x", DatasetConfig{Graph: rankGraph(t), Reindex: "auto"})); err == nil {
		t.Fatal("reindex=auto accepted on an immutable backend")
	}
	s, _, _ := reindexServer(t, rankGraph(t), true, DatasetConfig{})
	if ds := s.registry.lookup("dyn"); ds.maint != nil {
		t.Fatal("an empty reindex value started a maintainer")
	}
}

// TestHealthzReportsWarmingDuringRebuild pins the readiness dimension: a
// dataset whose index is still being (re)built is "up but warming" —
// /healthz stays 200 (liveness) but ready flips false and names the
// dataset, and DatasetInfo mirrors it via ready=false — so a cluster
// prober can deprioritize the replica without evicting it.
func TestHealthzReportsWarmingDuringRebuild(t *testing.T) {
	// Blocking the bootstrap build freezes the dataset in the "rebuilding"
	// state: no index attached, maintainer pending. The worker waits out
	// reindexDebounce before it builds, so the hook is in place first.
	s, ts, _ := reindexServer(t, rankGraph(t), false, DatasetConfig{Reindex: "auto"})
	started := make(chan uint64, 1)
	release := make(chan struct{})
	hook := func(epoch uint64) {
		started <- epoch
		<-release
	}
	maintOf(t, s).testBuildStarted.Store(&hook)
	t.Cleanup(func() { close(release) }) // runs before the server closes
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the bootstrap build never started")
	}
	var got struct {
		Status  string   `json:"status"`
		Ready   bool     `json:"ready"`
		Warming []string `json:"warming"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.Status != "ok" {
		t.Fatalf("warming must not fail liveness: %+v", got)
	}
	if got.Ready || len(got.Warming) != 1 || got.Warming[0] != "dyn" {
		t.Fatalf("healthz = %+v, want ready=false warming=[dyn]", got)
	}
	if info := dynInfo(t, ts); info.Ready {
		t.Fatalf("dataset info = %+v, want ready=false mid-rebuild", info)
	}
}
