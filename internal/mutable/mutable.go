// Package mutable maintains a weight-ranked graph under online edge
// insertions and deletions while serving queries from immutable
// copy-on-write snapshots, closing the gap between the paper's static-graph
// premise and a serving system whose datasets mutate continuously.
//
// The design splits the two concerns the static backends fuse:
//
//   - Readers never block and never lock. A query pins the current snapshot
//     with one atomic pointer load; the snapshot — a fully built
//     graph.Graph plus the engine pool bound to it — is immutable from the
//     moment it is published, so the query runs exactly as it would on a
//     static in-memory store. The pinned pointer is the reference that
//     keeps the snapshot alive (the garbage collector plays the role the
//     semi-external store's explicit refcount plays for its mmap),
//     so a snapshot is reclaimed only after the last query using it
//     returns.
//
//   - Writers serialize among themselves and publish whole snapshots.
//     Applying a batch costs one incremental graph delta
//     (graph.ApplyEdgeDelta): vertex weights never change under edge
//     mutations, so the weight ranking, original-ID mapping, and labels
//     are shared across every snapshot, the adjacency prefix below the
//     smallest touched vertex is copied verbatim, and only the affected
//     suffix of the CSR and its up-degree/up-prefix vectors is recomputed
//     — no sorting, no deduplication, no full rebuild.
//
// Stores opened from a semi-external edge file are durable: every applied
// batch is appended to a write-ahead update log (semiext.UpdateLog) and
// fsynced before the in-memory snapshot advances, the log is replayed when
// the store reopens, and a clean Close compacts the accumulated updates
// back into the edge file atomically and deletes the log.
package mutable

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/semiext"
)

// ErrInvalidBatch marks ApplyUpdates failures caused by the batch itself —
// unknown vertices, self loops — as opposed to store-side failures (log
// I/O, a closed store). The serving layer maps the former to client
// errors and everything else to server errors.
var ErrInvalidBatch = errors.New("invalid update batch")

// invalidf builds an ErrInvalidBatch-wrapped batch-validation error.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("mutable: %w: %s", ErrInvalidBatch, fmt.Sprintf(format, args...))
}

// Update is one edge mutation. Endpoints are original vertex IDs — the IDs
// the graph was built with, exactly as in graph.Edit — so update feeds
// written against the input data keep working regardless of weight rank.
// For stores opened from an edge file, original IDs and weight ranks
// coincide (the edge-file layout stores ranks).
type Update struct {
	// Delete removes the edge; the zero value inserts it.
	Delete bool
	// U, V are the edge's endpoints (original vertex IDs, unordered).
	U, V int32
}

// ApplyStats reports what one ApplyUpdates batch did.
type ApplyStats struct {
	// Inserted and Deleted count the edges that actually changed the graph.
	Inserted, Deleted int
	// Skipped counts no-ops: inserting an edge already present, deleting
	// one already absent, or an op superseded by a later op on the same
	// edge within the batch (the last op wins).
	Skipped int
	// Epoch is the snapshot epoch after the batch; queries arriving from
	// now on see the updated graph.
	Epoch uint64
}

// UpdateEvent describes one published snapshot transition to an OnApply
// observer: the epoch of the snapshot just published and the delta's cut
// — the smallest weight rank whose adjacency row changed (see
// graph.ApplyEdgeDeltaCut). Every prefix subgraph below the cut is
// identical across the transition, which is what incremental index
// maintenance keys on.
type UpdateEvent struct {
	// Epoch is the snapshot epoch published by the batch.
	Epoch uint64
	// Cut is the smallest rank with a changed adjacency row.
	Cut int
}

// OnApply registers fn to run after every effectively applied batch
// (no-op batches fire nothing), synchronously under the writer lock and
// after the new snapshot is published: when fn runs, Snapshot() already
// returns the epoch it was handed, and no further batch can land until
// fn returns. Replay during Open happens before any observer can
// register, so a reopened store fires no replay events. At most one
// observer is supported; registering nil removes it.
func (s *Store) OnApply(fn func(UpdateEvent)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onApply = fn
}

// snapshot is one immutable published state: a graph and the engine pool
// bound to it. Neither is modified after publication.
type snapshot struct {
	g     *graph.Graph
	pool  *core.Pool
	epoch uint64
}

// Store is a mutable graph served through copy-on-write snapshots. Reads
// (Pin, TopK, Graph) are lock-free and never pause during updates;
// writes (ApplyUpdates, Close) serialize among themselves. It implements
// the store.Store interface with backend name "mutable".
type Store struct {
	// mu serializes writers: batch application, compaction, close. Readers
	// never take it.
	mu   sync.Mutex
	snap atomic.Pointer[snapshot]

	// rankOf maps original vertex IDs to ranks; nil when the mapping is the
	// identity (edge-file stores, unlabeled FromUpAdjacency graphs).
	rankOf map[int32]int32

	// log is the write-ahead update log; nil for purely in-memory stores,
	// which mutate without durability. edgePath is the compaction target and
	// edgeFormat the layout it was opened with — compaction writes the same
	// format back, so a compressed (v2) store stays compressed across
	// update/close/reopen cycles.
	log        *semiext.UpdateLog
	edgePath   string
	edgeFormat int
	// dirty marks snapshot state that is ahead of the edge file, so Close
	// knows whether compaction has anything to write.
	dirty bool

	// onApply, when set, observes every effective batch; see OnApply.
	onApply func(UpdateEvent)

	applied atomic.Int64
	closed  atomic.Bool
}

// NewStore serves g mutably with no durability: updates mutate the served
// snapshots but are not logged anywhere. Use Open for a durable store
// backed by an edge file.
func NewStore(g *graph.Graph) (*Store, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, errors.New("mutable: nil or empty graph")
	}
	s := &Store{}
	s.snap.Store(&snapshot{g: g, pool: core.NewPool(g)})
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		if g.OrigID(u) != u {
			s.rankOf = make(map[int32]int32, g.NumVertices())
			for r := int32(0); int(r) < g.NumVertices(); r++ {
				s.rankOf[g.OrigID(r)] = r
			}
			break
		}
	}
	return s, nil
}

// Open loads the semi-external edge file at path fully into memory, replays
// its write-ahead update log (path + ".log") if one exists, and returns the
// durable mutable store over the result. Unlike the semi-external backend
// the whole graph is resident — mutability needs the full adjacency — so
// the edge file here is the persistence format, not a working set bound.
func Open(path string) (*Store, error) {
	v, err := semiext.OpenView(path)
	if err != nil {
		return nil, err
	}
	// The loaded graph shares no memory with the view, so the mapping is
	// released before any snapshot is published.
	g, err := v.Graph(1)
	format := v.Format()
	v.Close()
	if err != nil {
		return nil, fmt.Errorf("mutable: %s: %w", path, err)
	}

	s := &Store{edgePath: path, edgeFormat: format}
	s.snap.Store(&snapshot{g: g, pool: core.NewPool(g)})
	log, batches, err := semiext.OpenUpdateLog(semiext.UpdateLogPath(path))
	if err != nil {
		return nil, err
	}
	s.log = log
	for _, b := range batches {
		// Replay re-applies logged batches through the same no-op filter as
		// live traffic: after a crash between compaction and log removal,
		// every logged op is already in the edge file and filters to
		// nothing, which is exactly the idempotence replay needs.
		if _, err := s.applyRanked(b, false); err != nil {
			log.Close()
			return nil, fmt.Errorf("mutable: replaying %s: %w", log.Path(), err)
		}
	}
	// dirty is set by applyRanked only for batches that changed the graph:
	// a log that replays to pure no-ops (the post-compaction-crash case)
	// leaves the store clean, so Close drops it without rewriting the
	// edge file.
	return s, nil
}

// Backend returns "mutable".
func (s *Store) Backend() string { return "mutable" }

// NumVertices returns the vertex count of the current snapshot.
func (s *Store) NumVertices() int { return s.snap.Load().g.NumVertices() }

// NumEdges returns the edge count of the current snapshot.
func (s *Store) NumEdges() int64 { return s.snap.Load().g.NumEdges() }

// Graph returns the current snapshot's graph. Weights, original IDs, and
// labels are shared across all snapshots, so identity lookups on the
// returned graph agree with any concurrently taken snapshot.
func (s *Store) Graph() *graph.Graph { return s.snap.Load().g }

// Snapshot returns the current graph together with its epoch in one
// coherent read; callers caching per-graph derived state (a truss index, a
// prebuilt index) key it by the epoch.
func (s *Store) Snapshot() (*graph.Graph, uint64) {
	sn := s.snap.Load()
	return sn.g, sn.epoch
}

// SnapshotEpoch returns the current snapshot epoch: 0 at open, +1 per
// effective ApplyUpdates batch (including batches replayed from the log).
func (s *Store) SnapshotEpoch() uint64 { return s.snap.Load().epoch }

// UpdatesApplied returns the total number of effective edge mutations
// (inserts plus deletes, no-ops excluded) applied since the store opened.
func (s *Store) UpdatesApplied() int64 { return s.applied.Load() }

// Pin returns the published snapshot's engine pool and epoch in one
// atomic load. Queries on the pool run on that snapshot however many
// batches publish meanwhile, and complete normally if the store closes.
func (s *Store) Pin() (core.Searcher, uint64) {
	sn := s.snap.Load()
	return sn.pool, sn.epoch
}

// TopK answers a query against the snapshot current at call time: the one
// atomic pointer load is the snapshot pin — updates applied while the
// query runs publish new snapshots without disturbing it.
func (s *Store) TopK(ctx context.Context, k int, gamma int32, opts core.Options) (*core.Result, error) {
	if s.closed.Load() {
		return nil, errors.New("mutable: store is closed")
	}
	return s.snap.Load().pool.TopK(ctx, k, gamma, opts)
}

// ApplyUpdates applies one batch of edge mutations and publishes the
// resulting snapshot. The batch is normalized first — original IDs resolved
// to ranks, endpoints ordered, duplicates within the batch resolved last op
// wins — then filtered against the current graph (no-op inserts and deletes
// are skipped, not errors), durably logged when the store has a write-ahead
// log, and finally applied as one incremental graph delta. Queries running
// concurrently keep their pinned snapshots; queries arriving after
// ApplyUpdates returns see the new one. Unknown vertex IDs and self loops
// fail the whole batch before anything is logged or applied.
func (s *Store) ApplyUpdates(ctx context.Context, batch []Update) (ApplyStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ApplyStats{}, errors.New("mutable: store is closed")
	}
	if err := ctx.Err(); err != nil {
		return ApplyStats{}, err
	}
	ranked, collapsed, err := s.rank(batch)
	if err != nil {
		return ApplyStats{}, err
	}
	st, err := s.applyRanked(ranked, true)
	if err != nil {
		return ApplyStats{}, err
	}
	st.Skipped += collapsed
	return st, nil
}

// rank resolves a raw batch into normalized rank pairs, resolving original
// IDs and rejecting unknown vertices and self loops. Duplicate edges within
// the batch collapse to the last op; collapsed reports how many ops were
// superseded that way.
func (s *Store) rank(batch []Update) (out []semiext.LogUpdate, collapsed int, err error) {
	g := s.snap.Load().g
	resolve := func(id int32) (int32, error) {
		if s.rankOf != nil {
			r, ok := s.rankOf[id]
			if !ok {
				return 0, invalidf("unknown vertex %d", id)
			}
			return r, nil
		}
		if id < 0 || int(id) >= g.NumVertices() {
			return 0, invalidf("unknown vertex %d", id)
		}
		return id, nil
	}
	out = make([]semiext.LogUpdate, 0, len(batch))
	last := make(map[[2]int32]int, len(batch)) // edge -> index in out
	for _, up := range batch {
		u, err := resolve(up.U)
		if err != nil {
			return nil, 0, err
		}
		v, err := resolve(up.V)
		if err != nil {
			return nil, 0, err
		}
		if u == v {
			return nil, 0, invalidf("self loop (%d,%d) rejected", up.U, up.V)
		}
		if u > v {
			u, v = v, u
		}
		lu := semiext.LogUpdate{Delete: up.Delete, U: u, V: v}
		if i, ok := last[[2]int32{u, v}]; ok {
			out[i] = lu // last op on an edge wins
			collapsed++
			continue
		}
		last[[2]int32{u, v}] = len(out)
		out = append(out, lu)
	}
	return out, collapsed, nil
}

// applyRanked filters a normalized batch against the current snapshot,
// optionally logs it, applies the delta, and publishes the next snapshot.
// Callers hold s.mu.
func (s *Store) applyRanked(ranked []semiext.LogUpdate, logIt bool) (ApplyStats, error) {
	sn := s.snap.Load()
	var st ApplyStats
	var ins, del [][2]int32
	eff := ranked[:0:0]
	for _, u := range ranked {
		e := [2]int32{u.U, u.V}
		if u.Delete != sn.g.HasEdge(u.U, u.V) {
			st.Skipped++ // no-op: insert of present edge / delete of absent
			continue
		}
		if u.Delete {
			del = append(del, e)
			st.Deleted++
		} else {
			ins = append(ins, e)
			st.Inserted++
		}
		eff = append(eff, u)
	}
	st.Epoch = sn.epoch
	if len(eff) == 0 {
		return st, nil
	}
	if logIt && s.log != nil {
		// Durability before visibility: a batch is acknowledged only after
		// it is fsynced, and it is applied in memory only after it is
		// logged, so the replayed log is never behind a served snapshot.
		if err := s.log.Append(eff); err != nil {
			return ApplyStats{}, err
		}
	}
	ng, cut, err := graph.ApplyEdgeDeltaCut(sn.g, ins, del)
	if err != nil {
		return ApplyStats{}, err
	}
	next := &snapshot{g: ng, pool: core.NewPool(ng), epoch: sn.epoch + 1}
	s.snap.Store(next)
	s.dirty = true
	st.Epoch = next.epoch
	s.applied.Add(int64(st.Inserted + st.Deleted))
	if s.onApply != nil {
		s.onApply(UpdateEvent{Epoch: next.epoch, Cut: cut})
	}
	return st, nil
}

// Abandon releases the store without compacting: the write-ahead log
// handle is closed — releasing its exclusive lock — with every logged
// batch left in place to replay on the next Open. It is the programmatic
// equivalent of the process dying (crash tests use it; an operator gets
// the same effect from kill -9), useful when a shutdown cannot afford the
// edge-file rewrite.
func (s *Store) Abandon() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Swap(true) || s.log == nil {
		return nil
	}
	return s.log.Close()
}

// Close shuts the store down. A durable store first compacts: the current
// snapshot is rewritten into the edge file atomically (temp file + rename,
// via the shared atomicio path inside WriteEdgeFileFormat, preserving the
// format the file was opened with) and only then is the
// update log removed — a crash between the two replays a log whose every
// op is already compacted, which filters to nothing. Queries in flight on
// pinned snapshots complete normally; new queries fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Swap(true) {
		return nil
	}
	if s.log == nil {
		return nil
	}
	if !s.dirty {
		// Nothing newer than the edge file: the log is empty or replayed to
		// pure no-ops (the post-compaction-crash case); drop it.
		return s.log.Remove()
	}
	if err := semiext.WriteEdgeFileFormat(s.edgePath, s.snap.Load().g, s.edgeFormat); err != nil {
		// Compaction failed; keep the log so no update is lost. The store
		// still closes.
		s.log.Close()
		return err
	}
	return s.log.Remove()
}
