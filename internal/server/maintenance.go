package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"influcomm/internal/index"
	"influcomm/internal/store"
)

// This file is the index-maintenance pipeline: the machinery that keeps a
// mutable dataset serving index-first under continuous ingest instead of
// degrading permanently to LocalSearch after the first effective update.
//
// Two paths maintain the index, both deterministic and byte-identical (in
// serialized form) to a fresh build on the post-update snapshot:
//
//   - Fast path, synchronous: when the update batch's delta cut leaves
//     only a small suffix of the weight ranking touched, the store's
//     OnApply hook repairs the attached index in place via
//     Index.ApplyDelta — recompute the at-or-above-cut head of every γ
//     decomposition, splice the unchanged below-cut tail — and attaches
//     the result before the update request is even acknowledged.
//
//   - General path, asynchronous: a per-dataset worker rebuilds from
//     scratch against the snapshot current when the build starts, tagged
//     with that snapshot's epoch, and attaches only if the store is still
//     at that epoch; an update landing mid-build makes the finished build
//     stale, so it is discarded and the worker immediately rebuilds
//     against the newer snapshot. Queries keep falling back to
//     LocalSearch while no current index is attached, so correctness
//     never depends on the pipeline's progress.

// Maintenance outcomes reported by the updates endpoint ("index" field).
const (
	outcomeRepaired   = "repaired"   // delta repair attached synchronously
	outcomeRebuilding = "rebuilding" // background rebuild pending or running
	outcomeDropped    = "dropped"    // no maintenance: index gone until reloaded
)

// attachedIndex pairs a prebuilt index with the snapshot epoch it
// describes. The pair is published atomically: tagging the epoch inside
// the same pointer is what lets a query decide index validity with one
// load, and what lets the rebuild worker attach a finished build with no
// window in which a stale index could serve a newer epoch.
type attachedIndex struct {
	ix    *index.Index
	epoch uint64
}

const (
	// reindexDebounce is how long the rebuild worker waits after a kick
	// before building, so a burst of updates costs one rebuild, not one
	// each.
	reindexDebounce = 100 * time.Millisecond
	// repairFraction is the largest touched-suffix fraction (n-cut)/n the
	// synchronous fast path accepts; larger deltas go to the background
	// rebuild.
	repairFraction = 0.25
)

// maintainer keeps one mutable dataset's index current. It observes every
// effective update through the store's OnApply hook (synchronously, under
// the store's writer lock) and owns the dataset's background rebuild
// worker. Created by addDataset for datasets with reindex enabled;
// stopped by RemoveDataset and Server.Close.
type maintainer struct {
	ds *dataset
	ms store.MutableStore

	// mu guards minCut and the per-epoch outcome, and makes the rebuild
	// worker's stale-check-then-attach atomic against the OnApply hook.
	// Lock order: the hook holds the store's writer lock when it takes mu;
	// nothing holding mu ever takes a store or registry lock.
	mu sync.Mutex
	// minCut is the smallest delta cut observed since the attached index's
	// epoch: the combined delta from that epoch to now leaves every prefix
	// below minCut unchanged, so one repair with minCut absorbs any number
	// of accumulated batches. Reset to n on every attach.
	minCut int
	// lastOutcome and lastEpoch report what maintenance did about the
	// batch that published lastEpoch; the updates handler reads them to
	// answer "repaired or rebuilding?" for the batch it just applied.
	lastOutcome string
	lastEpoch   uint64

	// kick wakes the rebuild worker; buffered so the hook never blocks on
	// a worker that is mid-build (the pending kick is consumed after).
	kick   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	rebuilds     atomic.Int64 // background builds attached
	deltaRepairs atomic.Int64 // synchronous repairs attached
	discarded    atomic.Int64 // finished builds dropped as stale

	// testBuildStarted, when set by white-box tests, observes every
	// background build attempt with the epoch it builds against; atomic so
	// tests can install it while the worker runs.
	testBuildStarted atomic.Pointer[func(epoch uint64)]
}

func newMaintainer(ds *dataset, ms store.MutableStore) *maintainer {
	m := &maintainer{ds: ds, ms: ms, kick: make(chan struct{}, 1)}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	m.minCut = ms.NumVertices()
	return m
}

// start registers the update hook and launches the rebuild worker. A
// dataset loaded without an index gets an immediate kick, so auto-reindex
// also bootstraps the first index — including after a WAL crash-replay,
// where Open replays every logged batch before the hook exists and the
// reopened dataset triggers exactly one rebuild, not one per batch.
func (m *maintainer) start() {
	m.ms.OnApply(m.onUpdate)
	m.wg.Add(1)
	go m.run()
	if m.ds.indexAt(m.ms.SnapshotEpoch()) == nil {
		m.kickWorker()
	}
}

// stop cancels any in-flight build or repair, waits for the worker to
// drain, and unregisters the hook (which waits out a hook invocation in
// flight on the store's writer lock).
func (m *maintainer) stop() {
	m.cancel()
	m.wg.Wait()
	m.ms.OnApply(nil)
}

func (m *maintainer) kickWorker() {
	select {
	case m.kick <- struct{}{}:
	default: // a kick is already pending
	}
}

// onUpdate observes one effective batch. It runs under the store's writer
// lock, after the new snapshot is published and before the update request
// is acknowledged — so the snapshot read here is exactly the one the
// event describes, no further batch can land until this returns, and a
// successful repair means the response can truthfully say "repaired".
func (m *maintainer) onUpdate(ev store.UpdateEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ev.Cut < m.minCut {
		m.minCut = ev.Cut
	}
	if at := m.ds.attached.Load(); at != nil {
		g, epoch := m.ms.Snapshot()
		n := g.NumVertices()
		if repairEligible(n, m.minCut) {
			// The attached index may be several epochs behind (a stale
			// build can attach under its own older epoch tag); minCut
			// accumulates across exactly those epochs, so the repair below
			// is valid from whatever epoch the attached index describes.
			nix, err := at.ix.ApplyDeltaContext(m.ctx, g, m.minCut, 0)
			if err == nil {
				m.ds.attached.Store(&attachedIndex{ix: nix, epoch: epoch})
				m.minCut = n
				m.deltaRepairs.Add(1)
				m.lastOutcome, m.lastEpoch = outcomeRepaired, ev.Epoch
				return
			}
			// Only cancellation fails a repair (shutdown in progress); the
			// background path inherits the same cancelled context and will
			// exit, leaving queries on LocalSearch — the safe floor.
		}
	}
	m.lastOutcome, m.lastEpoch = outcomeRebuilding, ev.Epoch
	m.kickWorker()
}

// repairEligible is the synchronous fast-path gate: a combined delta
// touching only the rank suffix at or above minCut qualifies when that
// suffix, n-minCut vertices, is at most repairFraction of the graph. Above
// it a repair recomputes most of every decomposition anyway, so the work
// moves to the background rebuild and queries stay on the LocalSearch
// fallback meanwhile.
func repairEligible(n, minCut int) bool {
	return float64(n-minCut) <= repairFraction*float64(n)
}

// outcomeFor reports what maintenance did about the batch that published
// epoch. A later batch may have superseded it; its outcome then covers
// this batch too (a repair or build at a later epoch absorbs every
// earlier one).
func (m *maintainer) outcomeFor(epoch uint64) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lastEpoch >= epoch {
		return m.lastOutcome
	}
	return outcomeRebuilding
}

// run is the background rebuild worker: debounce a kick, then rebuild
// against the current snapshot until a build attaches — every build that
// finishes against an already-superseded epoch is discarded and retried
// against the newer snapshot, never attached.
func (m *maintainer) run() {
	defer m.wg.Done()
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-m.kick:
		}
		timer.Reset(reindexDebounce)
		select {
		case <-m.ctx.Done():
			return
		case <-timer.C:
		}
		for {
			g, epoch := m.ms.Snapshot()
			if m.ds.indexAt(epoch) != nil {
				break // a synchronous repair already caught up
			}
			if f := m.testBuildStarted.Load(); f != nil {
				(*f)(epoch)
			}
			// 0 workers: BuildContext sizes the pool itself.
			ix, err := index.BuildContext(m.ctx, g, 0)
			if err != nil {
				return // only a cancelled context fails a build: shutdown
			}
			m.mu.Lock()
			if m.ms.SnapshotEpoch() == epoch {
				m.ds.attached.Store(&attachedIndex{ix: ix, epoch: epoch})
				m.minCut = g.NumVertices()
				m.mu.Unlock()
				m.rebuilds.Add(1)
				break
			}
			m.mu.Unlock()
			// An update landed mid-build: the finished index describes a
			// snapshot no query will ever ask for again. Drop it and build
			// against the snapshot that superseded it.
			m.discarded.Add(1)
		}
	}
}
