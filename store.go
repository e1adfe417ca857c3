package influcomm

import (
	"context"
	"fmt"

	"influcomm/internal/semiext"
	"influcomm/internal/store"
)

// Store is one graph behind a backend-agnostic query interface: TopK runs
// the same LocalSearch whether the backend is fully in-memory (NewMemoryStore)
// or semi-external (OpenEdgeFileStore) — on-disk edges sorted in decreasing
// edge-weight order with only O(n) per-vertex state resident, so queries can
// execute against a graph that never fully loads. Results, including access
// statistics, are identical across backends for the same graph. Stores are
// safe for concurrent use.
type Store = store.Store

// NewMemoryStore returns the in-memory Store over g: queries run on pooled
// engines, exactly like QueryPool.
func NewMemoryStore(g *Graph) (Store, error) {
	return store.OpenMem(g)
}

// StoreOption tunes how a semi-external store reads its edge file; the
// in-memory backend ignores these options.
type StoreOption = store.OpenOption

// WithQueryWorkers splits the semi-external backend's bulk decodes of
// compressed (v2) edge files across up to n goroutines. Results —
// communities and access statistics alike — are byte-identical at any
// setting; 0 or 1 (the default) decodes sequentially. The split halves a
// whole-file decode on two cores but does not move serving latency, which
// is why it stays off by default (docs/OPERATIONS.md).
func WithQueryWorkers(n int) StoreOption {
	return store.WithWorkers(n)
}

// OpenEdgeFileStore opens a semi-external edge file written by SaveEdgeFile
// as a Store. Only the per-vertex vectors are loaded; queries read just as
// far into the adjacency as LocalSearch's geometric growth requires,
// through a shared memory-mapped view (positioned reads where mapping is
// unavailable).
func OpenEdgeFileStore(path string, opts ...StoreOption) (Store, error) {
	return store.OpenEdgeFile(path, opts...)
}

// OpenStore opens path with an explicit backend choice: "memory" (or "")
// loads a graph file fully into RAM, "semiext" opens an edge file
// semi-externally, and "mutable" opens an edge file as a durable
// MutableStore accepting online edge updates.
func OpenStore(path, backend string, opts ...StoreOption) (Store, error) {
	return store.Open(path, backend, opts...)
}

// EdgeUpdate is one edge mutation of a MutableStore batch: the undirected
// edge {U, V} (original vertex IDs) is inserted, or deleted when Delete is
// set. Edge updates never change vertex weights, so the weight ranking —
// and every vertex's identity — is stable across updates.
type EdgeUpdate = store.EdgeUpdate

// UpdateStats reports what one update batch did: how many edges were
// inserted and deleted, how many operations were no-ops (inserting a
// present edge, deleting an absent one, or being superseded by a later
// operation on the same edge in the batch), and the snapshot epoch queries
// observe from now on.
type UpdateStats = store.UpdateStats

// UpdateEvent describes one published snapshot transition to a
// MutableStore.OnApply observer: the epoch of the snapshot the batch just
// published, and the delta cut — the smallest weight rank whose adjacency
// changed, below which every prefix subgraph is identical across the
// transition. The server's incremental index maintenance is built on this
// hook.
type UpdateEvent = store.UpdateEvent

// MutableStore is a Store whose graph accepts online edge updates while
// serving. Readers pin immutable copy-on-write snapshots with a single
// atomic load, so queries in flight during an update complete on the graph
// they started on and serving never pauses; writers serialize among
// themselves and publish whole snapshots via an incremental CSR delta
// (no sorting, no full rebuild). Results after any update sequence are
// exactly those of a fresh store built from the updated edge set.
type MutableStore = store.MutableStore

// OpenMutableStore opens the edge file at path (written by SaveEdgeFile)
// as a durable MutableStore: the graph loads fully into memory, a
// write-ahead update log at path + ".log" is replayed over it, every
// applied batch is fsynced to the log before it becomes visible, and a
// clean Close compacts the log back into the edge file atomically. A
// store that crashes without Close recovers by replaying the log on the
// next OpenMutableStore.
func OpenMutableStore(path string) (MutableStore, error) {
	return store.OpenMutable(path)
}

// NewMutableStore serves g as a MutableStore without durability: updates
// mutate the served snapshots but are not persisted anywhere.
func NewMutableStore(g *Graph) (MutableStore, error) {
	return store.OpenMutableGraph(g)
}

// Apply applies one batch of edge updates to st, which must be a
// MutableStore (any other backend returns an error): the facade-level
// entry point for callers holding a plain Store. See
// MutableStore.ApplyUpdates for the batch semantics.
func Apply(ctx context.Context, st Store, updates []EdgeUpdate) (UpdateStats, error) {
	ms := store.AsMutable(st)
	if ms == nil {
		return UpdateStats{}, fmt.Errorf("influcomm: the %s backend is immutable; open the store with OpenMutableStore to apply updates", st.Backend())
	}
	return ms.ApplyUpdates(ctx, updates)
}

// SaveEdgeFile writes g to path in the semi-external edge-file layout:
// per-vertex weights and up-degrees, then every up-adjacency list in
// decreasing edge-weight order, so any prefix of the file is a prefix
// subgraph G≥τ. The write is atomic (temporary file plus rename), like
// SaveGraph and SaveIndex.
func SaveEdgeFile(path string, g *Graph) error {
	return semiext.WriteEdgeFile(path, g)
}

// Edge-file layout versions for SaveEdgeFileFormat. V1 stores adjacency as
// fixed 4-byte ranks; V2 delta-gap + varint compresses each list and adds a
// block offset index, typically ~3x smaller on clustered graphs while
// keeping the same prefix-subgraph property and byte-identical query
// results.
const (
	EdgeFileV1 = semiext.FormatV1
	EdgeFileV2 = semiext.FormatV2
)

// SaveEdgeFileFormat is SaveEdgeFile with an explicit layout choice:
// EdgeFileV1 (flat, what SaveEdgeFile writes) or EdgeFileV2 (compressed).
// Both open through OpenEdgeFileStore and OpenMutableStore, which detect
// the layout from the file header.
func SaveEdgeFileFormat(path string, g *Graph, format int) error {
	return semiext.WriteEdgeFileFormat(path, g, format)
}
