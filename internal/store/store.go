// Package store abstracts where a weight-ranked graph lives behind one
// query interface. Three backends implement it: Mem serves a fully
// in-memory graph.Graph through a pooled engine, SemiExt serves the
// semi-external on-disk edge files of internal/semiext, keeping only O(n)
// per-vertex state resident and decoding edge prefixes on demand, and the
// mutable backend (OpenMutable) serves copy-on-write snapshots of a graph
// that accepts online edge updates. A query routed through a Store
// therefore runs identically — same communities, same access statistics —
// whether the graph fits in RAM or not; the serving layer picks backends
// per dataset without touching query code.
package store

import (
	"context"
	"fmt"

	"influcomm/internal/core"
	"influcomm/internal/graph"
)

// Store is one graph behind a backend-agnostic query interface. Stores are
// safe for concurrent use.
type Store interface {
	// Backend names the implementation: "memory", "semiext" or
	// "mutable".
	Backend() string

	// NumVertices returns the vertex count of the backing graph.
	NumVertices() int

	// NumEdges returns the edge count of the backing graph.
	NumEdges() int64

	// TopK answers a top-k influential γ-community query with LocalSearch
	// semantics; results are identical across backends for the same graph.
	TopK(ctx context.Context, k int, gamma int32, opts core.Options) (*core.Result, error)

	// Pin reads the store's current snapshot once: the Searcher every
	// query of one request runs on, and the snapshot epoch it belongs to
	// (0 for immutable backends). Updates published after Pin do not
	// reach the pinned Searcher, so a request that keys its cache entries,
	// shared work and derived indexes by the epoch answers from exactly
	// that snapshot.
	Pin() (core.Searcher, uint64)

	// Graph returns the fully in-memory graph when the backend holds one,
	// and nil otherwise. Features that need whole-graph access — truss
	// queries, prebuilt indexes — are only available when Graph is non-nil.
	Graph() *graph.Graph

	// Close releases backend resources. Queries issued after Close fail;
	// queries already in flight complete normally.
	Close() error
}

// Open opens the file at path as a Store. backend selects the
// implementation: "memory" (or "") loads the whole graph file into RAM —
// text format, or the compact binary format for paths ending in ".bin" —
// "semiext" opens a semi-external edge file (see WriteEdgeFile) loading
// only per-vertex state, and "mutable" opens an edge file as a durable
// MutableStore that accepts online edge updates. Options tune the
// semi-external backend (the v2 decode split) and are ignored by the
// others.
func Open(path, backend string, opts ...OpenOption) (Store, error) {
	switch backend {
	case "", "memory":
		g, err := graph.LoadFile(path)
		if err != nil {
			return nil, fmt.Errorf("store: loading %s: %w", path, err)
		}
		return OpenMem(g)
	case "semiext":
		return OpenEdgeFile(path, opts...)
	case "mutable":
		return OpenMutable(path)
	default:
		return nil, fmt.Errorf("store: unknown backend %q (want \"memory\", \"semiext\", or \"mutable\")", backend)
	}
}
