// Package cluster is the distributed serving tier: a scatter-gather
// coordinator that partitions top-k influential-community queries across N
// shard icserver nodes and merges their progressive per-shard streams into
// one global answer.
//
// The tier leans on the paper's decreasing-influence stream (Algorithm 4):
// every shard reports its communities in decreasing influence order, so the
// coordinator can k-way merge the streams and stop as soon as k global
// results dominate every shard's next-candidate bound — each shard then
// cancels its search having done only the output-proportional work the
// progressive algorithm promises. Graphs are partitioned with Partition,
// which keeps connected components whole; an influential community is
// connected, so every community lives entirely inside one shard and the
// merged answer is byte-identical to serving the unpartitioned graph (see
// docs/CLUSTER.md for the full argument).
//
// The wire protocol in this file is shared verbatim with the shard-side
// handler in internal/server, so the two ends cannot drift; the byte-level
// contract is specified in docs/CLUSTER.md.
package cluster

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"
)

// StreamHeader is the first line of a shard stream response. It arrives
// before any community, so the coordinator can tag even an early-terminated
// stream with the snapshot epoch the shard pinned for the whole query.
type StreamHeader struct {
	// Dataset is the shard-side dataset name the stream runs against.
	Dataset string `json:"dataset"`
	// Mode is the query semantics: "core", "noncontainment", or "truss".
	Mode string `json:"mode"`
	// SnapshotEpoch is the epoch of the snapshot pinned for this stream: 0
	// for immutable backends, the update-batch counter for mutable ones. A
	// shard mid-update keeps serving its pinned snapshot; the epoch tells
	// the coordinator (and ultimately the client) exactly which one.
	SnapshotEpoch uint64 `json:"snapshot_epoch"`
}

// Community is one community on the wire: the JSON shape shared by shard
// stream data lines, single-node /v1/topk responses, and merged coordinator
// responses, so equality across the three is byte-equality.
type Community struct {
	// Influence is f(g): the minimum vertex weight of the community.
	Influence float64 `json:"influence"`
	// Size is the member count.
	Size int `json:"size"`
	// Keynode is the community's unique minimum-weight vertex, as an
	// original vertex ID when the serving backend has whole-graph access
	// and as a weight rank otherwise.
	Keynode int32 `json:"keynode"`
	// Members lists the community's vertices in ascending rank order,
	// identified like Keynode.
	Members []int32 `json:"members"`
	// Labels carries the members' display labels when the graph has them.
	Labels []string `json:"labels,omitempty"`
}

// StreamTrailer is the final line of a clean shard stream. Its presence is
// the integrity check: a stream that ends without one was truncated.
type StreamTrailer struct {
	// Done is always true; it marks the line as a trailer.
	Done bool `json:"done"`
	// Communities is the number of data lines the shard sent.
	Communities int `json:"communities"`
	// Exhausted reports that the shard has no further communities at all —
	// the stream ended because the shard ran dry, not because the
	// requested limit was reached.
	Exhausted bool `json:"exhausted"`
	// AccessedVertices is the final LocalSearch prefix the shard touched;
	// 0 for index-served streams.
	AccessedVertices int `json:"accessed_vertices,omitempty"`
}

// StreamLine is one NDJSON line of a shard stream: exactly one field is
// set. The envelope keeps every line self-describing, so a reader never
// guesses a line's kind from its fields.
type StreamLine struct {
	// Header opens the stream.
	Header *StreamHeader `json:"header,omitempty"`
	// Community is one result, in decreasing influence order.
	Community *Community `json:"community,omitempty"`
	// Trailer closes a clean stream.
	Trailer *StreamTrailer `json:"trailer,omitempty"`
	// Error reports a shard-side failure after the header was sent; the
	// stream ends with it.
	Error string `json:"error,omitempty"`
}

// Query semantics accepted by shards and the coordinator; the values match
// the single-node /v1/topk "mode" response field.
const (
	// ModeCore is the default containment semantics (Algorithm 1/4).
	ModeCore = "core"
	// ModeNonContainment reports only communities with no nested
	// sub-community (§5.1).
	ModeNonContainment = "noncontainment"
	// ModeTruss uses the γ-truss cohesiveness measure (§5.2); shards need
	// whole-graph backends for it.
	ModeTruss = "truss"
)

// TopKParams is the shape of one top-k request: the result bound, γ, and
// the semantics (ModeCore, ModeNonContainment, or ModeTruss).
type TopKParams struct {
	K     int
	Gamma int32
	Mode  string
}

// ParseTopKParams reads a top-k request's shape from URL query values; it
// is the one parser behind icserver's /v1/topk and shard stream and
// iccoord's /v1/topk. k defaults to 10 and must lie in [1, maxK], gamma
// defaults to 5 and must be at least 1. mode=core|noncontainment|truss
// names the semantics; without it the single-node flags truss=1 and
// noncontainment=1 (mutually exclusive) select them, and mode= wins over
// the flags. Every error is the client's.
func ParseTopKParams(q url.Values, maxK int) (TopKParams, error) {
	var p TopKParams
	k, err := intParam(q.Get("k"), 10)
	if err != nil {
		return p, fmt.Errorf("bad k: %w", err)
	}
	gamma, err := intParam(q.Get("gamma"), 5)
	if err != nil {
		return p, fmt.Errorf("bad gamma: %w", err)
	}
	if k < 1 || k > maxK {
		return p, fmt.Errorf("k must be in [1, %d]", maxK)
	}
	if gamma < 1 {
		return p, errors.New("gamma must be >= 1")
	}
	p.K, p.Gamma, p.Mode = k, int32(gamma), q.Get("mode")
	useTruss, nonContain := q.Get("truss") == "1", q.Get("noncontainment") == "1"
	switch {
	case p.Mode == ModeCore, p.Mode == ModeNonContainment, p.Mode == ModeTruss:
	case p.Mode != "":
		return p, fmt.Errorf("unknown mode %q", p.Mode)
	case useTruss && nonContain:
		return p, errors.New("truss and noncontainment are mutually exclusive")
	case useTruss:
		p.Mode = ModeTruss
	case nonContain:
		p.Mode = ModeNonContainment
	default:
		p.Mode = ModeCore
	}
	return p, nil
}

func intParam(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	return strconv.Atoi(raw)
}

// StreamPath is the shard-side streaming endpoint the coordinator calls:
// GET {replica}StreamPath?gamma=G&limit=N[&dataset=D][&mode=M].
const StreamPath = "/v1/shard/stream"
