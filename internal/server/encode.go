package server

import (
	"net/http"
	"strconv"
	"sync"

	"influcomm/internal/cluster"
)

// This file writes the query routes' responses by hand, into one pooled
// buffer per response: the envelope, and each answer rendered from its
// forest while it is written (cluster.Answer). The bytes are exactly what
// json.NewEncoder(w).Encode writes for topKResponse and queryResponse
// holding the rendered communities; the encode tests pin that.

// bodies pools response buffers. A buffer that grew past maxKeptBody is
// dropped rather than kept for the next response.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

const maxKeptBody = 4 << 20

func getBody() *[]byte { return bodies.Get().(*[]byte) }

func putBody(b *[]byte) {
	if cap(*b) > maxKeptBody {
		return
	}
	*b = (*b)[:0]
	bodies.Put(b)
}

// writeBody writes a rendered JSON response.
func writeBody(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b)
}

// appendTopK appends r as json.NewEncoder(w).Encode(r) writes it, newline
// included. comms writes the communities array in place of r.Communities,
// and elapsed_ms is read from elapsed after comms ran, so the time reported
// covers rendering.
func appendTopK(b []byte, r *topKResponse, comms func([]byte) []byte, elapsed func() float64) []byte {
	b = append(b, `{"k":`...)
	b = strconv.AppendInt(b, int64(r.K), 10)
	b = append(b, `,"gamma":`...)
	b = strconv.AppendInt(b, int64(r.Gamma), 10)
	b = append(b, `,"mode":`...)
	b = cluster.AppendString(b, r.Mode)
	b = append(b, `,"path":`...)
	b = cluster.AppendString(b, r.Path)
	b = append(b, `,"communities":`...)
	b = comms(b)
	b = append(b, `,"elapsed_ms":`...)
	b = cluster.AppendFloat(b, elapsed())
	if r.AccessedVertices != 0 {
		b = append(b, `,"accessed_vertices":`...)
		b = strconv.AppendInt(b, int64(r.AccessedVertices), 10)
	}
	if r.Cached {
		b = append(b, `,"cached":true`...)
	}
	return append(b, "}\n"...)
}

// appendQueryResponse appends r as json.NewEncoder(w).Encode(r) writes it,
// newline included. comms writes each node's communities array in place of
// its Communities, and elapsed_ms is read from elapsed after every node
// was written.
func appendQueryResponse(b []byte, r *queryResponse, comms func([]byte, *nodeResult) []byte, elapsed func() float64) []byte {
	b = append(b, `{"query":`...)
	b = cluster.AppendString(b, r.Query)
	b = append(b, `,"dataset":`...)
	b = cluster.AppendString(b, r.Dataset)
	b = append(b, `,"results":`...)
	if r.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendStatement(b, &r.Results[i], comms)
		}
		b = append(b, ']')
	}
	b = append(b, `,"plan_nodes":`...)
	b = strconv.AppendInt(b, int64(r.PlanNodes), 10)
	b = append(b, `,"cse_hits":`...)
	b = strconv.AppendInt(b, int64(r.CSEHits), 10)
	if r.SnapshotEpoch != 0 {
		b = append(b, `,"snapshot_epoch":`...)
		b = strconv.AppendUint(b, r.SnapshotEpoch, 10)
	}
	b = append(b, `,"elapsed_ms":`...)
	b = cluster.AppendFloat(b, elapsed())
	return append(b, "}\n"...)
}

func appendStatement(b []byte, st *statementResult, comms func([]byte, *nodeResult) []byte) []byte {
	b = append(b, `{"statement":`...)
	b = cluster.AppendString(b, st.Statement)
	b = append(b, `,"nodes":`...)
	if st.Nodes == nil {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	for i := range st.Nodes {
		n := &st.Nodes[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"k":`...)
		b = strconv.AppendInt(b, int64(n.K), 10)
		b = append(b, `,"gamma":`...)
		b = strconv.AppendInt(b, int64(n.Gamma), 10)
		b = append(b, `,"mode":`...)
		b = cluster.AppendString(b, n.Mode)
		b = append(b, `,"path":`...)
		b = cluster.AppendString(b, n.Path)
		if n.Shared {
			b = append(b, `,"shared":true`...)
		}
		b = append(b, `,"communities":`...)
		b = comms(b, n)
		if n.AccessedVertices != 0 {
			b = append(b, `,"accessed_vertices":`...)
			b = strconv.AppendInt(b, int64(n.AccessedVertices), 10)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}
