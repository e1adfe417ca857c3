package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"influcomm/internal/cluster"
	"influcomm/internal/core"
	"influcomm/internal/query"
)

// handleShardStream serves GET /v1/shard/stream: the shard side of the
// cluster scatter-gather protocol (docs/CLUSTER.md). The response is NDJSON
// — one cluster.StreamLine per line — opening with a header that names the
// snapshot epoch pinned for the whole stream, followed by communities in
// decreasing influence order, and closed by a trailer; a stream that ends
// without a trailer (or with an error line) was not completed cleanly.
//
//	GET /v1/shard/stream?gamma=G&limit=N[&dataset=D][&mode=core|noncontainment|truss]
//
// limit bounds the stream: a coordinator merging toward a global top-k
// never needs more than k communities from one shard. Each line is flushed
// as soon as it is produced, so the coordinator can merge — and terminate
// the stream early by closing the connection, which cancels the search —
// while the shard is still working. A shard mid-update keeps serving the
// snapshot it pinned at the header; the epoch it reports is exactly that
// snapshot's.
//
// Shard streams share the query admission step: a saturated shard sheds
// coordinators like it sheds clients, and the coordinator's failover
// treats the 503 like any other replica failure. Streams are never
// memoized: they are progressive and bounded by limit.
func (s *Server) handleShardStream(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	s.metrics.shardStreams.Add(1)

	q := r.URL.Query()
	// limit alone bounds a stream, so any k is ignored: pin it to 1, which
	// the shared parser accepts whatever -maxk is.
	q.Set("k", "1")
	p, err := parseQueryParams(q, s.maxK)
	if err == nil && q.Get("limit") == "" {
		err = &httpError{http.StatusBadRequest, "limit is required"}
	}
	var limit int
	if err == nil {
		limit, err = strconv.Atoi(q.Get("limit"))
		if err != nil {
			err = &httpError{http.StatusBadRequest, "bad limit: " + err.Error()}
		} else if limit < 1 || limit > s.maxK {
			err = &httpError{http.StatusBadRequest, fmt.Sprintf("limit must be in [1, %d]", s.maxK)}
		}
	}
	if err != nil {
		writeJSON(w, s.classify(err), map[string]string{"error": err.Error()})
		return
	}
	p.K = limit

	// Pin the snapshot once: the whole stream — header, every community,
	// trailer — describes exactly that snapshot, however many update
	// batches land while it runs.
	pin, err := s.acquire(q.Get("dataset"))
	if err != nil {
		writeJSON(w, s.classify(err), map[string]string{"error": err.Error()})
		return
	}
	ds := pin.ds
	defer ds.release()

	// Mode/backend validation must fail as an HTTP status, before the 200
	// and the header line commit us to the stream framing.
	if p.Mode == cluster.ModeTruss {
		if verr := validateTruss(ds, pin.search.Graph(), p.Gamma); verr != nil {
			writeJSON(w, s.classify(verr), map[string]string{"error": verr.Error()})
			return
		}
	}

	start := time.Now()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	body := getBody()
	defer putBody(body)
	write := func(b []byte) bool {
		if _, err := w.Write(b); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	writeLine := func(line cluster.StreamLine) bool {
		b, err := json.Marshal(line)
		return err == nil && write(append(b, '\n'))
	}
	if !writeLine(cluster.StreamLine{Header: &cluster.StreamHeader{
		Dataset: ds.name, Mode: p.Mode, SnapshotEpoch: pin.epoch,
	}}) {
		return
	}

	// Online paths stream progressively (LocalSearch-P on every backend,
	// or the truss stream), so the work stops where the coordinator's
	// cancel or the limit stops the stream. Each community line is
	// rendered from the forest as it arrives; the renderer keeps only the
	// member lists whose parent has not arrived yet.
	rend := cluster.NewRenderer(pin.search.Graph())
	defer rend.Release()
	er, err := s.execute(ctx, &pin, query.Node{K: limit, Gamma: p.Gamma, Mode: p.Mode}, true, func(c *core.Community) bool {
		b := append((*body)[:0], `{"community":`...)
		b = rend.AppendCommunity(b, c)
		*body = append(b, "}\n"...)
		return write(*body)
	})
	s.metrics.durationUS.Add(time.Since(start).Microseconds())
	if err != nil {
		// The status is already written; the error travels as a stream
		// line. classify still runs for the serving counters.
		s.classify(err)
		if !errors.Is(err, context.Canceled) { // a gone client cannot read the line
			writeLine(cluster.StreamLine{Error: err.Error()})
		}
		return
	}
	// A stream that ends below its limit ran dry: the shard's bound for any
	// further candidate is "none", not the last emitted influence.
	writeLine(cluster.StreamLine{Trailer: &cluster.StreamTrailer{
		Done:             true,
		Communities:      er.Sent,
		Exhausted:        er.Sent < limit,
		AccessedVertices: er.Accessed,
	}})
}
