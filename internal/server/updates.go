package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"influcomm/internal/store"
)

// updateJSON is one edge mutation of a POST .../updates request.
type updateJSON struct {
	// Op is "insert" (default when empty) or "delete".
	Op string `json:"op,omitempty"`
	// U, V are the edge endpoints as original vertex IDs.
	U int32 `json:"u"`
	V int32 `json:"v"`
}

// updatesResponse reports what the batch did.
type updatesResponse struct {
	Dataset  string `json:"dataset"`
	Inserted int    `json:"inserted"`
	Deleted  int    `json:"deleted"`
	Skipped  int    `json:"skipped"`
	// SnapshotEpoch is the epoch queries see from now on.
	SnapshotEpoch uint64 `json:"snapshot_epoch"`
	// Index reports what happened to the dataset's prebuilt index:
	// "repaired" (delta repair attached a current index before this
	// response), "rebuilding" (a background rebuild is pending or running;
	// queries use LocalSearch meanwhile), or "dropped" (no maintenance on
	// this dataset: the index is gone until an operator reloads one).
	// Empty when the dataset has neither an index nor maintenance.
	Index string `json:"index,omitempty"`
	// IndexInvalidated reports that this batch was the one that dropped a
	// prebuilt index. Unlike Index — which keeps reporting the maintenance
	// state on every effective batch — it fires only on the drop
	// transition, so batches after the first report false even though the
	// index is still gone; prefer Index.
	IndexInvalidated bool `json:"index_invalidated,omitempty"`
}

// maxUpdateBatch bounds one request's operation count, keeping a single
// admin call from staging unbounded work.
const maxUpdateBatch = 1 << 20

// maxUpdatesBody bounds an updates request body: 64 bytes per admitted op
// fits every batch maxUpdateBatch admits, the widest compact op
// ({"op":"delete","u":-2147483648,"v":-2147483648},) being 48 bytes.
const maxUpdatesBody = 64 * maxUpdateBatch

// bodyStatus is the status for a request body that failed to decode: 413
// once it passed its byte limit, 400 otherwise.
func bodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeUpdates reads a {"updates":[…]} body op by op, so a batch past
// maxUpdateBatch, or holding a bad op, is refused where it goes wrong,
// before the rest of the body is read. It reads keys as decoding into a
// struct with one `updates` field does: the key matches
// case-insensitively, other keys are skipped, a repeated key's array
// replaces the earlier one, and null leaves the batch empty.
func decodeUpdates(r io.Reader) ([]store.EdgeUpdate, error) {
	dec := json.NewDecoder(r)
	bad := func(err error) error { return fmt.Errorf("bad request body: %w", err) }
	if tok, err := dec.Token(); err != nil {
		return nil, bad(err)
	} else if tok != json.Delim('{') {
		return nil, bad(fmt.Errorf("want a JSON object, got %v", tok))
	}
	var batch []store.EdgeUpdate
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return nil, bad(err)
		}
		if k, _ := key.(string); !strings.EqualFold(k, "updates") {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return nil, bad(err)
			}
			continue
		}
		batch = batch[:0]
		tok, err := dec.Token()
		if err != nil {
			return nil, bad(err)
		}
		if tok == nil {
			continue
		}
		if tok != json.Delim('[') {
			return nil, bad(fmt.Errorf("updates must be an array, got %v", tok))
		}
		for dec.More() {
			if len(batch) == maxUpdateBatch {
				return nil, fmt.Errorf("batch exceeds the %d-op limit", maxUpdateBatch)
			}
			var u updateJSON
			if err := dec.Decode(&u); err != nil {
				return nil, bad(err)
			}
			if u.Op != "" && u.Op != "insert" && u.Op != "delete" {
				return nil, fmt.Errorf("bad op %q (want \"insert\" or \"delete\")", u.Op)
			}
			batch = append(batch, store.EdgeUpdate{U: u.U, V: u.V, Delete: u.Op == "delete"})
		}
		if _, err := dec.Token(); err != nil { // the array's ']'
			return nil, bad(err)
		}
	}
	if _, err := dec.Token(); err != nil { // the object's '}'
		return nil, bad(err)
	}
	return batch, nil
}

// handleApplyUpdates serves POST /v1/admin/datasets/{name}/updates: apply
// one batch of edge insertions/deletions to a mutable dataset. The dataset
// keeps serving throughout — in-flight queries finish on the snapshot they
// pinned, queries arriving after the response see the updated graph. A
// prebuilt index on the dataset is invalidated (updates change the
// decomposition it materialized) and the dataset's memo frees the older
// epoch's answers, and the snapshots they hold, before the response.
func (s *Server) handleApplyUpdates(w http.ResponseWriter, r *http.Request) {
	if !s.adminAllowed(w, r) {
		return
	}
	name := r.PathValue("name")
	batch, err := decodeUpdates(http.MaxBytesReader(w, r.Body, maxUpdatesBody))
	if err != nil {
		writeJSON(w, bodyStatus(err), map[string]string{"error": err.Error()})
		return
	}
	if len(batch) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "updates must hold at least one operation"})
		return
	}

	ds := s.registry.acquireLookup(name)
	if ds == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("dataset %q is not loaded", name)})
		return
	}
	defer ds.release()
	ms := store.AsMutable(ds.st)
	if ms == nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("dataset %q uses the immutable %s backend; load it with mutable=true to accept updates", name, ds.st.Backend())})
		return
	}
	stats, err := ms.ApplyUpdates(r.Context(), batch)
	if err != nil {
		// A bad batch is the client's fault; anything else — write-ahead
		// log I/O, a store closed by a racing unload — is the server's,
		// and must not tell clients (or their retry policies) that the
		// request itself was malformed.
		code := http.StatusInternalServerError
		if errors.Is(err, store.ErrInvalidBatch) {
			code = http.StatusBadRequest
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	// The memo's answers hold their snapshot's graph (and, on the index
	// path, the index's arrays): drop them now rather than at the next
	// query on the dataset.
	ds.sharer.Advance(stats.Epoch)
	resp := updatesResponse{
		Dataset:       name,
		Inserted:      stats.Inserted,
		Deleted:       stats.Deleted,
		Skipped:       stats.Skipped,
		SnapshotEpoch: stats.Epoch,
	}
	if stats.Inserted+stats.Deleted > 0 {
		if m := ds.maint; m != nil {
			// Maintained dataset: the store's OnApply hook already ran
			// (synchronously, inside ApplyUpdates), so the outcome for this
			// batch's epoch is decided — either a delta repair attached a
			// current index before we got here, or the background rebuild
			// worker has been kicked.
			resp.Index = m.outcomeFor(stats.Epoch)
		} else {
			// No maintenance: the graph moved and the prebuilt index no
			// longer describes it. Drop it so default-semantics queries fall
			// back to pooled LocalSearch (which needs no maintenance — the
			// paper's core asymmetry) until an operator reloads an index.
			if ds.dropIndex() {
				resp.IndexInvalidated = true
			}
			if ds.indexDropped.Load() {
				resp.Index = outcomeDropped
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
