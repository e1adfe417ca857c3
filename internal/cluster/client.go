package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// shardStream is one open NDJSON stream from a shard replica: the header has
// been read and validated, communities and the trailer follow via Next.
type shardStream struct {
	header StreamHeader
	body   io.ReadCloser
	sc     *bufio.Scanner
	// ctx is the attempt's context, and Close cancels it. deadline, when
	// set, cancels it if one Next outlasts timeout; it runs only while
	// Next reads, never while the stream waits for its reader.
	ctx      context.Context
	cancel   context.CancelCauseFunc
	deadline *time.Timer
	timeout  time.Duration
}

// maxLineBytes bounds a single stream line. Community lines grow with
// membership; 16 MiB allows communities of roughly a million members.
const maxLineBytes = 16 << 20

// openStream issues the shard request and reads through the header line.
// Every failure before the header — connection refused, non-200 status, a
// malformed or missing header — is an open-time failure: nothing from this
// replica has been consumed, so the caller can fail over to the next replica
// without disturbing an in-progress merge. A 400, or a 404 for a dataset
// the shard does not serve, comes back as a *RequestError: the shard
// refused the request, not for its own health.
func openStream(ctx context.Context, client *http.Client, base, dataset, mode string, gamma int32, limit int) (*shardStream, error) {
	v := url.Values{}
	v.Set("gamma", strconv.Itoa(int(gamma)))
	v.Set("limit", strconv.Itoa(limit))
	v.Set("mode", mode)
	if dataset != "" {
		v.Set("dataset", dataset)
	}
	u := strings.TrimSuffix(base, "/") + StreamPath + "?" + v.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: building request for %s: %w", base, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		resp.Body.Close()
		err := fmt.Errorf("cluster: %s returned %d: %s", base, resp.StatusCode, strings.TrimSpace(string(msg)))
		if resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusNotFound {
			return nil, &RequestError{Err: err, NotFound: resp.StatusCode == http.StatusNotFound}
		}
		return nil, err
	}
	ss := &shardStream{body: resp.Body, sc: bufio.NewScanner(resp.Body)}
	ss.sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	line, err := ss.next()
	if err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("cluster: %s: reading stream header: %w", base, err)
	}
	if line.Header == nil {
		resp.Body.Close()
		return nil, fmt.Errorf("cluster: %s: stream did not open with a header line", base)
	}
	ss.header = *line.Header
	return ss, nil
}

// next reads and decodes one stream line.
func (ss *shardStream) next() (*StreamLine, error) {
	if !ss.sc.Scan() {
		if err := ss.sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}
	var line StreamLine
	if err := json.Unmarshal(ss.sc.Bytes(), &line); err != nil {
		return nil, fmt.Errorf("malformed stream line: %w", err)
	}
	return &line, nil
}

// Next returns the next community, or the trailer when the stream ends
// cleanly. Exactly one of the returns is non-nil/non-error. A stream that
// ends without a trailer — the connection dropped, or the shard sent an
// error line — is reported as an error: the trailer is the integrity check.
func (ss *shardStream) Next() (*Community, *StreamTrailer, error) {
	if ss.deadline != nil {
		ss.deadline.Reset(ss.timeout)
		defer ss.deadline.Stop()
	}
	line, err := ss.next()
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("stream truncated before trailer")
		}
		return nil, nil, err
	}
	switch {
	case line.Community != nil:
		return line.Community, nil, nil
	case line.Trailer != nil:
		return nil, line.Trailer, nil
	case line.Error != "":
		return nil, nil, fmt.Errorf("shard error: %s", line.Error)
	default:
		return nil, nil, fmt.Errorf("stream line is neither community, trailer, nor error")
	}
}

// Close releases the underlying connection and the attempt's context.
// Closing before the trailer cancels the shard-side search — this is how
// the coordinator's early termination propagates.
func (ss *shardStream) Close() error {
	defer ss.cancel(nil)
	return ss.body.Close()
}
