package main

import (
	"bytes"
	"context"
	"hash/crc32"
	"io"
	"net/http"
	"sync"
	"time"
)

// result is one completed op as the client saw it. Inside the timed window
// a client only sends, reads the body and records a digest; everything
// else about the answer is checked after the window.
type result struct {
	op      op
	lat     time.Duration // send to last body byte
	status  int
	size    int      // body bytes
	digests []uint32 // CRC-32C of each "communities" array, in body order
	body    []byte   // kept only for update batches (small)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// communitiesKey precedes every community list in /v1/topk and /v1/query
// responses, on single nodes and the coordinator alike.
var communitiesKey = []byte(`"communities":`)

// communityDigests appends the CRC-32C of every "communities" value in a
// JSON body, in order. A value is either null or an array whose elements
// hold no strings with brackets (communities carry numbers, and labels
// only on labeled graphs, which the benchmark does not generate), so
// bracket depth finds its end.
func communityDigests(body []byte, dst []uint32) []uint32 {
	for {
		i := bytes.Index(body, communitiesKey)
		if i < 0 {
			return dst
		}
		body = body[i+len(communitiesKey):]
		end := len(body)
		if bytes.HasPrefix(body, []byte("null")) {
			end = 4
		} else {
			depth := 0
		scan:
			for j, c := range body {
				switch c {
				case '[':
					depth++
				case ']':
					depth--
					if depth == 0 {
						end = j + 1
						break scan
					}
				}
			}
		}
		dst = append(dst, crc32.Checksum(body[:end], castagnoli))
		body = body[end:]
	}
}

// client drives one closed loop: at most one request in flight, the next
// sent as soon as the previous answer is read.
type client struct {
	hc    *http.Client
	bases []string // base URL per op target
	buf   bytes.Buffer
}

func newClient(bases []string) *client {
	return &client{
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: len(bases) + 1, DisableCompression: true},
		},
		bases: bases,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one op and returns its result.
func (c *client) do(ctx context.Context, o op) result {
	r := result{op: o}
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, o.method, c.bases[o.target]+o.path, body)
	if err != nil {
		r.lat = time.Since(start)
		return r
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		r.lat = time.Since(start)
		return r
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r.lat = time.Since(start)
	if err != nil {
		return r
	}
	r.status = resp.StatusCode
	r.size = c.buf.Len()
	if o.kind == opWrite {
		r.body = append([]byte(nil), c.buf.Bytes()...)
	} else {
		r.digests = communityDigests(c.buf.Bytes(), nil)
	}
	return r
}

// loadRun is what the timed window produced.
type loadRun struct {
	results []result
	window  time.Duration // first send to last completion
}

// warmUp sends n ops from each client's warm-up stream, untimed, so lazy
// server state (pools, page cache, connections) is in place before the
// window opens.
func warmUp(ctx context.Context, cl []*client, warmups []opStream, n int) []result {
	per := make([][]result, len(cl))
	var wg sync.WaitGroup
	for i := range cl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n && ctx.Err() == nil; j++ {
				per[i] = append(per[i], cl[i].do(ctx, warmups[i].next()))
			}
		}()
	}
	wg.Wait()
	var out []result
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// runLoad runs every client's closed loop over its stream for d. A client
// stops sending at d; the window ends when the last answer arrives.
func runLoad(ctx context.Context, cl []*client, streams []opStream, d time.Duration) loadRun {
	per := make([][]result, len(cl))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range cl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				per[i] = append(per[i], cl[i].do(ctx, streams[i].next()))
			}
		}()
	}
	wg.Wait()
	run := loadRun{window: time.Since(start)}
	for _, p := range per {
		run.results = append(run.results, p...)
	}
	return run
}
