package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Shard is one partition of the dataset: a name the coordinator reports in
// epoch vectors and failure lists, and one or more replica base URLs that
// each serve the same partition.
type Shard struct {
	// Name identifies the shard in Result.Epochs and Result.FailedShards.
	Name string `json:"name"`
	// Replicas are base URLs ("http://host:port") serving the same
	// partition. With health probing off they are tried in order (the
	// first is primary); with probing on the coordinator prefers
	// healthy replicas with the lowest latency score.
	Replicas []string `json:"replicas"`
	// Dataset overrides the query's dataset name on this shard; empty means
	// the query's name (or the shard server's default) is used.
	Dataset string `json:"dataset,omitempty"`
}

// Result is one merged cluster answer.
type Result struct {
	// Communities is the global top-k, in decreasing influence order —
	// byte-identical (field for field) to single-node serving of the
	// unpartitioned graph when the shards were built with Partition.
	Communities []Community
	// Epochs maps each participating shard's name to the snapshot epoch it
	// pinned for this query: the epoch vector that tells a client exactly
	// which data version each piece of the answer reflects.
	Epochs map[string]uint64
	// Partial reports that at least one shard was dropped (all replicas
	// failed or timed out) and the answer covers only the survivors. Only
	// possible when the coordinator allows partial results.
	Partial bool
	// FailedShards names the dropped shards, sorted.
	FailedShards []string
}

// Option configures a Coordinator.
type Option func(*Coordinator)

// WithShardTimeout bounds each shard attempt's open (connect through the
// stream header) and then each read of the open stream. The time a stream
// waits, unread, while the merge pulls from other shards does not count. A
// replica that exceeds it is treated exactly like a failed one: the
// coordinator fails over to the next replica, and past the last replica the
// shard is dropped (partial mode) or the query errors (strict mode).
// Non-positive values keep the default, DefaultShardTimeout — there is
// deliberately no way to run unbounded, because a black-holed replica
// would hang the gather until the client disconnects.
func WithShardTimeout(d time.Duration) Option {
	return func(c *Coordinator) {
		if d > 0 {
			c.shardTimeout = d
		}
	}
}

// WithPartialResults selects degraded serving: when a shard exhausts its
// replicas the query continues over the survivors and the Result is marked
// Partial. The default is strict mode — any shard failure fails the query,
// so an answer is always complete.
func WithPartialResults(allow bool) Option {
	return func(c *Coordinator) { c.partial = allow }
}

// WithHTTPClient substitutes the HTTP client used for shard streams and
// health probes.
func WithHTTPClient(client *http.Client) Option {
	return func(c *Coordinator) { c.client = client }
}

// WithBreaker configures the per-replica circuit breakers: a replica's
// breaker opens after threshold consecutive failures and, while open,
// rejects attempts until cooldown elapses (then the next attempt — or
// health probe — is a trial). threshold 0 disables the breakers;
// non-positive cooldown keeps DefaultBreakerCooldown. The default is
// DefaultBreakerThreshold/DefaultBreakerCooldown.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *Coordinator) {
		if threshold < 0 {
			threshold = 0
		}
		c.breakerThreshold = threshold
		if cooldown > 0 {
			c.breakerCooldown = cooldown
		}
	}
}

// WithHealthProbes enables background health probing: every interval each
// replica's /healthz is probed (bounded by timeout, non-positive means
// DefaultProbeTimeout), maintaining up/down state, readiness, and an EWMA
// latency score that drives replica ordering. Non-positive interval
// disables probing (the default). With probing enabled the caller must
// Close the coordinator to stop the probers.
func WithHealthProbes(interval, timeout time.Duration) Option {
	return func(c *Coordinator) {
		c.probeInterval = interval
		if timeout > 0 {
			c.probeTimeout = timeout
		}
	}
}

// WithOpenRetries sets how many extra passes over a shard's (health-
// ranked) replica list the coordinator makes at open time, each pass
// preceded by a jittered exponential backoff, before declaring the shard
// failed. Negative values clamp to zero; the default is
// DefaultOpenRetries.
func WithOpenRetries(n int) Option {
	return func(c *Coordinator) {
		if n < 0 {
			n = 0
		}
		c.openRetries = n
	}
}

// Coordinator scatters top-k queries across shards and gathers the global
// answer by k-way merging the shards' decreasing-influence streams. It is
// safe for concurrent use. A coordinator with health probing enabled owns
// background goroutines; Close releases them.
type Coordinator struct {
	shards       []Shard
	reps         [][]*replica // parallel to shards
	client       *http.Client
	shardTimeout time.Duration
	partial      bool

	breakerThreshold int
	breakerCooldown  time.Duration
	probeInterval    time.Duration
	probeTimeout     time.Duration
	openRetries      int

	stopProbes chan struct{}
	probeWG    sync.WaitGroup
	closeOnce  sync.Once

	queries   atomic.Int64
	planNodes atomic.Int64
	cseHits   atomic.Int64
	errors    atomic.Int64
	partials  atomic.Int64
	failovers atomic.Int64
	probes    atomic.Int64
	retries   atomic.Int64
}

// NewCoordinator validates the topology and builds a coordinator.
func NewCoordinator(shards []Shard, opts ...Option) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: a coordinator needs at least one shard")
	}
	seen := make(map[string]bool, len(shards))
	for i, sh := range shards {
		if sh.Name == "" {
			return nil, fmt.Errorf("cluster: shard %d has no name", i)
		}
		if seen[sh.Name] {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", sh.Name)
		}
		seen[sh.Name] = true
		if len(sh.Replicas) == 0 {
			return nil, fmt.Errorf("cluster: shard %q has no replicas", sh.Name)
		}
	}
	c := &Coordinator{
		shards:           shards,
		client:           http.DefaultClient,
		shardTimeout:     DefaultShardTimeout,
		breakerThreshold: DefaultBreakerThreshold,
		breakerCooldown:  DefaultBreakerCooldown,
		probeTimeout:     DefaultProbeTimeout,
		openRetries:      DefaultOpenRetries,
	}
	for _, o := range opts {
		o(c)
	}
	c.reps = make([][]*replica, len(shards))
	for i, sh := range shards {
		c.reps[i] = make([]*replica, len(sh.Replicas))
		for j, u := range sh.Replicas {
			c.reps[i][j] = &replica{
				url:       u,
				shardName: sh.Name,
				br:        breaker{threshold: c.breakerThreshold, cooldown: c.breakerCooldown},
			}
		}
	}
	if c.probeInterval > 0 {
		c.stopProbes = make(chan struct{})
		for i := range c.reps {
			for _, r := range c.reps[i] {
				c.probeWG.Add(1)
				go c.probeLoop(r)
			}
		}
	}
	return c, nil
}

// Close stops the background health probers (a no-op when probing is
// off). Safe to call more than once; in-flight queries are unaffected.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		if c.stopProbes != nil {
			close(c.stopProbes)
			c.probeWG.Wait()
		}
	})
}

// Shards returns the configured topology.
func (c *Coordinator) Shards() []Shard { return c.shards }

// Stats is a snapshot of the coordinator's serving counters.
type Stats struct {
	// Queries is the number of TopK calls started (DSL plan fragments
	// included — each distinct fragment scatters as one TopK).
	Queries int64 `json:"queries"`
	// PlanNodes is the number of DSL plan nodes expanded by /v1/query
	// batches.
	PlanNodes int64 `json:"plan_nodes"`
	// CSEHits is the number of DSL plan nodes served from a fragment
	// already computed for an earlier node of the same batch, instead of
	// a fresh scatter.
	CSEHits int64 `json:"cse_hits"`
	// Errors is the number that returned an error.
	Errors int64 `json:"errors"`
	// PartialResults is the number answered with at least one shard dropped.
	PartialResults int64 `json:"partial_results"`
	// Failovers counts replica advances: every time a shard attempt failed
	// and the coordinator moved to the next replica (or dropped the shard).
	Failovers int64 `json:"failovers"`
	// Probes counts health probes sent across all replicas.
	Probes int64 `json:"probes"`
	// BreakerTrips counts circuit-breaker closed-to-open transitions
	// across all replicas since startup.
	BreakerTrips int64 `json:"breaker_trips"`
	// Retries counts backed-off open-time retry passes that ran.
	Retries int64 `json:"retries"`
	// Shards is the configured shard count.
	Shards int `json:"shards"`
	// ShardStatus is the per-replica resilience state (breaker, health,
	// latency score) for every shard.
	ShardStatus []ShardStatus `json:"shard_status"`
}

// Stats snapshots the serving counters.
func (c *Coordinator) Stats() Stats {
	status := c.Status()
	var trips int64
	for _, sh := range status {
		for _, r := range sh.Replicas {
			trips += r.Trips
		}
	}
	return Stats{
		Queries:        c.queries.Load(),
		PlanNodes:      c.planNodes.Load(),
		CSEHits:        c.cseHits.Load(),
		Errors:         c.errors.Load(),
		PartialResults: c.partials.Load(),
		Failovers:      c.failovers.Load(),
		Probes:         c.probes.Load(),
		BreakerTrips:   trips,
		Retries:        c.retries.Load(),
		Shards:         len(c.shards),
		ShardStatus:    status,
	}
}

// RequestError is a query refused as the client's fault rather than any
// replica's: a malformed batch, an out-of-range parameter, or every
// replica of a shard answering 400 or 404. It trips no breaker, fails the
// query even in partial mode, and iccoord answers it with 400, or with 404
// when NotFound.
type RequestError struct {
	Err error
	// NotFound marks a refusal for a dataset no replica serves.
	NotFound bool
}

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// badRequest returns a *RequestError with a formatted message.
func badRequest(format string, args ...any) error {
	return &RequestError{Err: fmt.Errorf(format, args...)}
}

// isRequestError reports whether err is, or wraps, a *RequestError.
func isRequestError(err error) bool {
	var re *RequestError
	return errors.As(err, &re)
}

// TopK runs one scatter-gather query: the global top-k influential
// communities for gamma under mode (ModeCore, ModeNonContainment, or
// ModeTruss), over dataset (empty for each shard's default). Each shard
// streams its local answer in decreasing influence order; the merge pops the
// globally best head until k communities are popped — at that point every
// remaining head, and everything behind it in its stream, is dominated, so
// the coordinator closes the streams and the shards cancel their searches.
func (c *Coordinator) TopK(ctx context.Context, dataset string, k int, gamma int32, mode string) (*Result, error) {
	c.queries.Add(1)
	res, err := c.topK(ctx, dataset, k, gamma, mode)
	if err != nil {
		c.errors.Add(1)
		return nil, err
	}
	if res.Partial {
		c.partials.Add(1)
	}
	return res, nil
}

func (c *Coordinator) topK(ctx context.Context, dataset string, k int, gamma int32, mode string) (*Result, error) {
	if k < 1 {
		return nil, badRequest("cluster: k must be >= 1")
	}
	if gamma < 1 {
		return nil, badRequest("cluster: gamma must be >= 1")
	}
	switch mode {
	case "":
		mode = ModeCore
	case ModeCore, ModeNonContainment, ModeTruss:
	default:
		return nil, badRequest("cluster: unknown mode %q", mode)
	}
	if mode == ModeTruss && gamma < 2 {
		// Every shard would refuse it; refuse it before the scatter.
		return nil, badRequest("cluster: truss queries need gamma >= 2")
	}

	// The attempt plan — health-ranked replica order times retry passes —
	// is fixed per shard before the first gather, so the restart loop
	// below advances monotonically through it and terminates.
	n := len(c.shards)
	plans := make([][]attempt, n)
	for i := range c.shards {
		plans[i] = c.attemptPlan(i)
	}
	cursors := make([]int, n) // next plan position to try, per shard
	dead := make([]bool, n)   // dropped shards (partial mode only)
	for {
		res, failIdx, failCursor, err := c.gather(ctx, dataset, k, gamma, mode, plans, cursors, dead)
		if err != nil {
			return nil, err
		}
		if failIdx < 0 {
			return res, nil
		}
		// A shard failed after the merge had already consumed some of its
		// communities: those results are suspect (a replica restart may pin
		// a different epoch), so the whole gather restarts with that shard's
		// plan cursor advanced. Each restart either advances a cursor or
		// kills a shard, so the loop terminates.
		c.failovers.Add(1)
		cursors[failIdx] = failCursor
		if failCursor >= len(plans[failIdx]) {
			if !c.partial {
				return nil, fmt.Errorf("cluster: shard %q failed on all replicas", c.shards[failIdx].Name)
			}
			dead[failIdx] = true
		}
		alive := 0
		for i := range dead {
			if !dead[i] {
				alive++
			}
		}
		if alive == 0 {
			return nil, fmt.Errorf("cluster: all shards failed")
		}
	}
}

// shardItem is one event from a shard reader: exactly one of header, comm,
// trailer, or err is set. pos is the attempt-plan position that produced it.
type shardItem struct {
	header  *StreamHeader
	comm    *Community
	trailer *StreamTrailer
	err     error
	pos     int
}

// send delivers an item unless the gather has been canceled.
func send(ctx context.Context, out chan<- shardItem, it shardItem) bool {
	select {
	case out <- it:
		return true
	case <-ctx.Done():
		return false
	}
}

// errGatherDone cancels a gather's shard attempts once it needs them no
// more: the merge finished, or another shard ended the query.
var errGatherDone = errors.New("cluster: gather done")

// abandoned reports whether an attempt under the gather context ctx ended
// because the gather no longer needed it, which says nothing about the
// replica. The caller's deadline or disconnect does count: a replica that
// stalls past the caller's budget has failed the query.
func abandoned(ctx context.Context) bool { return errors.Is(context.Cause(ctx), errGatherDone) }

// openAttempt opens rep's stream, feeding the replica's breaker and
// latency score with the outcome. Neither a *RequestError (the replica
// refused the request as malformed) nor an abandoned attempt is the
// replica's failure. The shard timeout cancels the attempt if the open,
// or later one Next, outlasts it. It does not run while the
// open stream waits for the merge: the merge pulls shards in turn, and a
// healthy stream must survive the merge's wait on a slower one.
func (c *Coordinator) openAttempt(ctx context.Context, rep *replica, dataset string, limit int, gamma int32, mode string) (*shardStream, error) {
	sctx, cancel := context.WithCancelCause(ctx)
	deadline := time.AfterFunc(c.shardTimeout, func() { cancel(context.DeadlineExceeded) })
	start := time.Now()
	ss, err := openStream(sctx, c.client, rep.url, dataset, mode, gamma, limit)
	deadline.Stop()
	if err != nil {
		if context.Cause(sctx) == context.DeadlineExceeded {
			err = fmt.Errorf("cluster: %s: %w", rep.url, context.DeadlineExceeded)
		}
		cancel(nil)
		if !isRequestError(err) && !abandoned(ctx) {
			rep.br.failure(time.Now())
		}
		return nil, err
	}
	rep.br.success()
	rep.observe(time.Since(start))
	ss.ctx, ss.cancel, ss.deadline, ss.timeout = sctx, cancel, deadline, c.shardTimeout
	return ss, nil
}

// readShard streams one shard into out, walking its attempt plan from
// start. Failures before the header are retried on later plan entries
// internally — nothing has been consumed, so failover is invisible to the
// merge. Once a header is delivered the stream is committed: a later
// failure is reported as an err item and the merge decides whether a full
// restart is needed. Replicas whose breaker is open (and not yet due a
// trial) are skipped without costing a timeout. A replica's 400 or 404
// costs no breaker failure, and the walk fails over and never asks it
// again: the refusal may be that replica's configuration (a semi-external
// backend refusing truss, a lower -maxk, a dataset it was not given). Only
// if every replica in the walk refused is the request at fault, reported
// as a *RequestError.
func (c *Coordinator) readShard(ctx context.Context, si int, dataset string, plan []attempt, start, limit int, gamma int32, mode string, out chan<- shardItem) {
	sh := c.shards[si]
	if sh.Dataset != "" {
		dataset = sh.Dataset
	}
	var lastErr error
	attempted := false
	refused := make([]bool, len(c.reps[si])) // replicas that answered 400 or 404
	allRefused := true
	for pos := start; pos < len(plan); pos++ {
		if refused[plan[pos].rep] {
			continue // it would refuse again
		}
		rep := c.reps[si][plan[pos].rep]
		if !rep.br.admit(time.Now()) {
			if lastErr == nil {
				lastErr = fmt.Errorf("replica %s: circuit breaker open", rep.url)
			}
			allRefused = false
			continue
		}
		if attempted {
			c.failovers.Add(1)
		}
		if w := plan[pos].wait; w > 0 {
			c.retries.Add(1)
			select {
			case <-time.After(w):
			case <-ctx.Done():
				return
			}
		}
		attempted = true
		ss, err := c.openAttempt(ctx, rep, dataset, limit, gamma, mode)
		if err != nil {
			lastErr = err
			refused[plan[pos].rep] = isRequestError(err)
			allRefused = allRefused && refused[plan[pos].rep]
			continue
		}
		if !send(ctx, out, shardItem{header: &ss.header, pos: pos}) {
			ss.Close()
			return
		}
		for {
			comm, trailer, err := ss.Next()
			var it shardItem
			switch {
			case err != nil:
				if ss.ctx.Err() != nil {
					err = fmt.Errorf("shard %q replica %s: %w", sh.Name, rep.url, context.Cause(ss.ctx))
				}
				if !abandoned(ctx) {
					rep.br.failure(time.Now())
				}
				it = shardItem{err: err, pos: pos}
			case trailer != nil:
				it = shardItem{trailer: trailer, pos: pos}
			default:
				it = shardItem{comm: comm, pos: pos}
			}
			ok := send(ctx, out, it)
			if !ok || it.comm == nil {
				ss.Close()
				return
			}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no replicas configured")
	}
	var re *RequestError
	if errors.As(lastErr, &re) {
		if allRefused {
			send(ctx, out, shardItem{err: fmt.Errorf("shard %q: %w", sh.Name, lastErr), pos: len(plan)})
			return
		}
		lastErr = re.Err // refused by some replicas only: the shard failed
	}
	send(ctx, out, shardItem{
		err: fmt.Errorf("shard %q: all replicas failed: %w", sh.Name, lastErr),
		pos: len(plan),
	})
}

// gather runs one merge attempt. It returns either a finished Result
// (failIdx == -1), or a restart request: failIdx names a shard that failed
// after some of its communities were merged, failCursor the plan position
// to resume from. Terminal errors (bad context, strict-mode failure
// discovered before any consumption) come back as err.
func (c *Coordinator) gather(ctx context.Context, dataset string, k int, gamma int32, mode string, plans [][]attempt, cursors []int, dead []bool) (res *Result, failIdx, failCursor int, err error) {
	gctx, cancel := context.WithCancelCause(ctx)
	defer cancel(errGatherDone) // closes surviving streams -> shards cancel their searches

	n := len(c.shards)
	chans := make([]chan shardItem, n)
	for i := range c.shards {
		if dead[i] {
			continue
		}
		chans[i] = make(chan shardItem)
		go c.readShard(gctx, i, dataset, plans[i], cursors[i], k, gamma, mode, chans[i])
	}

	// Per-shard merge state. A shard is "live" while it might still produce
	// a community: it has a pending head, or a head has not been pulled yet.
	heads := make([]*Community, n)
	done := make([]bool, n)
	consumed := make([]int, n)
	epochs := make(map[string]uint64, n)
	failed := make([]string, 0)
	for i, sh := range c.shards {
		if dead[i] {
			failed = append(failed, sh.Name)
			done[i] = true
		}
	}

	// fail records a shard failure discovered at item it. If the merge has
	// already consumed communities from that shard the attempt must restart
	// from the next plan position; otherwise the shard can be dropped (or
	// the query failed) in place without disturbing the merge.
	fail := func(i int, it shardItem) (restartAt int, err error) {
		if isRequestError(it.err) {
			// No other replica or partial answer can mend a bad request.
			return -1, it.err
		}
		if consumed[i] > 0 {
			return it.pos + 1, nil
		}
		if !c.partial {
			return -1, fmt.Errorf("cluster: shard %q failed: %w", c.shards[i].Name, it.err)
		}
		// The cursor advance is recorded so a restart triggered by another
		// shard does not resurrect this one.
		c.failovers.Add(1)
		dead[i] = true
		cursors[i] = len(plans[i])
		done[i] = true
		heads[i] = nil
		delete(epochs, c.shards[i].Name)
		failed = append(failed, c.shards[i].Name)
		return -1, nil
	}

	// pull advances shard i to its next head (or marks it done). A restart
	// request surfaces as restartAt >= 0: the plan position to resume from.
	pull := func(i int) (restartAt int, err error) {
		for {
			select {
			case it := <-chans[i]:
				switch {
				case it.header != nil:
					epochs[c.shards[i].Name] = it.header.SnapshotEpoch
					continue // the first community/trailer follows
				case it.comm != nil:
					heads[i] = it.comm
					return -1, nil
				case it.trailer != nil:
					done[i] = true
					heads[i] = nil
					return -1, nil
				default:
					return fail(i, it)
				}
			case <-ctx.Done():
				return -1, fmt.Errorf("cluster: %w", ctx.Err())
			}
		}
	}

	// out stays nil when no shard produces anything, so an empty answer
	// marshals exactly like a single node's ("communities": null).
	var out []Community
	for len(out) < k {
		// Ensure every live shard has a head, then pop the global best. The
		// tie order (influence desc, keynode asc) is exactly the order the
		// unpartitioned stream emits: equal influence means equal keynode
		// weight, and the global vertex ranking breaks weight ties by
		// ascending original ID.
		best := -1
		for i := range c.shards {
			if done[i] {
				continue
			}
			if heads[i] == nil {
				restartAt, err := pull(i)
				if err != nil {
					return nil, -1, 0, err
				}
				if restartAt >= 0 {
					return nil, i, restartAt, nil
				}
				if heads[i] == nil {
					continue // went done (trailer) or was dropped
				}
			}
			h := heads[i]
			if best < 0 || h.Influence > heads[best].Influence ||
				(h.Influence == heads[best].Influence && h.Keynode < heads[best].Keynode) {
				best = i
			}
		}
		if best < 0 {
			break // every shard exhausted: the cluster has fewer than k
		}
		out = append(out, *heads[best])
		heads[best] = nil
		consumed[best]++
	}

	sort.Strings(failed)
	return &Result{
		Communities:  out,
		Epochs:       epochs,
		Partial:      len(failed) > 0,
		FailedShards: failed,
	}, -1, 0, nil
}
