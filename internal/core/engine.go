package core

import (
	"context"

	"influcomm/internal/graph"
)

// ctxCheckInterval is the number of elementary engine steps (vertices
// removed or visited) between two context polls. Polling a context costs an
// atomic load plus a channel-closed check; at 4096 steps the overhead on the
// peeling hot loop is unmeasurable while cancellation latency stays bounded
// by a few microseconds of work.
const ctxCheckInterval = 4096

// Engine bundles the scratch state for repeated CountIC / ConstructCVS runs
// over prefixes of one graph. It exposes both the batch Run (Algorithms 2
// and 5) and a step-wise API (Peel / NextMin / Component / Remove) that the
// global-search baselines are built from. An Engine is not safe for
// concurrent use, but it is reusable: Reset rebinds it to a new γ (and
// clears any context) so one engine can serve many queries — that is what
// Pool exploits to make steady-state queries allocation-free.
type Engine struct {
	g     *graph.Graph
	gamma int32

	p      int     // current prefix length
	alive  []bool  // membership in the maintained γ-core, per vertex < p
	deg    []int32 // degree inside the maintained γ-core
	queue  []int32 // scratch removal queue
	cursor int     // scan position for NextMin (monotonically decreasing)

	stamp    []int32 // visited stamps for Component
	curStamp int32

	// Cancellation support. ctx is nil for engines that never had a
	// context attached, which keeps the step-wise baselines overhead-free.
	ctx    context.Context
	budget int   // steps until the next context poll
	ctxErr error // sticky; set once the context is observed cancelled
}

// NewEngine returns an Engine for graph g and cohesion threshold gamma.
func NewEngine(g *graph.Graph, gamma int32) *Engine {
	n := g.NumVertices()
	return &Engine{
		g:     g,
		gamma: gamma,
		alive: make([]bool, n),
		deg:   make([]int32, n),
		queue: make([]int32, 0, n),
		stamp: make([]int32, n),
	}
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Gamma returns the engine's cohesion threshold.
func (e *Engine) Gamma() int32 { return e.gamma }

// Reset rebinds the engine to a new cohesion threshold and detaches any
// context. The O(n) scratch slices are retained — they only depend on the
// graph — so a reset engine answers its next query without allocating.
func (e *Engine) Reset(gamma int32) {
	e.gamma = gamma
	e.p = 0
	e.cursor = -1
	e.ctx = nil
	e.budget = 0
	e.ctxErr = nil
}

// SetContext attaches ctx to the engine: subsequent runs poll it at round
// boundaries and every ctxCheckInterval removal/traversal steps, aborting
// early when it is cancelled. A nil ctx detaches (zero overhead).
func (e *Engine) SetContext(ctx context.Context) {
	e.ctx = ctx
	e.budget = ctxCheckInterval
	e.ctxErr = nil
}

// Err returns the context error that aborted the current run, if any.
func (e *Engine) Err() error { return e.ctxErr }

// tick consumes n work units and polls the attached context once the budget
// is spent. It reports whether the run may continue.
func (e *Engine) tick(n int) bool {
	if e.ctx == nil {
		return true
	}
	if e.ctxErr != nil {
		return false
	}
	e.budget -= n
	if e.budget > 0 {
		return true
	}
	e.budget = ctxCheckInterval
	if err := e.ctx.Err(); err != nil {
		e.ctxErr = err
		return false
	}
	return true
}

// Peel initializes the engine on the prefix subgraph [0, p) and reduces it
// to its γ-core (Line 1 of Algorithm 2). Any previous state is discarded.
// When a cancelled context is attached, Peel may leave the core partially
// reduced; the error is reported by Err and the next Peel starts clean.
func (e *Engine) Peel(p int) {
	e.p = p
	e.cursor = p - 1
	alive, deg := e.alive[:p], e.deg[:p]
	for u := 0; u < p; u++ {
		alive[u] = true
		deg[u] = e.g.DegreeWithin(int32(u), p)
	}
	q := e.queue[:0]
	for u := 0; u < p; u++ {
		if deg[u] < e.gamma {
			alive[u] = false
			q = append(q, int32(u))
		}
	}
	if !e.tick(p) {
		e.queue = q[:0]
		return
	}
	for len(q) > 0 {
		v := q[len(q)-1]
		q = q[:len(q)-1]
		if !e.tick(1) {
			break
		}
		for _, w := range e.g.NeighborsWithin(v, p) {
			if !alive[w] {
				continue
			}
			deg[w]--
			if deg[w] < e.gamma {
				alive[w] = false
				q = append(q, w)
			}
		}
	}
	e.queue = q[:0]
}

// Alive reports whether vertex u is still in the maintained γ-core.
func (e *Engine) Alive(u int32) bool { return e.alive[u] }

// AliveSize returns the number of vertices and edges currently alive; used
// by baselines to measure the cost of a component traversal.
func (e *Engine) AliveSize() (int, int64) {
	var nv int
	var half int64
	for u := 0; u < e.p; u++ {
		if e.alive[u] {
			nv++
			half += int64(e.deg[u])
		}
	}
	return nv, half / 2
}

// NextMin returns the minimum-weight vertex of the maintained γ-core (the
// next keynode, Line 5 of Algorithm 2), or -1 when the core is empty.
func (e *Engine) NextMin() int32 {
	for e.cursor >= 0 {
		if e.alive[e.cursor] {
			return int32(e.cursor)
		}
		e.cursor--
	}
	return -1
}

// Remove deletes u from the maintained γ-core and cascades the deletion to
// keep the remainder a γ-core (procedure Remove of Algorithm 2). The
// removed vertices, starting with u, are appended to seq and the extended
// slice is returned; the appended run is gp(u) when u is a keynode. A
// cancelled context stops the cascade early (check Err).
func (e *Engine) Remove(u int32, seq []int32) []int32 {
	q := e.queue[:0]
	e.alive[u] = false
	q = append(q, u)
	for len(q) > 0 {
		v := q[len(q)-1]
		q = q[:len(q)-1]
		seq = append(seq, v)
		if !e.tick(1) {
			break
		}
		for _, w := range e.g.NeighborsWithin(v, e.p) {
			if !e.alive[w] {
				continue
			}
			e.deg[w]--
			if e.deg[w] < e.gamma {
				e.alive[w] = false
				q = append(q, w)
			}
		}
	}
	e.queue = q[:0]
	return seq
}

// Component returns the connected component of u inside the maintained
// γ-core via BFS; u must be alive. The result is freshly allocated and in
// BFS order. This is the expensive subroutine that OnlineAll runs for every
// community and Forward runs only for the last k. A cancelled context stops
// the traversal early (check Err).
func (e *Engine) Component(u int32) []int32 {
	e.curStamp++
	s := e.curStamp
	comp := []int32{u}
	e.stamp[u] = s
	for i := 0; i < len(comp); i++ {
		v := comp[i]
		if !e.tick(1) {
			break
		}
		for _, w := range e.g.NeighborsWithin(v, e.p) {
			if e.alive[w] && e.stamp[w] != s {
				e.stamp[w] = s
				comp = append(comp, w)
			}
		}
	}
	return comp
}

// CVS is the output of CountIC / ConstructCVS: the keynode sequence keys
// (in increasing weight order) and the community-aware vertex sequence cvs,
// partitioned into one group per keynode. NC[j], when computed, reports
// whether keynode j is a non-containment keynode (§5.1).
type CVS struct {
	P      int     // prefix length the run was performed on
	Keys   []int32 // keynodes, increasing weight order (min weight first)
	KeyPos []int32 // len(Keys)+1; group j is Seq[KeyPos[j]:KeyPos[j+1]]
	Seq    []int32 // cvs: community-aware vertex sequence
	NC     []bool  // per-key non-containment flag; nil unless requested
}

// Count returns the number of influential γ-communities found.
func (c *CVS) Count() int { return len(c.Keys) }

// Group returns gp(Keys[j]). The caller must not modify it.
func (c *CVS) Group(j int) []int32 { return c.Seq[c.KeyPos[j]:c.KeyPos[j+1]] }

// reset truncates the CVS in place for a new run on prefix p, keeping the
// backing arrays so pooled runs stop allocating per round.
func (c *CVS) reset(p int) {
	c.P = p
	c.Keys = c.Keys[:0]
	c.KeyPos = append(c.KeyPos[:0], 0)
	c.Seq = c.Seq[:0]
	c.NC = c.NC[:0]
}

// CompactTail returns a fresh CVS holding copies of the last k groups of c
// (all of them when k < 0). Enumeration retains group sub-slices, so
// TopKOver hands it a compact copy instead of the final round's whole
// sequence (a pooled buffer, which goes back to the pool, on a *Pool); the
// copy is exactly the data the result keeps alive.
func (c *CVS) CompactTail(k int) *CVS {
	start := 0
	if k >= 0 && len(c.Keys) > k {
		start = len(c.Keys) - k
	}
	nk := len(c.Keys) - start
	out := &CVS{
		P:      c.P,
		Keys:   make([]int32, nk),
		KeyPos: make([]int32, nk+1),
	}
	copy(out.Keys, c.Keys[start:])
	base := c.KeyPos[start]
	out.Seq = make([]int32, c.KeyPos[len(c.Keys)]-base)
	copy(out.Seq, c.Seq[base:])
	for j := 0; j <= nk; j++ {
		out.KeyPos[j] = c.KeyPos[start+j] - base
	}
	if c.NC != nil {
		out.NC = make([]bool, nk)
		copy(out.NC, c.NC[start:])
	}
	return out
}

// RunFlags selects optional work in Engine.Run.
type RunFlags uint8

const (
	// WantSeq materializes the cvs sequence (needed for enumeration).
	WantSeq RunFlags = 1 << iota
	// WantNC additionally classifies keynodes as non-containment.
	WantNC
)

// Run executes CountIC (Algorithm 2) on the prefix [0, p) when stopBefore
// is 0, or ConstructCVS (Algorithm 5) when stopBefore > 0: the iteration
// stops before processing any keynode with rank < stopBefore (weight ≥ the
// previous round's threshold), so only the new keynodes of this round are
// produced. WantNC requires WantSeq.
func (e *Engine) Run(p, stopBefore int, flags RunFlags) *CVS {
	c, _ := e.RunInto(nil, p, stopBefore, flags)
	return c
}

// RunInto is Run writing into a caller-provided CVS (a fresh one is
// allocated when c is nil), enabling buffer reuse across rounds and queries.
// It returns the context error when a cancelled context aborted the run; the
// CVS content is then partial and must be discarded.
func (e *Engine) RunInto(c *CVS, p, stopBefore int, flags RunFlags) (*CVS, error) {
	e.Peel(p)
	if c == nil {
		c = &CVS{}
	}
	c.reset(p)
	if flags&WantNC != 0 {
		flags |= WantSeq
	}
	for e.ctxErr == nil {
		u := e.NextMin()
		if u < 0 || int(u) < stopBefore {
			break
		}
		c.Keys = append(c.Keys, u)
		segStart := len(c.Seq)
		c.Seq = e.Remove(u, c.Seq)
		if flags&WantSeq == 0 {
			c.Seq = c.Seq[:0]
			c.KeyPos = append(c.KeyPos, 0)
			continue
		}
		c.KeyPos = append(c.KeyPos, int32(len(c.Seq)))
		if flags&WantNC != 0 {
			c.NC = append(c.NC, e.isNonContainment(c.Seq[segStart:]))
		}
	}
	if flags&WantNC == 0 && len(c.NC) == 0 {
		c.NC = nil
	}
	return c, e.ctxErr
}

// isNonContainment reports whether the removed segment has no edge to a
// vertex that is still alive: exactly the paper's condition for the
// segment's keynode to be a non-containment keynode (§5.1).
func (e *Engine) isNonContainment(seg []int32) bool {
	for _, v := range seg {
		for _, w := range e.g.NeighborsWithin(v, e.p) {
			if e.alive[w] {
				return false
			}
		}
	}
	return true
}

// CountIC returns the number of influential γ-communities in the prefix
// subgraph [0, p) of g: the counting subroutine of Algorithm 1, running in
// O(size(G≥τ)) by Lemma 3.4 (communities are in bijection with keynodes).
func CountIC(g *graph.Graph, p int, gamma int32) int {
	return NewEngine(g, gamma).Run(p, 0, 0).Count()
}
