package cluster

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/query"
)

// This file renders answers from the paper's containment forest straight
// into JSON: a statement's filters run on each community's Size and
// Influence first, surviving communities get their members by rank-order
// merges (core.MemberMerger), and one appender writes the bytes
// encoding/json writes for the same Community. Render and
// Community.Vertices are the reference it matches.

// Answer is one executed node's communities in decreasing influence order,
// kept as the search returned them: nodes of the containment forest
// (EnumIC, Algorithm 3, for every cohesiveness measure), whose groups
// partition the answer's members, and the graph that maps ranks to
// original IDs and labels (nil for backends that report weight ranks). It
// renders only when written, so a memoized answer holds the union of its
// members rather than their summed sizes. An Answer is read-only once
// built: any number of goroutines may render it at once.
type Answer struct {
	g     *graph.Graph
	comms []*core.Community
}

// NewAnswer returns an empty answer whose communities render against g.
func NewAnswer(g *graph.Graph) *Answer { return &Answer{g: g} }

// Add appends c, the next community in decreasing influence order.
func (a *Answer) Add(c *core.Community) { a.comms = append(a.comms, c) }

// Groups returns the summed group sizes of the answer's communities: the
// number of distinct members it holds, which is what the answer costs to
// keep beside one node per community.
func (a *Answer) Groups() int {
	n := 0
	for _, c := range a.comms {
		n += len(c.Group())
	}
	return n
}

// AppendJSON appends the communities that pass fs as a JSON array: the
// bytes encoding/json writes for ApplyDSLFilters(fs, the answer rendered
// by Render). Only the surviving communities are rendered.
func (a *Answer) AppendJSON(b []byte, fs []query.Filter) []byte {
	r := NewRenderer(a.g)
	defer r.Release()
	pos, predicated := r.selectFrom(a.comms, fs)
	if len(a.comms) == 0 && !predicated {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for j, i := range pos {
		if j > 0 {
			b = append(b, ',')
		}
		b = r.AppendCommunity(b, a.comms[i])
	}
	return append(b, ']')
}

// Communities returns the communities that pass fs, rendered: what
// ApplyDSLFilters(fs, the answer rendered by Render) returns.
func (a *Answer) Communities(fs []query.Filter) []Community {
	r := NewRenderer(a.g)
	defer r.Release()
	pos, predicated := r.selectFrom(a.comms, fs)
	if len(a.comms) == 0 && !predicated {
		return nil
	}
	out := make([]Community, len(pos))
	for j, i := range pos {
		c := a.comms[i]
		out[j] = Render(r.g, c.Influence(), c.Keynode(), r.members.Members(c))
	}
	return out
}

// Renderer renders communities one at a time, in decreasing influence
// order: a progressive stream's as they arrive, or an answer's. It keeps
// only the member lists whose parent has not been rendered yet. Get one
// with NewRenderer and Release it when done; a Renderer is not safe for
// concurrent use.
type Renderer struct {
	g       *graph.Graph
	members core.MemberMerger
	pos     []int32
	ids     []int32
	labels  []string
}

var renderers = sync.Pool{New: func() any { return new(Renderer) }}

// NewRenderer returns a Renderer whose communities render against g (nil
// keeps weight ranks).
func NewRenderer(g *graph.Graph) *Renderer {
	r := renderers.Get().(*Renderer)
	r.g = g
	return r
}

// Release returns r to the pool; r must not be used afterwards.
func (r *Renderer) Release() {
	r.members.Reset()
	r.g = nil
	clear(r.labels[:cap(r.labels)]) // drop the references to g's labels
	if cap(r.ids) > 1<<maxKeptScratch {
		r.ids, r.labels = nil, nil
	}
	renderers.Put(r)
}

// maxKeptScratch bounds the scratch a pooled Renderer keeps: 2^16 members.
const maxKeptScratch = 16

// selectFrom runs fs over comms on the renderer's position scratch. Label
// filters walk a community's groups, so they need no rendering either.
func (r *Renderer) selectFrom(comms []*core.Community, fs []query.Filter) ([]int32, bool) {
	g := r.g
	labelled := g != nil && g.HasLabels()
	pos, predicated := selectPositions(fs, len(comms), func(f query.Filter, i int) bool {
		c := comms[i]
		if f.Name != query.FilterLabel {
			return f.Keep(c.Influence(), c.Size(), nil)
		}
		if !labelled {
			return f.Keep(0, 0, nil) // no labels: only the match-anything pattern
		}
		return anyMember(c, func(v int32) bool { return f.MatchLabel(g.Label(v)) })
	}, r.pos[:0])
	r.pos = pos
	return pos, predicated
}

// anyMember reports whether match holds for some member of c.
func anyMember(c *core.Community, match func(int32) bool) bool {
	for _, v := range c.Group() {
		if match(v) {
			return true
		}
	}
	for _, ch := range c.Children() {
		if anyMember(ch, match) {
			return true
		}
	}
	return false
}

// AppendCommunity appends c's JSON encoding to b: the bytes
// json.Marshal(Render(g, c.Influence(), c.Keynode(), c.Vertices())) writes.
// Its members come from the renderer's merger in ascending rank order and
// are translated like Render translates them.
func (r *Renderer) AppendCommunity(b []byte, c *core.Community) []byte {
	ranks := r.members.Members(c)
	wc := Community{Influence: c.Influence(), Size: len(ranks), Keynode: c.Keynode()}
	if r.g == nil {
		if len(ranks) > 0 {
			wc.Members = ranks
		}
		return AppendCommunity(b, &wc)
	}
	wc.Keynode = r.g.OrigID(wc.Keynode)
	ids := r.ids[:0]
	for _, v := range ranks {
		ids = append(ids, r.g.OrigID(v))
	}
	if len(ids) > 0 {
		wc.Members = ids
	}
	if r.g.HasLabels() {
		labels := r.labels[:0]
		for _, v := range ranks {
			labels = append(labels, r.g.Label(v))
		}
		wc.Labels, r.labels = labels, labels
	}
	r.ids = ids
	return AppendCommunity(b, &wc)
}

// selectPositions runs a statement's filter pipeline over the positions
// 0..n-1 of an answer, in pipeline order: predicates (label/influence/size)
// keep or drop, limit truncates what has survived so far. keep(f, i)
// decides predicate f for the community at position i. The surviving
// positions are appended to pos in order. predicated reports whether a
// predicate ran: an empty answer encodes as null unfiltered but as [] after
// a predicate. It is the one filter evaluator: answers call it before
// rendering and ApplyDSLFilters on flat lists.
func selectPositions(fs []query.Filter, n int, keep func(f query.Filter, i int) bool, pos []int32) (out []int32, predicated bool) {
	for _, f := range fs {
		if f.Name != query.FilterLimit {
			break
		}
		n = min(n, f.Int) // a leading limit bounds the candidates
	}
	for i := 0; i < n; i++ {
		pos = append(pos, int32(i))
	}
	for _, f := range fs {
		if f.Name == query.FilterLimit {
			if len(pos) > f.Int {
				pos = pos[:f.Int]
			}
			continue
		}
		predicated = true
		kept := pos[:0]
		for _, i := range pos {
			if keep(f, int(i)) {
				kept = append(kept, i)
			}
		}
		pos = kept
	}
	return pos, predicated
}

// AppendCommunity appends the JSON encoding of c to b: byte for byte what
// json.Marshal(c) writes, for the finite influence every community has.
func AppendCommunity(b []byte, c *Community) []byte {
	b = append(b, `{"influence":`...)
	b = AppendFloat(b, c.Influence)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(c.Size), 10)
	b = append(b, `,"keynode":`...)
	b = strconv.AppendInt(b, int64(c.Keynode), 10)
	b = append(b, `,"members":`...)
	if c.Members == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range c.Members {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	if len(c.Labels) > 0 {
		b = append(b, `,"labels":[`...)
		for i, l := range c.Labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendString(b, l)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// AppendFloat appends f as encoding/json writes a float64: like
// strconv's shortest form, in exponent form only below 1e-6 or from 1e21
// on, with a one-digit negative exponent unpadded. f must be finite.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 -> e-7
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendString appends s as a JSON string the way encoding/json writes it
// with HTML escaping on (json.Marshal, and json.Encoder by default): <, >
// and & become \u003c, \u003e and \u0026, invalid UTF-8 becomes \ufffd, and
// U+2028 and U+2029 are escaped.
func AppendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
