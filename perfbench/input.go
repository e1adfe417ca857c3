package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"
	"strings"

	"influcomm/internal/gen"
	"influcomm/internal/graph"
	"influcomm/internal/pagerank"
)

// The benchmark's inputs: one seeded graph shared by every workload, and one
// seeded op stream per (workload, client). Both are pure functions of the
// seed, so two runs with one seed send byte-identical traffic to
// byte-identical files.

// componentSizes are the vertex counts of the Holme–Kim components the
// input graph is made of. Six components let icindex -partition 3 split
// the graph into component-closed shards of 36k, 32k and 32k vertices.
var componentSizes = []int{36000, 24000, 16000, 12000, 8000, 4000}

const (
	edgesPerVertex = 16  // Holme–Kim links per new vertex
	triangleP      = 0.5 // Holme–Kim triangle-closure probability
	gammaMin       = 2   // smallest γ any workload asks for
	gammaMax       = 16  // largest γ any workload asks for
	readKMax       = 100 // largest k of a point or churn read
)

// mix derives an independent 64-bit seed from a base seed and a stream
// number (splitmix64 finalizer), so per-component and per-client streams
// never share state.
func mix(seed, stream uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// buildGraph generates the benchmark graph for seed: the Holme–Kim
// components side by side under disjoint original IDs, reweighted by
// PageRank over the whole graph.
func buildGraph(seed uint64) (*graph.Graph, error) {
	var b graph.Builder
	off := int32(0)
	for i, n := range componentSizes {
		c, err := gen.SocialNetwork(n, edgesPerVertex, triangleP, mix(seed, uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("component %d: %w", i, err)
		}
		for u := int32(0); int(u) < c.NumVertices(); u++ {
			b.AddVertex(off+c.OrigID(u), c.Weight(u))
		}
		for u := int32(0); int(u) < c.NumVertices(); u++ {
			for _, v := range c.UpNeighbors(u) {
				b.AddEdge(off+c.OrigID(v), off+c.OrigID(u))
			}
		}
		off += int32(n)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return pagerank.Reweight(g, pagerank.Options{})
}

// writeGraph generates the graph for seed and writes it in the binary
// format to path.
func writeGraph(path string, seed uint64) (*graph.Graph, error) {
	g, err := buildGraph(seed)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if err := graph.WriteBinary(w, g); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return g, f.Close()
}

// skewed samples an index in [0, n) with probability proportional to
// 1/(i+1)^s. Exponents below 1 (which math/rand's Zipf rejects) keep the
// distribution flat enough that a bounded cache hits only a minority.
type skewed struct{ cdf []float64 }

func newSkewed(n int, s float64) skewed {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return skewed{cdf}
}

func (z skewed) draw(r *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// Skews of the read mix: k over [1, readKMax] and γ over [gammaMin,
// gammaMax]. Flat enough that about a third of point reads hit the
// server's 256-entry result cache.
var (
	readKSkew     = newSkewed(readKMax, 0.6)
	readGammaSkew = newSkewed(gammaMax-gammaMin+1, 0.42)
)

// opKind separates reads from writes in latency accounting.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// op is one request of a workload's stream, with what the answer check
// needs to know about it.
type op struct {
	kind   opKind
	method string
	path   string // path and query, relative to the target's base URL
	body   []byte
	target int // index of the process the op is sent to

	k, gamma int      // point and churn reads
	batch    *batchOp // batch
	write    *writeOp // churn writes
}

// pointRead draws one (k, γ) read from the point mix.
func pointRead(r *rand.Rand) (k, gamma int) {
	return 1 + readKSkew.draw(r), gammaMin + readGammaSkew.draw(r)
}

func topkPath(k, gamma int) string {
	return "/v1/topk?k=" + strconv.Itoa(k) + "&gamma=" + strconv.Itoa(gamma)
}

// opStream yields one client's ops. next is deterministic in (seed,
// workload, client) and never ends.
type opStream interface {
	next() op
}

// pointStream is the point workload: GET /v1/topk on the default dataset.
type pointStream struct{ r *rand.Rand }

func (s *pointStream) next() op {
	k, gamma := pointRead(s.r)
	return op{kind: opRead, method: "GET", path: topkPath(k, gamma), k: k, gamma: gamma}
}

// Batch workload shape.
const (
	batchKMin      = 10
	batchKMax      = 310
	trussKMax      = 10
	trussGammaMax  = 6
	diskDataset    = "disk"
	defaultDataset = "default"
)

var batchGammaSkew = newSkewed(gammaMax-gammaMin+1, 0.42)

// batchSource is one DSL statement source: topk over [gammaLo, gammaHi].
type batchSource struct {
	k                int
	gammaLo, gammaHi int
	mode             string // "core" or "truss"
}

func (s batchSource) String() string {
	g := strconv.Itoa(s.gammaLo)
	if s.gammaHi != s.gammaLo {
		g += ".." + strconv.Itoa(s.gammaHi)
	}
	return "topk(k=" + strconv.Itoa(s.k) + ", gamma=" + g + ", semantics=" + s.mode + ")"
}

// batchFilter is one DSL filter of the benchmark's vocabulary.
type batchFilter struct {
	name string // "limit", "size>=", "size<="
	n    int
}

func (f batchFilter) String() string {
	switch f.name {
	case "limit":
		return "limit(" + strconv.Itoa(f.n) + ")"
	case "size>=":
		return "size(>=" + strconv.Itoa(f.n) + ")"
	default:
		return "size(<=" + strconv.Itoa(f.n) + ")"
	}
}

type batchStatement struct {
	src    batchSource
	filter batchFilter
}

// batchOp is one POST /v1/query batch.
type batchOp struct {
	dataset    string
	statements []batchStatement
}

func (b *batchOp) query() string {
	parts := make([]string, len(b.statements))
	for i, st := range b.statements {
		parts[i] = st.src.String() + " | " + st.filter.String()
	}
	return strings.Join(parts, "; ")
}

// batchStream is the batch workload: DSL batches of 2–4 statements, half
// to the in-memory default dataset and half to the semi-external disk
// dataset. Each batch repeats one source under two different filters.
type batchStream struct{ r *rand.Rand }

func (s *batchStream) source(dataset string) batchSource {
	r := s.r
	if dataset == defaultDataset && r.IntN(10) == 0 {
		gamma := gammaMin + r.IntN(trussGammaMax-gammaMin+1)
		return batchSource{k: 1 + r.IntN(trussKMax), gammaLo: gamma, gammaHi: gamma, mode: "truss"}
	}
	src := batchSource{k: batchKMin + r.IntN(batchKMax-batchKMin+1), mode: "core"}
	src.gammaLo = gammaMin + batchGammaSkew.draw(r)
	src.gammaHi = src.gammaLo
	if src.gammaLo < gammaMax && r.IntN(4) == 0 {
		src.gammaHi++
	}
	return src
}

func (s *batchStream) filter() batchFilter {
	switch s.r.IntN(3) {
	case 0:
		return batchFilter{"limit", 1 + s.r.IntN(50)}
	case 1:
		return batchFilter{"size>=", gammaMin + 1 + s.r.IntN(40)}
	default:
		return batchFilter{"size<=", gammaMin + 1 + s.r.IntN(200)}
	}
}

func (s *batchStream) next() op {
	b := &batchOp{dataset: defaultDataset}
	if s.r.IntN(2) == 0 {
		b.dataset = diskDataset
	}
	n := 2 + s.r.IntN(3)
	shared := s.source(b.dataset)
	f1 := s.filter()
	f2 := s.filter()
	for f2 == f1 {
		f2 = s.filter()
	}
	b.statements = append(b.statements, batchStatement{shared, f1}, batchStatement{shared, f2})
	for len(b.statements) < n {
		b.statements = append(b.statements, batchStatement{s.source(b.dataset), s.filter()})
	}
	body := `{"query":` + strconv.Quote(b.query()) + `,"dataset":"` + b.dataset + `"}`
	return op{kind: opRead, method: "POST", path: "/v1/query", body: []byte(body), batch: b}
}

// Churn workload shape.
const (
	churnWriteP   = 0.1 // share of ops that are update batches
	heavyEvery    = 200 // one update batch in this many may touch any rank
	churnBatchOps = 16  // inserts (and, once available, deletes) per batch
	lightFraction = 0.2 // light batches touch only this lowest-weight share of ranks
)

// writeOp is one update batch against one shard's mutable dataset, in the
// shard's rank IDs.
type writeOp struct {
	shard   int
	heavy   bool
	inserts [][2]int32
	deletes [][2]int32
}

func (w *writeOp) body() []byte {
	var sb strings.Builder
	sb.WriteString(`{"updates":[`)
	first := true
	add := func(op string, e [2]int32) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		sb.WriteString(`{"op":"` + op + `","u":` + strconv.Itoa(int(e[0])) + `,"v":` + strconv.Itoa(int(e[1])) + `}`)
	}
	for _, e := range w.inserts {
		add("insert", e)
	}
	for _, e := range w.deletes {
		add("delete", e)
	}
	sb.WriteString("]}")
	return []byte(sb.String())
}

// shardEdges answers edge-membership queries on one shard's base graph, in
// rank IDs.
type shardEdges interface {
	NumVertices() int
	HasEdge(u, v int32) bool
}

// churnStream is the churn workload: coordinator reads with probability
// 1-churnWriteP, otherwise one update batch to one shard. Every insert is
// an edge absent from the shard's base graph and owned by this client (the
// parity of u+v is the client number), so inserts never collide across
// clients; every delete removes an edge this client inserted earlier. The
// edge count therefore stays level, and every op of an acknowledged batch
// is effective.
type churnStream struct {
	r       *rand.Rand
	client  int
	clients int
	shards  []shardEdges
	// light and heavy hold, per shard, the edges this client inserted in
	// light and heavy batches and has not deleted yet, oldest first.
	light, heavy [][][2]int32
	owned        map[[3]int32]bool // (shard, u, v) ever inserted by this client
	// writes counts update batches so far; batch number writes is heavy
	// when (writes+heavyPhase) % heavyEvery == 0. A fixed schedule keeps
	// the heavy count per run steady, where a coin flip per batch would
	// let it vary several-fold between seeds.
	writes, heavyPhase int
}

func newChurnStream(seed uint64, client, clients int, shards []shardEdges) *churnStream {
	r := rand.New(rand.NewPCG(mix(seed, 100+uint64(client)), 3))
	return &churnStream{
		r:          r,
		heavyPhase: r.IntN(heavyEvery),
		client:     client,
		clients:    clients,
		shards:     shards,
		light:      make([][][2]int32, len(shards)),
		heavy:      make([][][2]int32, len(shards)),
		owned:      make(map[[3]int32]bool),
	}
}

func (s *churnStream) next() op {
	if s.r.Float64() >= churnWriteP {
		k, gamma := pointRead(s.r)
		return op{kind: opRead, method: "GET", path: topkPath(k, gamma), k: k, gamma: gamma}
	}
	si := s.r.IntN(len(s.shards))
	sh := s.shards[si]
	n := sh.NumVertices()
	w := &writeOp{shard: si, heavy: (s.writes+s.heavyPhase)%heavyEvery == 0}
	s.writes++
	lo := n - int(lightFraction*float64(n))
	if w.heavy {
		lo = 0
	}
	for len(w.inserts) < churnBatchOps {
		u := int32(lo + s.r.IntN(n-lo))
		v := int32(lo + s.r.IntN(n-lo))
		if u == v || int(u+v)%s.clients != s.client {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [3]int32{int32(si), u, v}
		if s.owned[key] || sh.HasEdge(u, v) {
			continue
		}
		s.owned[key] = true
		w.inserts = append(w.inserts, [2]int32{u, v})
	}
	pool := &s.light[si]
	if w.heavy {
		pool = &s.heavy[si]
	}
	nd := min(churnBatchOps, len(*pool))
	w.deletes = append(w.deletes, (*pool)[:nd]...)
	*pool = append((*pool)[nd:], w.inserts...)
	return op{kind: opWrite, method: "POST", path: "/v1/admin/datasets/dyn/updates", body: w.body(), target: 1 + si, write: w}
}

// warmupStream returns client's untimed warm-up stream: the workload's
// read mix from a seed stream of its own.
func warmupStream(workload string, seed uint64, client int) opStream {
	r := rand.New(rand.NewPCG(mix(seed, 200+uint64(client)), 2))
	if workload == "batch" {
		return &batchStream{r}
	}
	return &pointStream{r}
}

// newStream returns client's op stream for workload.
func newStream(workload string, seed uint64, client, clients int, shards []shardEdges) opStream {
	r := rand.New(rand.NewPCG(mix(seed, 100+uint64(client)), 1))
	switch workload {
	case "point":
		return &pointStream{r}
	case "batch":
		return &batchStream{r}
	default:
		return newChurnStream(seed, client, clients, shards)
	}
}
