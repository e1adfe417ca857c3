package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"influcomm/internal/cluster"
	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/index"
	"influcomm/internal/mutable"
	"influcomm/internal/query"
	"influcomm/internal/queryweight"
	"influcomm/internal/semiext"
	"influcomm/internal/server"
	"influcomm/internal/store"
	"influcomm/internal/truss"
)

// The traced run replays a prefix of client 0's op stream in this process
// with one client, against layers built from the workload's files through
// their public constructors. Each op is one root span holding a span
// around the server's ServeHTTP and spans around direct calls into the
// entry points the server used for that op, repeated with the same
// arguments. Only entry points the server itself calls are used, so a
// refactor that keeps serving behaviour keeps the benchmark compiling.

// tracedOps is how many ops of client 0's stream each traced run replays.
var tracedOps = map[string]int{"point": 3000, "batch": 600, "churn": 1200}

// layers collects per-call samples by metric name.
type layers map[string][]float64

func (l layers) add(name string, v float64) { l[name] = append(l[name], v) }

// serveHTTP runs one request through h in process and returns the body.
func serveHTTP(h http.Handler, method, path string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// timed runs fn inside a span, handing it the span's id, and returns the
// span's duration.
func (r *recorder) timed(name string, op, parent int, fn func(id int) map[string]int64) time.Duration {
	id := r.begin(name, op, parent)
	return r.end(id, fn(id))
}

// encodeSpan times the JSON encoding of a response envelope, the way the
// server writes it.
func encodeSpan(rec *recorder, i, root int, env any) time.Duration {
	return rec.timed("server.encode", i, root, func(int) map[string]int64 {
		_ = json.NewEncoder(io.Discard).Encode(env)
		return nil
	})
}

// topkEnvelope mirrors the /v1/topk response body.
type topkEnvelope struct {
	K                int                 `json:"k"`
	Gamma            int                 `json:"gamma"`
	Mode             string              `json:"mode"`
	Communities      []cluster.Community `json:"communities"`
	ElapsedMS        float64             `json:"elapsed_ms"`
	AccessedVertices int                 `json:"accessed_vertices,omitempty"`
	Cached           bool                `json:"cached,omitempty"`
}

func tracePoint(ctx context.Context, seed uint64, st *stack, rec *recorder, l layers) error {
	g, err := graph.LoadFile(st.graph)
	if err != nil {
		return err
	}
	ix, err := index.Load(st.path("g.icx"), g)
	if err != nil {
		return err
	}
	srv, err := server.New(g, server.WithIndex(ix))
	if err != nil {
		return err
	}
	defer srv.Close()
	s := newStream("point", seed, 0, 1, nil)
	var misses []op
	for i := 0; i < tracedOps["point"]; i++ {
		o := s.next()
		root := rec.begin("op", i, -1)
		var body []byte
		var code int
		serve := rec.timed("server.serve", i, root, func(int) map[string]int64 {
			code, body = serveHTTP(srv, o.method, o.path, nil)
			return nil
		})
		var env topkEnvelope
		if code != http.StatusOK || json.Unmarshal(body, &env) != nil {
			return fmt.Errorf("traced point op %d: status %d", i, code)
		}
		var engine, render time.Duration
		if !env.Cached {
			var comms []*core.Community
			engine = rec.timed("index.topk", i, root, func(int) map[string]int64 {
				comms, err = ix.TopK(o.k, int32(o.gamma))
				return nil
			})
			if err != nil {
				return err
			}
			env.Communities = env.Communities[:0]
			render = rec.timed("server.render", i, root, func(int) map[string]int64 {
				for _, c := range comms {
					env.Communities = append(env.Communities, cluster.Render(g, c.Influence(), c.Keynode(), c.Vertices()))
				}
				return nil
			})
			l.add("index.topk_ms", ms(engine))
			l.add("server.render_ms", ms(render))
			misses = append(misses, o)
		}
		encode := encodeSpan(rec, i, root, env)
		rec.end(root, nil)
		l.add("server.serve_ms", ms(serve))
		l.add("server.self_ms", ms(serve-engine-render-encode))
		l.add("server.encode_ms", ms(encode))
		l.add("server.resp_kb", float64(len(body))/1024)
	}

	// Heap bytes per TopK call, on this goroutine alone.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, o := range misses {
		if _, err := ix.TopK(o.k, int32(o.gamma)); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	if len(misses) > 0 {
		l.add("index.topk_alloc_kb", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(len(misses)))
	}
	return traceBuilds(ctx, rec, l, []*graph.Graph{g})
}

// traceBuilds times index.BuildContext over graphs, three times, and
// records each total as one index.build_s sample.
func traceBuilds(ctx context.Context, rec *recorder, l layers, graphs []*graph.Graph) error {
	for rep := 0; rep < 3; rep++ {
		var err error
		d := rec.timed("index.build", -1, -1, func(int) map[string]int64 {
			for _, g := range graphs {
				if _, err = index.BuildContext(ctx, g, 0); err != nil {
					return nil
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		l.add("index.build_s", d.Seconds())
	}
	return nil
}

// queryEnvelope mirrors the /v1/query response body.
type queryEnvelope struct {
	Query   string `json:"query"`
	Dataset string `json:"dataset"`
	Results []struct {
		Statement string `json:"statement"`
		Nodes     []struct {
			K                int                 `json:"k"`
			Gamma            int                 `json:"gamma"`
			Mode             string              `json:"mode"`
			Path             string              `json:"path"`
			Shared           bool                `json:"shared,omitempty"`
			Communities      []cluster.Community `json:"communities"`
			AccessedVertices int                 `json:"accessed_vertices,omitempty"`
		} `json:"nodes"`
	} `json:"results"`
	PlanNodes     int     `json:"plan_nodes"`
	CSEHits       int     `json:"cse_hits"`
	SnapshotEpoch uint64  `json:"snapshot_epoch,omitempty"`
	ElapsedMS     float64 `json:"elapsed_ms"`
}

// noIndex is the planner's path choice on a dataset without an index.
func noIndex(mode string, near bool) string {
	if mode == query.SemTruss {
		return query.PathTruss
	}
	return query.PathLocal
}

func traceBatch(ctx context.Context, seed uint64, st *stack, rec *recorder, l layers) error {
	g, err := graph.LoadFile(st.graph)
	if err != nil {
		return err
	}
	se, err := store.OpenEdgeFile(st.path("disk.edges"))
	if err != nil {
		return err
	}
	srv, err := server.New(g, server.WithDataset(diskDataset, server.DatasetConfig{Store: se}))
	if err != nil {
		se.Close()
		return err
	}
	defer srv.Close()
	mem, err := store.OpenMem(g)
	if err != nil {
		return err
	}
	view, err := semiext.OpenView(st.path("disk.edges"))
	if err != nil {
		return err
	}
	defer view.Close()
	tix := truss.NewIndex(g)
	var adjBuf []int32
	n := float64(g.NumVertices())

	s := newStream("batch", seed, 0, 1, nil)
	for i := 0; i < tracedOps["batch"]; i++ {
		o := s.next()
		root := rec.begin("op", i, -1)
		var body []byte
		var code int
		serve := rec.timed("server.serve", i, root, func(int) map[string]int64 {
			code, body = serveHTTP(srv, o.method, o.path, o.body)
			return nil
		})
		var env queryEnvelope
		if code != http.StatusOK || json.Unmarshal(body, &env) != nil {
			return fmt.Errorf("traced batch op %d: status %d: %s", i, code, body)
		}
		var nodes []query.Node
		plan := rec.timed("query.plan", i, root, func(int) map[string]int64 {
			q, perr := query.Parse(o.batch.query())
			if perr == nil {
				nodes, perr = query.PlanQuery(q, noIndex)
			}
			err = perr
			return nil
		})
		if err != nil {
			return err
		}
		l.add("query.plan_us", float64(plan)/float64(time.Microsecond))

		// Nodes in plan order line up with the response's statements and
		// nodes; the ones the server served from shared work it did not
		// execute, so neither are they repeated here.
		var engine, render time.Duration
		j := 0
		for si := range env.Results {
			for ni := range env.Results[si].Nodes {
				rn := &env.Results[si].Nodes[ni]
				nd := nodes[j]
				j++
				if rn.Shared {
					continue
				}
				var raw []rawComm
				var d time.Duration
				switch {
				case nd.Mode == query.SemTruss:
					d = rec.timed("truss.topk", i, root, func(int) map[string]int64 {
						res, terr := truss.LocalSearchCtx(ctx, tix, nd.K, nd.Gamma)
						if err = terr; terr == nil {
							for _, c := range res.Communities {
								raw = append(raw, rawComm{c.Influence(), c.Keynode(), c.Vertices()})
							}
						}
						return nil
					})
					l.add("truss.topk_ms", ms(d))
				case o.batch.dataset == diskDataset:
					var res *core.Result
					d = rec.timed("store.semiext_topk", i, root, func(int) map[string]int64 {
						res, err = se.TopK(ctx, nd.K, nd.Gamma, core.Options{})
						return nil
					})
					if err != nil {
						return err
					}
					l.add("store.semiext_topk_ms", ms(d))
					p := res.Stats.FinalPrefix
					decode := rec.timed("semiext.prefix_decode", i, root, func(int) map[string]int64 {
						adjBuf, err = view.AdjPrefix(p, g.PrefixEdges(p), max(1, se.Workers()), adjBuf)
						return map[string]int64{"prefix": int64(p)}
					})
					l.add("semiext.prefix_decode_ms", ms(decode))
					raw = rawComms(res)
				default:
					var res *core.Result
					d = rec.timed("core.topk", i, root, func(int) map[string]int64 {
						res, err = mem.TopK(ctx, nd.K, nd.Gamma, core.Options{})
						if err != nil {
							return nil
						}
						return map[string]int64{"rounds": int64(res.Stats.Rounds), "total_work": res.Stats.TotalWork, "final_prefix": int64(res.Stats.FinalPrefix)}
					})
					if err != nil {
						return err
					}
					l.add("core.topk_ms", ms(d))
					l.add("core.rounds", float64(res.Stats.Rounds))
					l.add("core.visited_frac", float64(res.Stats.FinalPrefix)/n)
					if len(res.Communities) > 0 {
						last := res.Communities[len(res.Communities)-1]
						l.add("core.work_ratio", float64(res.Stats.TotalWork)/float64(g.PrefixSize(int(last.Keynode())+1)))
					}
					raw = rawComms(res)
				}
				if err != nil {
					return err
				}
				engine += d
				rg := g
				if o.batch.dataset == diskDataset {
					rg = nil
				}
				rd := rec.timed("server.render", i, root, func(int) map[string]int64 {
					for _, c := range raw {
						_ = cluster.Render(rg, c.influence, c.keynode, c.members)
					}
					return nil
				})
				render += rd
				l.add("server.render_ms", ms(rd))
			}
		}
		encode := encodeSpan(rec, i, root, env)
		rec.end(root, nil)
		l.add("server.serve_ms", ms(serve))
		l.add("server.self_ms", ms(serve-engine-render-encode))
		l.add("server.encode_ms", ms(encode))
		l.add("server.resp_kb", float64(len(body))/1024)
	}
	return traceProbes(ctx, seed, g, mem, srv, rec, l)
}

// rawComm is one engine result before rendering.
type rawComm struct {
	influence float64
	keynode   int32
	members   []int32
}

func rawComms(res *core.Result) []rawComm {
	out := make([]rawComm, 0, len(res.Communities))
	for _, c := range res.Communities {
		out = append(out, rawComm{c.Influence(), c.Keynode(), c.Vertices()})
	}
	return out
}

// traceProbes measures the traffic held out of the batch mix, once each
// per repetition, outside any op.
func traceProbes(ctx context.Context, seed uint64, g *graph.Graph, mem *store.Mem, srv *server.Server, rec *recorder, l layers) error {
	r := rand.New(rand.NewPCG(mix(seed, 7), 7))
	for rep := 0; rep < 3; rep++ {
		seeds := []int32{int32(r.IntN(g.NumVertices())), int32(r.IntN(g.NumVertices())), int32(r.IntN(g.NumVertices()))}
		var err error
		d := rec.timed("probe.reweight", -1, -1, func(int) map[string]int64 {
			_, err = queryweight.Reweight(g, seeds)
			return nil
		})
		if err != nil {
			return err
		}
		l.add("probe.reweight_ms", ms(d))
		d = rec.timed("probe.nc", -1, -1, func(int) map[string]int64 {
			_, err = mem.TopK(ctx, 10, 8, core.Options{NonContainment: true})
			return nil
		})
		if err != nil {
			return err
		}
		l.add("probe.nc_ms", ms(d))
	}
	code, body := serveHTTP(srv, "POST", "/v1/query", []byte(`{"query":"topk(k=2000, gamma=2)"}`))
	if code != http.StatusOK {
		return fmt.Errorf("big-k probe: status %d", code)
	}
	l.add("probe.bigk_result_mb", float64(len(body))/(1<<20))
	return nil
}

// spanHandler records a server.serve span around every query or update
// request an in-process shard serves, under whatever op and parent span
// the replay loop is in.
type spanHandler struct {
	h          http.Handler
	rec        *recorder
	op, parent *atomic.Int64
}

func (s spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		s.h.ServeHTTP(w, r)
		return
	}
	id := s.rec.begin("server.serve", int(s.op.Load()), int(s.parent.Load()))
	s.h.ServeHTTP(w, r)
	s.rec.end(id, nil)
}

// cloneFile copies src to dst.
func cloneFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// traceChurnFiles names the fresh copies of the shards' edge files the
// traced run serves, taken before the timed load mutates the originals.
func traceChurnFiles(st *stack, dir string) ([]string, error) {
	var out []string
	for i := 0; i < shards; i++ {
		dst := filepath.Join(dir, fmt.Sprintf("dyn%d.edges", i))
		if err := cloneFile(st.path(fmt.Sprintf("dyn%d.edges", i)), dst); err != nil {
			return nil, err
		}
		out = append(out, dst)
	}
	return out, nil
}

func traceChurn(ctx context.Context, seed uint64, st *stack, edgeFiles []string, dir string, rec *recorder, l layers) error {
	var curOp, curParent atomic.Int64
	curParent.Store(-1)
	type shardState struct {
		srv *server.Server
		ts  *httptest.Server
		h   spanHandler
		g   *graph.Graph // shadow graph, advanced by graph.ApplyEdgeDeltaCut
		mut *mutable.Store
		ix  *index.Index
	}
	ss := make([]*shardState, shards)
	defer func() {
		for _, s := range ss {
			if s != nil {
				s.ts.Close()
				s.srv.Close()
			}
		}
	}()
	var baseGraphs []*graph.Graph
	var cshards []cluster.Shard
	for i := range ss {
		base, err := graph.LoadFile(shardGraph(st.graph, i))
		if err != nil {
			return err
		}
		baseGraphs = append(baseGraphs, base)
		ms, err := store.OpenMutable(edgeFiles[i])
		if err != nil {
			return err
		}
		g0 := ms.Graph()
		ix, err := index.Load(st.path(fmt.Sprintf("shard%d.icx", i)), g0)
		if err != nil {
			ms.Close()
			return err
		}
		srv, err := server.New(base, server.WithDataset("dyn", server.DatasetConfig{Store: ms, Index: ix, Reindex: "auto"}))
		if err != nil {
			ms.Close()
			return err
		}
		s := &shardState{srv: srv, g: g0, ix: ix}
		ss[i] = s
		s.h = spanHandler{h: srv, rec: rec, op: &curOp, parent: &curParent}
		s.ts = httptest.NewServer(s.h)
		if s.mut, err = mutable.NewStore(g0); err != nil {
			return err
		}
		cshards = append(cshards, cluster.Shard{Name: fmt.Sprintf("s%d", i), Replicas: []string{s.ts.URL}, Dataset: "dyn"})
	}
	// The coordinator runs with iccoord's default knobs.
	coord, err := cluster.NewCoordinator(cshards,
		cluster.WithShardTimeout(10*time.Second),
		cluster.WithHealthProbes(2*time.Second, time.Second),
		cluster.WithBreaker(5, 5*time.Second),
		cluster.WithOpenRetries(1))
	if err != nil {
		return err
	}
	defer coord.Close()
	wal, _, err := semiext.OpenUpdateLog(filepath.Join(dir, "wal.log"))
	if err != nil {
		return err
	}
	defer wal.Close()
	hc := &http.Client{Timeout: time.Minute}
	defer hc.CloseIdleConnections()

	edges := make([]shardEdges, shards)
	for i, sh := range ss {
		edges[i] = sh.g
	}
	s := newStream("churn", seed, 0, clients, edges)
	for i := 0; i < tracedOps["churn"]; i++ {
		o := s.next()
		root := rec.begin("op", i, -1)
		curOp.Store(int64(i))
		if o.kind == opRead {
			d := rec.timed("cluster.topk", i, root, func(id int) map[string]int64 {
				curParent.Store(int64(id))
				_, err = coord.TopK(ctx, "", o.k, int32(o.gamma), cluster.ModeCore)
				return nil
			})
			if err != nil {
				return fmt.Errorf("traced churn read %d: %w", i, err)
			}
			var slowest time.Duration
			for si, sh := range ss {
				url := fmt.Sprintf("%s%s?gamma=%d&limit=%d&dataset=dyn", sh.ts.URL, cluster.StreamPath, o.gamma, o.k)
				var serr error
				sd := rec.timed("cluster.shard_stream", i, root, func(id int) map[string]int64 {
					curParent.Store(int64(id))
					serr = drain(ctx, hc, url)
					return map[string]int64{"shard": int64(si)}
				})
				if serr != nil {
					return serr
				}
				slowest = max(slowest, sd)
			}
			l.add("cluster.topk_ms", ms(d))
			l.add("cluster.slowest_shard_ms", ms(slowest))
			l.add("cluster.merge_ms", ms(d-slowest))
		} else {
			w := o.write
			sh := ss[w.shard]
			curParent.Store(int64(root))
			code, body := serveHTTP(sh.h, o.method, o.path, o.body)
			if code != http.StatusOK {
				return fmt.Errorf("traced churn write %d: status %d: %s", i, code, body)
			}
			var ng *graph.Graph
			var cut int
			d := rec.timed("graph.delta", i, root, func(int) map[string]int64 {
				ng, cut, err = graph.ApplyEdgeDeltaCut(sh.g, w.inserts, w.deletes)
				return map[string]int64{"cut": int64(cut)}
			})
			if err != nil {
				return err
			}
			l.add("graph.delta_ms", ms(d))
			batch := make([]mutable.Update, 0, len(w.inserts)+len(w.deletes))
			logBatch := make([]semiext.LogUpdate, 0, cap(batch))
			for _, e := range w.inserts {
				batch = append(batch, mutable.Update{U: e[0], V: e[1]})
				logBatch = append(logBatch, semiext.LogUpdate{U: e[0], V: e[1]})
			}
			for _, e := range w.deletes {
				batch = append(batch, mutable.Update{Delete: true, U: e[0], V: e[1]})
				logBatch = append(logBatch, semiext.LogUpdate{Delete: true, U: e[0], V: e[1]})
			}
			var stats mutable.ApplyStats
			d = rec.timed("mutable.apply", i, root, func(int) map[string]int64 {
				stats, err = sh.mut.ApplyUpdates(ctx, batch)
				return map[string]int64{"inserted": int64(stats.Inserted), "deleted": int64(stats.Deleted)}
			})
			if err != nil {
				return err
			}
			l.add("mutable.apply_ms", ms(d))
			l.add("mutable.effective_frac", float64(stats.Inserted+stats.Deleted)/float64(len(batch)))
			d = rec.timed("semiext.wal_append", i, root, func(int) map[string]int64 {
				err = wal.Append(logBatch)
				return nil
			})
			if err != nil {
				return err
			}
			l.add("semiext.wal_append_ms", ms(d))
			if w.heavy {
				rec.timed("index.rebuild", i, root, func(int) map[string]int64 {
					sh.ix, err = index.BuildContext(ctx, ng, 0)
					return nil
				})
			} else {
				d = rec.timed("index.repair", i, root, func(int) map[string]int64 {
					sh.ix, err = sh.ix.ApplyDeltaContext(ctx, ng, cut, 0)
					return map[string]int64{"cut": int64(cut)}
				})
				l.add("index.repair_ms", ms(d))
			}
			if err != nil {
				return err
			}
			sh.g = ng
		}
		curParent.Store(-1)
		rec.end(root, nil)
	}

	// Every shard request the replay caused is a server.serve sample.
	for _, sp := range rec.all() {
		if sp.Name == "server.serve" {
			l.add("server.serve_ms", ms(sp.dur()))
		}
	}
	return traceBuilds(ctx, rec, l, baseGraphs)
}

// drain reads one shard stream to its end.
func drain(ctx context.Context, hc *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard stream %s: status %d", strings.SplitN(url, "?", 2)[0], resp.StatusCode)
	}
	return nil
}
