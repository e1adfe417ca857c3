package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"sort"

	"influcomm/internal/cluster"
	"influcomm/internal/core"
	"influcomm/internal/graph"
	"influcomm/internal/truss"
)

// Answer checks. They run after the timed window, against reference
// answers computed in this process by the paper's LocalSearch on the same
// files the servers loaded, and compare the exact community lists a
// response carried (by digest) with the reference's.

// refComm is one reference community, JSON-encoded the way a server
// renders it: by original vertex ID on whole-graph datasets, by weight
// rank on semi-external ones.
type refComm struct {
	influence float64
	keynode   int32 // rank
	size      int
	orig      []byte
	rank      []byte
}

// refs holds, per (semantics, γ), a graph's top communities from
// LocalSearch, computed on first use.
type refs struct {
	g     *graph.Graph
	kmax  map[string]int
	lists map[string][]refComm
	tix   *truss.Index
}

func newRefs(g *graph.Graph, kmaxCore, kmaxTruss int) *refs {
	return &refs{g: g, kmax: map[string]int{"core": kmaxCore, "truss": kmaxTruss}, lists: map[string][]refComm{}}
}

func encodeComm(influence float64, keynode int32, members []int32) []byte {
	b, err := json.Marshal(cluster.Community{Influence: influence, Size: len(members), Keynode: keynode, Members: members})
	if err != nil {
		panic(err) // a struct of numbers always encodes
	}
	return b
}

func (r *refs) newComm(influence float64, keynode int32, members []int32) refComm {
	orig := make([]int32, len(members))
	for i, v := range members {
		orig[i] = r.g.OrigID(v)
	}
	return refComm{
		influence: influence,
		keynode:   keynode,
		size:      len(members),
		orig:      encodeComm(influence, r.g.OrigID(keynode), orig),
		rank:      encodeComm(influence, keynode, members),
	}
}

// list returns the reference top communities for (mode, gamma).
func (r *refs) list(mode string, gamma int) ([]refComm, error) {
	key := fmt.Sprintf("%s/%d", mode, gamma)
	if l, ok := r.lists[key]; ok {
		return l, nil
	}
	var out []refComm
	switch mode {
	case "core":
		res, err := core.TopK(r.g, r.kmax[mode], int32(gamma), core.Options{})
		if err != nil {
			return nil, err
		}
		for _, c := range res.Communities {
			out = append(out, r.newComm(c.Influence(), c.Keynode(), c.Vertices()))
		}
	case "truss":
		if r.tix == nil {
			r.tix = truss.NewIndex(r.g)
		}
		res, err := truss.LocalSearch(r.tix, r.kmax[mode], int32(gamma))
		if err != nil {
			return nil, err
		}
		for _, c := range res.Communities {
			out = append(out, r.newComm(c.Influence(), c.Keynode(), c.Vertices()))
		}
	default:
		return nil, fmt.Errorf("no reference for mode %q", mode)
	}
	r.lists[key] = out
	return out, nil
}

// digest is the CRC-32C of the JSON array of comms as a server encodes
// it; nonNil distinguishes an empty list ("[]") from none ("null").
func digest(comms []refComm, byRank, nonNil bool) uint32 {
	if len(comms) == 0 {
		if nonNil {
			return crc32.Checksum([]byte("[]"), castagnoli)
		}
		return crc32.Checksum([]byte("null"), castagnoli)
	}
	h := crc32.Update(0, castagnoli, []byte("["))
	for i, c := range comms {
		if i > 0 {
			h = crc32.Update(h, castagnoli, []byte(","))
		}
		if byRank {
			h = crc32.Update(h, castagnoli, c.rank)
		} else {
			h = crc32.Update(h, castagnoli, c.orig)
		}
	}
	return crc32.Update(h, castagnoli, []byte("]"))
}

// topk is the first k of the reference list for (mode, gamma).
func (r *refs) topk(mode string, gamma, k int) ([]refComm, error) {
	if k > r.kmax[mode] {
		return nil, fmt.Errorf("k=%d beyond the reference's %d", k, r.kmax[mode])
	}
	l, err := r.list(mode, gamma)
	if err != nil {
		return nil, err
	}
	return l[:min(k, len(l))], nil
}

// checkPoint counts point reads whose answer differs from LocalSearch's.
func checkPoint(results []result, ref *refs) (failed int, err error) {
	want := map[[2]int]uint32{}
	for _, r := range results {
		key := [2]int{r.op.k, r.op.gamma}
		d, ok := want[key]
		if !ok {
			comms, err := ref.topk("core", r.op.gamma, r.op.k)
			if err != nil {
				return 0, err
			}
			d = digest(comms, false, false)
			want[key] = d
		}
		if r.status != http.StatusOK || len(r.digests) != 1 || r.digests[0] != d {
			failed++
		}
	}
	return failed, nil
}

// applyFilter runs one DSL filter over comms the way the DSL defines it;
// nonNil tracks whether the list would encode as [] rather than null.
func applyFilter(f batchFilter, comms []refComm, nonNil bool) ([]refComm, bool) {
	if f.name == "limit" {
		return comms[:min(f.n, len(comms))], nonNil
	}
	var kept []refComm
	for _, c := range comms {
		if (f.name == "size>=" && c.size >= f.n) || (f.name == "size<=" && c.size <= f.n) {
			kept = append(kept, c)
		}
	}
	return kept, true
}

// checkBatch counts batches with a plan node whose filtered communities
// differ from LocalSearch plus the same filter. A statement over a γ
// range answers one node per γ, ascending.
func checkBatch(results []result, ref *refs) (failed int, err error) {
	want := map[string]uint32{}
	for _, r := range results {
		b := r.op.batch
		var expect []uint32
		for _, st := range b.statements {
			for gamma := st.src.gammaLo; gamma <= st.src.gammaHi; gamma++ {
				key := fmt.Sprintf("%s|%s|%d|%d|%v", b.dataset, st.src.mode, gamma, st.src.k, st.filter)
				d, ok := want[key]
				if !ok {
					comms, err := ref.topk(st.src.mode, gamma, st.src.k)
					if err != nil {
						return 0, err
					}
					fc, nonNil := applyFilter(st.filter, comms, len(comms) > 0)
					d = digest(fc, b.dataset == diskDataset, nonNil)
					want[key] = d
				}
				expect = append(expect, d)
			}
		}
		if r.status != http.StatusOK || !equalDigests(r.digests, expect) {
			failed++
		}
	}
	return failed, nil
}

func equalDigests(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// updateReply is the part of an update response the churn check reads.
type updateReply struct {
	Inserted      int    `json:"inserted"`
	Deleted       int    `json:"deleted"`
	Skipped       int    `json:"skipped"`
	SnapshotEpoch uint64 `json:"snapshot_epoch"`
	Index         string `json:"index"`
}

// ackedWrite is an update batch a shard acknowledged, with the epoch it
// published.
type ackedWrite struct {
	epoch uint64
	w     *writeOp
}

// checkWrites counts update batches that failed or did not apply every
// op, and returns the acknowledged ones per shard in epoch order.
func checkWrites(results []result) (failed int, acked [][]ackedWrite) {
	acked = make([][]ackedWrite, shards)
	for _, r := range results {
		if r.op.kind != opWrite {
			continue
		}
		var rep updateReply
		if r.status != http.StatusOK || json.Unmarshal(r.body, &rep) != nil {
			failed++
			continue
		}
		w := r.op.write
		acked[w.shard] = append(acked[w.shard], ackedWrite{rep.SnapshotEpoch, w})
		if rep.Inserted != len(w.inserts) || rep.Deleted != len(w.deletes) || rep.Skipped != 0 {
			failed++
		}
	}
	for _, a := range acked {
		sort.Slice(a, func(i, j int) bool { return a[i].epoch < a[j].epoch })
	}
	return failed, acked
}

// replayShard applies a shard's acknowledged batches, in epoch order, to
// its base graph, rebuilding the result from the edge list so the replay
// shares no code with the servers' incremental delta.
func replayShard(base *graph.Graph, acked []ackedWrite) (*graph.Graph, error) {
	edges := map[[2]int32]bool{}
	for u := int32(0); int(u) < base.NumVertices(); u++ {
		for _, v := range base.UpNeighbors(u) {
			edges[[2]int32{v, u}] = true
		}
	}
	for _, a := range acked {
		for _, e := range a.w.inserts {
			edges[e] = true
		}
		for _, e := range a.w.deletes {
			delete(edges, e)
		}
	}
	list := make([][2]int32, 0, len(edges))
	for e := range edges {
		list = append(list, e)
	}
	return graph.FromEdges(base.Weights(), list)
}

// churnProbes are the (k, γ) queries the churn check asks every shard and
// the coordinator once writes have stopped.
func churnProbes() [][2]int {
	var out [][2]int
	for gamma := gammaMin; gamma <= gammaMax; gamma += 2 {
		out = append(out, [2]int{20, gamma})
	}
	return out
}

// mergeRefs merges per-shard reference lists the way the coordinator
// does: highest influence first, ties to the smaller keynode, then to the
// earlier shard.
func mergeRefs(lists [][]refComm, k int) []refComm {
	var out []refComm
	pos := make([]int, len(lists))
	for len(out) < k {
		best := -1
		for i, l := range lists {
			if pos[i] >= len(l) {
				continue
			}
			h := l[pos[i]]
			if best < 0 || h.influence > lists[best][pos[best]].influence ||
				(h.influence == lists[best][pos[best]].influence && h.keynode < lists[best][pos[best]].keynode) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, lists[best][pos[best]])
		pos[best]++
	}
	return out
}

// checkChurn probes each shard and the coordinator after the window and
// compares their answers with LocalSearch on the replayed shards. It
// returns the probes sent and how many failed.
func checkChurn(ctx context.Context, st *stack, acked [][]ackedWrite) (attempted, failed int, err error) {
	probes := churnProbes()
	shardRefs := make([]*refs, shards)
	for i := range shardRefs {
		base, err := graph.LoadFile(shardGraph(st.graph, i))
		if err != nil {
			return 0, 0, err
		}
		g, err := replayShard(base, acked[i])
		if err != nil {
			return 0, 0, fmt.Errorf("replaying shard %d: %w", i, err)
		}
		shardRefs[i] = newRefs(g, readKMax, 0)
	}
	c := newClient(st.bases())
	defer c.close()
	ask := func(target int, path string, want []refComm) {
		attempted++
		r := c.do(ctx, op{kind: opRead, method: "GET", path: path, target: target})
		if r.status != http.StatusOK || len(r.digests) != 1 || r.digests[0] != digest(want, true, false) {
			failed++
		}
	}
	for _, p := range probes {
		k, gamma := p[0], p[1]
		lists := make([][]refComm, shards)
		for i, ref := range shardRefs {
			if lists[i], err = ref.topk("core", gamma, k); err != nil {
				return 0, 0, err
			}
			ask(1+i, topkPath(k, gamma)+"&dataset=dyn", lists[i])
		}
		ask(0, topkPath(k, gamma), mergeRefs(lists, k))
	}
	return attempted, failed, nil
}
