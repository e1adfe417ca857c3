package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"influcomm/internal/cluster"
)

func TestGraphFileIsAFunctionOfTheSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("generates three 100k-vertex graphs")
	}
	dir := t.TempDir()
	write := func(name string, seed uint64) []byte {
		p := filepath.Join(dir, name)
		if _, err := writeGraph(p, seed); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := write("a.bin", 5), write("b.bin", 5), write("c.bin", 6)
	if !bytes.Equal(a, b) {
		t.Error("two graphs from seed 5 differ")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 5 and 6 gave the same graph")
	}
}

// fakeShard is a shard with no edges, enough to drive the churn stream.
type fakeShard int

func (f fakeShard) NumVertices() int      { return int(f) }
func (fakeShard) HasEdge(u, v int32) bool { return false }

// streamBytes serializes the first n ops of every client's stream.
func streamBytes(workload string, seed uint64, n int) []byte {
	var buf bytes.Buffer
	shardList := []shardEdges{fakeShard(3600), fakeShard(3200), fakeShard(3200)}
	for c := 0; c < clients; c++ {
		s := newStream(workload, seed, c, clients, shardList)
		for i := 0; i < n; i++ {
			o := s.next()
			fmt.Fprintf(&buf, "%d %s %s %d %s\n", o.kind, o.method, o.path, o.target, o.body)
		}
	}
	return buf.Bytes()
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamBytes(w, 5, 2000), streamBytes(w, 5, 2000), streamBytes(w, 6, 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two streams from seed 5 differ", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 5 and 6 gave the same stream", w)
		}
	}
}

func TestChurnWritesStayOwnedAndLevel(t *testing.T) {
	shardList := []shardEdges{fakeShard(3600), fakeShard(3200), fakeShard(3200)}
	seen := map[[3]int32]int{}
	for c := 0; c < clients; c++ {
		s := newChurnStream(9, c, clients, shardList)
		live := map[[3]int32]bool{}
		heavy := 0
		for i := 0; i < 20000; i++ {
			o := s.next()
			if o.kind != opWrite {
				continue
			}
			w := o.write
			if w.heavy {
				heavy++
			}
			if len(w.inserts) != churnBatchOps {
				t.Fatalf("batch with %d inserts", len(w.inserts))
			}
			n := shardList[w.shard].NumVertices()
			for _, e := range w.inserts {
				k := [3]int32{int32(w.shard), e[0], e[1]}
				if prev, ok := seen[k]; ok {
					t.Fatalf("edge %v inserted by clients %d and %d", k, prev, c)
				}
				seen[k] = c
				live[k] = true
				if !w.heavy && int(e[0]) < n-int(lightFraction*float64(n)) {
					t.Fatalf("light batch touches rank %d of %d", e[0], n)
				}
			}
			for _, e := range w.deletes {
				k := [3]int32{int32(w.shard), e[0], e[1]}
				if !live[k] {
					t.Fatalf("delete of %v, which this client does not hold", k)
				}
				delete(live, k)
			}
		}
		if heavy == 0 {
			t.Errorf("client %d: no heavy batch", c)
		}
	}
}

func TestDigestMatchesServerEncoding(t *testing.T) {
	comms := []cluster.Community{
		{Influence: 0.5, Size: 2, Keynode: 4, Members: []int32{4, 9}},
		{Influence: 1.0 / 3, Size: 3, Keynode: 1, Members: []int32{1, 2, 3}},
	}
	var refsList []refComm
	for _, c := range comms {
		b, _ := json.Marshal(c)
		refsList = append(refsList, refComm{rank: b, orig: b})
	}
	body, _ := json.Marshal(map[string]any{"k": 2, "communities": comms, "more": map[string]any{"communities": nil}})
	got := communityDigests(body, nil)
	want := []uint32{digest(refsList, true, true), crc32.Checksum([]byte("null"), castagnoli)}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("digests %v, want %v", got, want)
	}
	if digest(nil, false, false) != want[1] {
		t.Error("empty reference list should digest as null")
	}
}
