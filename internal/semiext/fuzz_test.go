package semiext

import (
	"os"
	"path/filepath"
	"testing"

	"influcomm/internal/gen"
)

// FuzzEdgeFile feeds arbitrary bytes to the edge-file decoder: ViewFromBytes
// (the same validation OpenView applies) must either reject the input or
// hand back a View whose adjacency decodes identically at any worker
// count — no panics, no over-reads, exactly the edge count the header
// claims. Whenever the decoded image assembles into a graph, the writer
// must re-encode that graph into a file the View decodes to the same
// adjacency.
func FuzzEdgeFile(f *testing.F) {
	addEdgeFileSeeds(f, func(seed uint64) int { return 20 + int(seed)*7 }, 3)
	f.Add([]byte{})
	f.Add([]byte{0x5a, 0xe5, 0xdb, 0x5e})
	f.Add([]byte{0x5b, 0xe5, 0xdb, 0x5e})

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := ViewFromBytes(data)
		if err != nil {
			return // rejected, fine
		}
		n, m := v.NumVertices(), v.NumEdges()
		adj, err := v.AdjPrefix(n, m, 1, nil)
		par, perr := v.AdjPrefix(n, m, 4, nil)
		if (err == nil) != (perr == nil) {
			t.Fatalf("decode worker count changes acceptance: 1 worker err %v, 4 workers err %v", err, perr)
		}
		if err != nil {
			if v.Format() == FormatV1 {
				t.Fatalf("v1 adjacency read failed on an accepted image: %v", err)
			}
			return // corrupt v2 payload, detected by the decoder
		}
		if int64(len(adj)) != m {
			t.Fatalf("decoded %d entries, header claims %d", len(adj), m)
		}
		for i := range adj {
			if par[i] != adj[i] {
				t.Fatalf("decode differs between worker counts at entry %d", i)
			}
		}
		if v.Format() == FormatV1 && v.payloadSpan(n) != 4*m {
			t.Fatalf("payload span = %d, want %d", v.payloadSpan(n), 4*m)
		}
		g, err := v.Graph(1)
		if err != nil {
			return // entries out of range or out of order, rejected at assembly
		}
		path := filepath.Join(t.TempDir(), "re.edges")
		if err := WriteEdgeFileFormat(path, g, v.Format()); err != nil {
			t.Fatalf("re-encoding an accepted image: %v", err)
		}
		rv, err := OpenView(path)
		if err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		defer rv.Close()
		if rv.NumVertices() != n || rv.NumEdges() != m {
			t.Fatalf("re-encoded shape (%d,%d), want (%d,%d)", rv.NumVertices(), rv.NumEdges(), n, m)
		}
		for u := 0; u < n; u++ {
			if rv.Weights()[u] != v.Weights()[u] || rv.UpDegrees()[u] != v.UpDegrees()[u] {
				t.Fatalf("re-encoded per-vertex state differs at %d", u)
			}
		}
		re, err := rv.AdjPrefix(n, m, 1, nil)
		if err != nil {
			t.Fatalf("decoding the re-encoded image: %v", err)
		}
		for i := range adj {
			if re[i] != adj[i] {
				t.Fatalf("re-encoded adjacency differs at entry %d", i)
			}
		}
	})
}

// addEdgeFileSeeds adds, for seeds 1..3, the edge file of a random graph
// on size(seed) vertices in each format: whole, cut to its 20-byte fixed
// header, and short by cut bytes.
func addEdgeFileSeeds(f *testing.F, size func(seed uint64) int, cut int) {
	seedDir := f.TempDir()
	for seed := uint64(1); seed <= 3; seed++ {
		g := gen.Random(size(seed), 4, seed)
		for _, format := range []int{FormatV1, FormatV2} {
			path := filepath.Join(seedDir, "seed.edges")
			if err := WriteEdgeFileFormat(path, g, format); err != nil {
				f.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			f.Add(data[:20])
			f.Add(data[:len(data)-cut])
		}
	}
}

// FuzzVarintAdjacency exercises the v2 codec directly, below the file
// format: adjacency lists derived from the fuzz input must survive the
// encode→decode round trip exactly (full-range and per-block decodes,
// through the group fast path and the byte-at-a-time slow path), and
// feeding arbitrary bytes to the bulk decoder must produce an error or a
// structurally valid adjacency — never a panic or an out-of-bounds write.
func FuzzVarintAdjacency(f *testing.F) {
	f.Add([]byte{0xff, 0x0f, 0xa0, 0x55}, uint16(40), uint8(3))
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, uint16(9), uint8(7))

	f.Fuzz(func(t *testing.T, data []byte, nRaw uint16, bvRaw uint8) {
		n := int(nRaw) % 200
		bv := int(bvRaw)%8 + 1
		nb := (n + bv - 1) / bv

		// Derive strictly ascending lists in [0, u) from the input bits.
		bit := 0
		takeBit := func() bool {
			if bit/8 >= len(data) {
				bit++
				return false
			}
			b := data[bit/8]>>(uint(bit)%8)&1 == 1
			bit++
			return b
		}
		upDeg := make([]int32, n)
		lists := make([][]int32, n)
		for u := 0; u < n; u++ {
			for v := 0; v < u; v++ {
				if takeBit() {
					lists[u] = append(lists[u], int32(v))
				}
			}
			upDeg[u] = int32(len(lists[u]))
		}

		blockOff := make([]int64, nb+1)
		var payload []byte
		var total int
		for u := 0; u < n; u++ {
			if u%bv == 0 {
				blockOff[u/bv] = int64(len(payload))
			}
			before := len(payload)
			var err error
			payload, err = appendEncodedList(payload, int32(u), lists[u])
			if err != nil {
				t.Fatalf("encoding valid list of vertex %d: %v", u, err)
			}
			if got := len(payload) - before; got != encodedListLen(lists[u]) {
				t.Fatalf("vertex %d: encoded %d bytes, sizing pass predicted %d", u, got, encodedListLen(lists[u]))
			}
			total += len(lists[u])
		}
		blockOff[nb] = int64(len(payload))

		check := func(got []int32, u0, u1 int32) {
			i := 0
			for u := u0; u < u1; u++ {
				for _, v := range lists[u] {
					if got[i] != v {
						t.Fatalf("decoded adjacency differs at vertex %d", u)
					}
					i++
				}
			}
		}
		dst := make([]int32, total)
		consumed, err := decodeAdjRange(dst, payload, upDeg, 0, int32(n), bv, blockOff, 0)
		if err != nil {
			t.Fatalf("decoding freshly encoded payload: %v", err)
		}
		if consumed != int64(len(payload)) {
			t.Fatalf("decode consumed %d of %d payload bytes", consumed, len(payload))
		}
		check(dst, 0, int32(n))
		// Every block decodes independently from its indexed offset — the
		// contract the parallel prefix decode is built on.
		for b := 0; b < nb; b++ {
			u0, u1 := int32(b*bv), int32((b+1)*bv)
			if int(u1) > n {
				u1 = int32(n)
			}
			var cnt int32
			for u := u0; u < u1; u++ {
				cnt += upDeg[u]
			}
			part := make([]int32, cnt)
			if _, err := decodeAdjRange(part, payload[blockOff[b]:blockOff[b+1]], upDeg, u0, u1, bv, blockOff, blockOff[b]); err != nil {
				t.Fatalf("decoding block %d alone: %v", b, err)
			}
			check(part, u0, u1)
		}

		// Arbitrary bytes as payload: error or valid output, never a panic.
		if n > 0 {
			garbage := append([]byte(nil), data...)
			if int64(len(garbage)) > blockOff[nb] {
				garbage = garbage[:blockOff[nb]]
			}
			gOff := append([]int64(nil), blockOff...)
			gOff[nb] = int64(len(garbage))
			if _, err := decodeAdjRange(dst, garbage, upDeg, 0, int32(n), bv, gOff, 0); err == nil {
				i := 0
				for u := 0; u < n; u++ {
					prev := int32(-1)
					for j := int32(0); j < upDeg[u]; j++ {
						if dst[i] <= prev || dst[i] >= int32(u) {
							t.Fatalf("accepted garbage decoded invalid entry %d for vertex %d", dst[i], u)
						}
						prev = dst[i]
						i++
					}
				}
			}
		}
	})
}
