package semiext

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"influcomm/internal/core"
	"influcomm/internal/gen"
	"influcomm/internal/graph"
)

func writeTempFormat(t *testing.T, g *graph.Graph, format int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("graph.v%d.edges", format))
	if err := WriteEdgeFileFormat(path, g, format); err != nil {
		t.Fatalf("writing v%d edge file: %v", format, err)
	}
	return path
}

// flatUpAdj is the reference adjacency: every vertex's up-neighbor list in
// rank order, concatenated.
func flatUpAdj(g *graph.Graph) []int32 {
	var flat []int32
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		flat = append(flat, g.UpNeighbors(u)...)
	}
	return flat
}

func TestEdgeFileV2RoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := gen.Random(80+int(seed)*31, 6, seed)
		path := writeTempFormat(t, g, FormatV2)
		want := flatUpAdj(g)

		v, err := OpenView(path)
		if err != nil {
			t.Fatalf("seed %d: open view: %v", seed, err)
		}
		if v.Format() != FormatV2 {
			t.Fatalf("seed %d: view format = %d, want %d", seed, v.Format(), FormatV2)
		}
		if v.NumVertices() != g.NumVertices() || v.NumEdges() != g.NumEdges() {
			t.Fatalf("seed %d: header (%d,%d), want (%d,%d)",
				seed, v.NumVertices(), v.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		for u := int32(0); int(u) < g.NumVertices(); u++ {
			if v.Weights()[u] != g.Weight(u) || v.UpDegrees()[u] != g.UpDegree(u) {
				t.Fatalf("seed %d: per-vertex state differs at %d", seed, u)
			}
		}
		if v.ZeroCopy() {
			t.Fatalf("seed %d: v2 view claims zero-copy adjacency", seed)
		}
		if _, err := v.Adj(0, v.NumEdges(), nil); err == nil {
			t.Fatalf("seed %d: Adj over v2: want error (no per-edge offsets)", seed)
		}
		got, err := v.AdjPrefix(v.NumVertices(), v.NumEdges(), 1, nil)
		if err != nil {
			t.Fatalf("seed %d: AdjPrefix: %v", seed, err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: decoded %d entries, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: view adjacency differs at %d", seed, i)
			}
		}
		// Partial prefixes, including ones not aligned to the block granule.
		for _, p := range []int{0, 1, g.NumVertices() / 3, g.NumVertices() / 2} {
			e := g.PrefixEdges(p)
			sub, err := v.AdjPrefix(p, e, 1, nil)
			if err != nil {
				t.Fatalf("seed %d: AdjPrefix(%d): %v", seed, p, err)
			}
			for i := range sub {
				if sub[i] != want[i] {
					t.Fatalf("seed %d: prefix %d adjacency differs at %d", seed, p, i)
				}
			}
		}
		// A wrong edge count for the prefix must be rejected, not trusted.
		if _, err := v.AdjPrefix(g.NumVertices()/2, g.PrefixEdges(g.NumVertices()/2)+1, 1, nil); err == nil {
			t.Fatalf("seed %d: AdjPrefix with wrong edge count accepted", seed)
		}
		rebuilt, err := graph.FromUpAdjacency(v.Weights(), v.UpDegrees(), got, nil)
		if err != nil {
			t.Fatalf("seed %d: rebuild: %v", seed, err)
		}
		if err := rebuilt.Validate(); err != nil {
			t.Fatalf("seed %d: rebuilt graph invalid: %v", seed, err)
		}
		v.Close()
	}
}

func TestAdjPrefixWorkersAgree(t *testing.T) {
	// Large enough that the chunked decode path actually engages (the chunk
	// floor is minDecodeChunkEdges edges); community structure keeps the
	// group fast path busy too.
	g, err := gen.PlantedCommunities(40, 128, 0.4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []int{FormatV1, FormatV2} {
		path := writeTempFormat(t, g, format)
		v, err := OpenView(path)
		if err != nil {
			t.Fatal(err)
		}
		n := v.NumVertices()
		for _, p := range []int{n, n - 1, n / 2, defaultBlockVerts + 1, 17} {
			if p > n {
				continue
			}
			e := g.PrefixEdges(p)
			want, err := v.AdjPrefix(p, e, 1, nil)
			if err != nil {
				t.Fatalf("v%d AdjPrefix(%d) workers=1: %v", format, p, err)
			}
			for _, workers := range []int{2, 3, 4, 8} {
				got, err := v.AdjPrefix(p, e, workers, nil)
				if err != nil {
					t.Fatalf("v%d AdjPrefix(%d) workers=%d: %v", format, p, workers, err)
				}
				if len(got) != len(want) {
					t.Fatalf("v%d p=%d workers=%d: %d entries, want %d", format, p, workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("v%d p=%d workers=%d: entry %d differs", format, p, workers, i)
					}
				}
			}
		}
		v.Close()
	}
}

func TestEdgeFileV2Compression(t *testing.T) {
	// The acceptance bar: on a community-structured graph — the workload the
	// paper's algorithms target — v2 must be at least 3x smaller than v1.
	g, err := gen.PlantedCommunities(60, 192, 0.4, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p1 := filepath.Join(dir, "g.v1.edges")
	p2 := filepath.Join(dir, "g.v2.edges")
	if err := WriteEdgeFileFormat(p1, g, FormatV1); err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeFileFormat(p2, g, FormatV2); err != nil {
		t.Fatal(err)
	}
	s1, err := os.Stat(p1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := os.Stat(p2)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(s1.Size()) / float64(s2.Size())
	t.Logf("n=%d m=%d: v1=%d bytes, v2=%d bytes, ratio=%.2f",
		g.NumVertices(), g.NumEdges(), s1.Size(), s2.Size(), ratio)
	if ratio < 3 {
		t.Errorf("v2 compression ratio %.2f on clustered graph, want >= 3", ratio)
	}
}

func TestLocalSearchSEOverV2MatchesInMemory(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g := gen.Random(150, 6, seed)
		path := writeTempFormat(t, g, FormatV2)
		for _, k := range []int{1, 3, 8} {
			want, err := core.TopK(g, k, 3, core.Options{})
			if err != nil {
				t.Fatalf("in-memory: %v", err)
			}
			got, _, err := LocalSearchSE(path, k, 3)
			if err != nil {
				t.Fatalf("LocalSearchSE over v2: %v", err)
			}
			if len(got) != len(want.Communities) {
				t.Fatalf("seed %d k=%d: got %d communities, want %d", seed, k, len(got), len(want.Communities))
			}
			for i := range got {
				a := fmt.Sprintf("%d:%v", got[i].Keynode(), got[i].Vertices())
				b := fmt.Sprintf("%d:%v", want.Communities[i].Keynode(), want.Communities[i].Vertices())
				if a != b {
					t.Fatalf("seed %d k=%d: community %d differs\n got %s\nwant %s", seed, k, i, a, b)
				}
			}
		}
	}
}

// TestEdgeFileV2RejectsCorrupt replays v2-specific corruptions against the
// View: header damage is rejected at open, by both entry points, and
// payload damage when the adjacency is decoded, at any worker count.
func TestEdgeFileV2RejectsCorrupt(t *testing.T) {
	g := gen.Random(200, 6, 4)
	path := writeTempFormat(t, g, FormatV2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(g.NumVertices())
	degBytes := int64(binary.LittleEndian.Uint64(data[24:]))
	indexOff := 32 + 8*n + degBytes
	payloadOff := indexOff + 8*2 // n=200 < blockVerts: one block, two index entries

	openErrs := func(img []byte) (ferr, verr error) {
		bad := filepath.Join(t.TempDir(), "bad.edges")
		if err := os.WriteFile(bad, img, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ferr = OpenView(bad)
		_, verr = ViewFromBytes(img)
		return
	}

	atOpen := map[string]func([]byte){
		"zero block granule":   func(b []byte) { binary.LittleEndian.PutUint32(b[20:], 0) },
		"degree bytes lie":     func(b []byte) { binary.LittleEndian.PutUint64(b[24:], uint64(degBytes+1)) },
		"block index disorder": func(b []byte) { binary.LittleEndian.PutUint64(b[indexOff:], uint64(payloadOff)) },
		"payload shorter than index claims": func(b []byte) {
			binary.LittleEndian.PutUint64(b[indexOff+8:], uint64(len(b)))
		},
	}
	for name, mutate := range atOpen {
		img := append([]byte(nil), data...)
		mutate(img)
		ferr, verr := openErrs(img)
		if ferr == nil {
			t.Errorf("%s: OpenView accepted", name)
		}
		if verr == nil {
			t.Errorf("%s: ViewFromBytes accepted", name)
		}
	}
	// Truncation is caught at open by the size checks.
	ferr, verr := openErrs(data[:len(data)-3])
	if ferr == nil || verr == nil {
		t.Errorf("truncated: OpenView err %v, ViewFromBytes err %v; want both non-nil", ferr, verr)
	}

	// Payload corruption passes the header checks and must be caught when
	// the adjacency is actually decoded.
	img := append([]byte(nil), data...)
	img[len(img)-1] ^= 0x80 // last payload byte grows a continuation bit
	v, err := ViewFromBytes(img)
	if err != nil {
		t.Fatalf("view rejected image at open: %v", err)
	}
	for _, workers := range []int{1, 4} {
		if _, err := v.AdjPrefix(v.NumVertices(), v.NumEdges(), workers, nil); err == nil {
			t.Errorf("payload continuation bit: decode with %d workers accepted", workers)
		}
	}
}

// TestRecodeByteIdentical drives the decode→re-encode cycle both directions:
// converting a file to the other format and back reproduces the original
// byte for byte, so recoding is lossless by construction.
func TestRecodeByteIdentical(t *testing.T) {
	g, err := gen.PlantedCommunities(10, 40, 0.5, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	orig := map[int]string{
		FormatV1: filepath.Join(dir, "orig.v1.edges"),
		FormatV2: filepath.Join(dir, "orig.v2.edges"),
	}
	for f, p := range orig {
		if err := WriteEdgeFileFormat(p, g, f); err != nil {
			t.Fatal(err)
		}
	}
	recode := func(in string, format int, out string) {
		t.Helper()
		v, err := OpenView(in)
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		rg, err := v.Graph(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteEdgeFileFormat(out, rg, format); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ from, to int }{{FormatV1, FormatV2}, {FormatV2, FormatV1}} {
		mid := filepath.Join(dir, fmt.Sprintf("mid.%d to %d.edges", c.from, c.to))
		back := filepath.Join(dir, fmt.Sprintf("back.%d to %d.edges", c.from, c.to))
		recode(orig[c.from], c.to, mid)
		recode(mid, c.from, back)
		wantBytes, err := os.ReadFile(orig[c.from])
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := os.ReadFile(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantBytes, gotBytes) {
			t.Errorf("v%d -> v%d -> v%d round trip is not byte-identical", c.from, c.to, c.from)
		}
		midBytes, err := os.ReadFile(mid)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := os.ReadFile(orig[c.to])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(midBytes, direct) {
			t.Errorf("recoding v%d to v%d differs from writing v%d directly", c.from, c.to, c.to)
		}
	}
}
