package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"testing/quick"
)

func TestTextRoundTrip(t *testing.T) {
	g := small(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	assertSameGraph(t, g, g2)
}

func TestBinaryRoundTrip(t *testing.T) {
	g := small(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	assertSameGraph(t, g, g2)
}

func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape (%d,%d) vs (%d,%d)", a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for u := int32(0); int(u) < a.NumVertices(); u++ {
		if a.Weight(u) != b.Weight(u) {
			t.Fatalf("weight of rank %d: %v vs %v", u, a.Weight(u), b.Weight(u))
		}
		if a.OrigID(u) != b.OrigID(u) {
			t.Fatalf("origID of rank %d: %d vs %d", u, a.OrigID(u), b.OrigID(u))
		}
		na, nb := a.Neighbors(u), b.Neighbors(u)
		if len(na) != len(nb) {
			t.Fatalf("degree of rank %d: %d vs %d", u, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("adjacency of rank %d differs at %d", u, i)
			}
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("round-tripped graph invalid: %v", err)
	}
}

// TestRoundTripProperty uses testing/quick to round-trip random graphs
// through both formats.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, edgesRaw uint16) bool {
		n := int(nRaw%40) + 2
		m := int64(edgesRaw % 200)
		g := randomGraph(t, n, m, seed)
		var tb, bb bytes.Buffer
		if err := WriteText(&tb, g); err != nil {
			return false
		}
		gt, err := ReadText(&tb)
		if err != nil {
			return false
		}
		if err := WriteBinary(&bb, g); err != nil {
			return false
		}
		gb, err := ReadBinary(&bb)
		if err != nil {
			return false
		}
		return gt.NumEdges() == g.NumEdges() && gb.NumEdges() == g.NumEdges() &&
			gt.Validate() == nil && gb.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomGraph builds a small pseudo-random graph without importing gen
// (which would create an import cycle with this package's tests).
func randomGraph(t testing.TB, n int, m int64, seed uint64) *Graph {
	t.Helper()
	var b Builder
	state := seed | 1
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for id := 0; id < n; id++ {
		b.AddVertex(int32(id), float64(next()%100000))
	}
	for i := int64(0); i < m; i++ {
		u := int32(next() % uint64(n))
		v := int32(next() % uint64(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("randomGraph: %v", err)
	}
	return g
}

func TestReadTextBareEdges(t *testing.T) {
	in := "4 3\n0 1\n1 2\n2 3\n"
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Errorf("got (%d,%d), want (4,3)", g.NumVertices(), g.NumEdges())
	}
}

func TestReadTextComments(t *testing.T) {
	in := "# a comment\nv 0 5\nv 1 3\n\ne 0 1\n"
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Errorf("got (%d,%d), want (2,1)", g.NumVertices(), g.NumEdges())
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",                     // empty
		"v 0\n",                // malformed vertex
		"v x 1\n",              // bad ID
		"v 0 zero\n",           // bad weight
		"v 0 1\ne 0\n",         // malformed edge
		"v 0 1\ne a b\n",       // bad endpoints
		"v 0 1\nz what is\n",   // unknown line
		"v 0 1\n0 1 2 3 4 5\n", // too many fields
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("ReadText(%q): want error", in)
		}
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Error("empty input: want error")
	}
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 40))); err == nil {
		t.Error("zero magic: want error")
	}
	// Truncated file: valid header, missing payload.
	g := small(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input: want error")
	}
	// Images WriteBinary wrote and a patch corrupted: each breaks one
	// validation rule of the edge file, which .bin files share.
	for _, tc := range corruptBinaryImages(t) {
		if _, err := ReadBinary(bytes.NewReader(tc.image)); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	if _, err := ReadBinary(bytes.NewReader(emptyBinaryImage(t))); !errors.Is(err, ErrNoVertices) {
		t.Errorf("n = 0 header: got %v, want ErrNoVertices", err)
	}
}

// cliqueImage is WriteBinary's image of the 4-clique with weights 4, 3, 2
// and 1, so rank r has weight 4-r and up-list [0, r). The image ends with
// rank 3's up-list [0 1 2].
func cliqueImage(t testing.TB) []byte {
	t.Helper()
	g := MustFromEdges([]float64{4, 3, 2, 1}, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptBinaryImages returns cliqueImage patched to break one rule each.
func corruptBinaryImages(t testing.TB) []struct {
	name  string
	image []byte
} {
	le := binary.LittleEndian
	patch := func(f func(b []byte)) []byte {
		b := cliqueImage(t)
		f(b)
		return b
	}
	const weightAt = 20 // the weight section follows the 20-byte header
	upList := func(b []byte, vs ...uint32) {
		at := len(b) - 4*len(vs)
		for i, v := range vs {
			le.PutUint32(b[at+4*i:], v)
		}
	}
	return []struct {
		name  string
		image []byte
	}{
		{"NaN weight at rank 2", patch(func(b []byte) { le.PutUint64(b[weightAt+8*2:], math.Float64bits(math.NaN())) })},
		{"+Inf weight at rank 0", patch(func(b []byte) { le.PutUint64(b[weightAt:], math.Float64bits(math.Inf(1))) })},
		{"descending up-list", patch(func(b []byte) { upList(b, 2, 1, 0) })},
		{"duplicate up-neighbour", patch(func(b []byte) { upList(b, 0, 1, 1) })},
	}
}

// emptyBinaryImage is a bare header that claims no vertices and no edges.
func emptyBinaryImage(t testing.TB) []byte {
	b := cliqueImage(t)[:20]
	binary.LittleEndian.PutUint64(b[4:], 0)
	binary.LittleEndian.PutUint64(b[12:], 0)
	return b
}
