package graph

import (
	"bytes"
	"testing"
)

// FuzzReadText feeds arbitrary bytes to the text parser: it must either
// reject the input or produce a structurally valid graph, never panic.
func FuzzReadText(f *testing.F) {
	f.Add([]byte("v 0 1\nv 1 2\ne 0 1\n"))
	f.Add([]byte("3 2\n0 1\n1 2\n"))
	f.Add([]byte("# comment\nv 0 1e300\n"))
	f.Add([]byte("e 0 0\n"))
	f.Add([]byte("v -1 5\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph fails validation: %v", verr)
		}
	})
}

// FuzzReadBinary does the same for the binary parser, seeding with valid
// encodings and corruptions of them.
func FuzzReadBinary(f *testing.F) {
	g := MustFromEdges([]float64{3, 2, 1}, [][2]int32{{0, 1}, {1, 2}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	corrupt := append([]byte(nil), valid...)
	if len(corrupt) > 24 {
		corrupt[24] ^= 0xFF
	}
	f.Add(corrupt)
	f.Add([]byte{})
	for _, tc := range corruptBinaryImages(f) {
		f.Add(tc.image)
	}
	f.Add(emptyBinaryImage(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph fails validation: %v", verr)
		}
	})
}

// FuzzBuilderQuery stresses the whole pipeline: arbitrary edge bytes are
// decoded into a small graph and queried; nothing may panic and results
// must verify structurally.
func FuzzBuilderQuery(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0}, uint8(3))
	f.Add([]byte{0, 0, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, gammaRaw uint8) {
		var b Builder
		const n = 16
		for id := int32(0); id < n; id++ {
			b.AddVertex(id, float64(id*7%13))
		}
		for i := 0; i+1 < len(raw) && i < 200; i += 2 {
			b.AddEdge(int32(raw[i]%n), int32(raw[i+1]%n))
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("builder rejected in-range input: %v", err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("built graph invalid: %v", err)
		}
		// Exercise prefix arithmetic on every prefix.
		for p := 0; p <= g.NumVertices(); p++ {
			if got := g.PrefixForSize(g.PrefixSize(p)); got > p {
				t.Fatalf("PrefixForSize(PrefixSize(%d)) = %d > %d", p, got, p)
			}
		}
	})
}
