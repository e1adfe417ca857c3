package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// binMagic identifies the binary graph format written by WriteBinary.
const binMagic = uint32(0x1C0FFEE1)

// WriteBinary serializes g in a compact little-endian binary format that
// preserves the rank order, weights and adjacency exactly.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	var hdr [20]byte
	le.PutUint32(hdr[0:], binMagic)
	le.PutUint64(hdr[4:], uint64(g.n))
	le.PutUint64(hdr[12:], uint64(g.m))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [8]byte
	for u := 0; u < g.n; u++ {
		le.PutUint64(buf[:], math.Float64bits(g.weights[u]))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	for u := 0; u < g.n; u++ {
		le.PutUint32(buf[:4], uint32(g.OrigID(int32(u))))
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
	}
	for u := 0; u < g.n; u++ {
		le.PutUint32(buf[:4], uint32(g.upDeg[u]))
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
	}
	for u := int32(0); int(u) < g.n; u++ {
		for _, v := range g.UpNeighbors(u) {
			le.PutUint32(buf[:4], uint32(v))
			if _, err := bw.Write(buf[:4]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary parses the format produced by WriteBinary: the v1 edge file's
// sections plus the original-ID vector. It assembles the graph through
// FromUpAdjacency, so a .bin file passes the same validation as an edge
// file (finite, non-increasing weights; up-lists strictly ascending below
// their owner; degrees summing to m), and then attaches the IDs.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var hdr [20]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading binary header: %w", err)
	}
	if le.Uint32(hdr[0:]) != binMagic {
		return nil, fmt.Errorf("graph: bad magic %#x in binary graph", le.Uint32(hdr[0:]))
	}
	n := int64(le.Uint64(hdr[4:]))
	m := int64(le.Uint64(hdr[12:]))
	if n < 0 || m < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: implausible binary header n=%d m=%d", n, m)
	}
	weights, err := readSection(br, n, 8, "weights", func(b []byte) float64 { return math.Float64frombits(le.Uint64(b)) })
	if err != nil {
		return nil, err
	}
	int32At := func(b []byte) int32 { return int32(le.Uint32(b)) }
	origID, err := readSection(br, n, 4, "original IDs", int32At)
	if err != nil {
		return nil, err
	}
	upDeg, err := readSection(br, n, 4, "up-degrees", int32At)
	if err != nil {
		return nil, err
	}
	upAdj, err := readSection(br, m, 4, "adjacency", int32At)
	if err != nil {
		return nil, err
	}
	g, err := FromUpAdjacency(weights, upDeg, upAdj, nil)
	if err != nil {
		return nil, err
	}
	g.origID = origID
	return g, nil
}

// readSection decodes count fixed-width values of size bytes each. It
// reads and grows the result in bounded chunks, so a corrupt header
// claiming billions of entries fails at EOF instead of attempting a
// multi-gigabyte allocation up front.
func readSection[T any](r io.Reader, count int64, size int, what string, decode func([]byte) T) ([]T, error) {
	chunk := min(count, 1<<16)
	out := make([]T, 0, chunk)
	buf := make([]byte, chunk*int64(size))
	for left := count; left > 0; {
		b := buf[:min(left, chunk)*int64(size)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("graph: reading %s: %w", what, err)
		}
		for i := 0; i < len(b); i += size {
			out = append(out, decode(b[i:]))
		}
		left -= int64(len(b) / size)
	}
	return out, nil
}
