package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"influcomm/internal/core"
	"influcomm/internal/graph"
)

const (
	indexMagic = uint32(0x1C91DE3A)
	// indexVersion is the on-disk format version. Bump it whenever the
	// layout changes; ReadFrom rejects any other version so a server never
	// silently misinterprets an index written by a different build.
	indexVersion = uint32(1)
)

// WriteTo serializes the index's materialized sequences (not the graph —
// an index is only valid together with the exact graph and weight vector
// it was built from, which callers persist separately). The layout is
// little-endian uint32s: magic, version, vertex count, γmax, then for each
// γ the key count, sequence length, keys, group offsets, and sequence.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	le := binary.LittleEndian
	put32 := func(v uint32) error {
		var buf [4]byte
		le.PutUint32(buf[:], v)
		n, err := bw.Write(buf[:])
		written += int64(n)
		return err
	}
	if err := put32(indexMagic); err != nil {
		return written, err
	}
	if err := put32(indexVersion); err != nil {
		return written, err
	}
	if err := put32(uint32(ix.g.NumVertices())); err != nil {
		return written, err
	}
	if err := put32(uint32(ix.gammaMax)); err != nil {
		return written, err
	}
	for _, c := range ix.perGamma {
		if err := put32(uint32(len(c.Keys))); err != nil {
			return written, err
		}
		if err := put32(uint32(len(c.Seq))); err != nil {
			return written, err
		}
		for _, k := range c.Keys {
			if err := put32(uint32(k)); err != nil {
				return written, err
			}
		}
		for _, p := range c.KeyPos {
			if err := put32(uint32(p)); err != nil {
				return written, err
			}
		}
		for _, v := range c.Seq {
			if err := put32(uint32(v)); err != nil {
				return written, err
			}
		}
	}
	return written, bw.Flush()
}

// ReadFrom deserializes an index previously written with WriteTo, binding
// it to g. It validates the magic, the format version, and that the vertex
// count matches g; deeper consistency (same weights, same edges) is the
// caller's responsibility, exactly the fragility the paper attributes to
// index-based approaches. Corrupt or truncated input returns an error,
// never a panic, and every structural invariant EnumIC relies on is
// re-checked before the index is accepted.
func ReadFrom(r io.Reader, g *graph.Graph) (*Index, error) {
	if g == nil {
		return nil, errors.New("index: nil graph")
	}
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var buf [4]byte
	get32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return le.Uint32(buf[:]), nil
	}
	magic, err := get32()
	if err != nil {
		return nil, fmt.Errorf("index: reading header: %w", err)
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("index: bad magic %#x (not an index file)", magic)
	}
	version, err := get32()
	if err != nil {
		return nil, fmt.Errorf("index: reading version: %w", err)
	}
	if version != indexVersion {
		return nil, fmt.Errorf("index: unsupported format version %d (this build reads version %d)", version, indexVersion)
	}
	n, err := get32()
	if err != nil {
		return nil, err
	}
	if int(n) != g.NumVertices() {
		return nil, fmt.Errorf("index: stale index: built for %d vertices, graph has %d (rebuild with icindex)", n, g.NumVertices())
	}
	gmaxRaw, err := get32()
	if err != nil {
		return nil, err
	}
	// γmax is bounded by the maximum degree, hence by n; anything larger
	// is a corrupt or hostile header.
	if gmaxRaw > math.MaxInt32 || int64(gmaxRaw) > int64(g.NumVertices()) {
		return nil, fmt.Errorf("index: implausible gammaMax %d for %d vertices", gmaxRaw, g.NumVertices())
	}
	ix := &Index{g: g, pool: core.NewPool(g), gammaMax: int32(gmaxRaw), perGamma: make([]*core.CVS, gmaxRaw)}
	for gi := range ix.perGamma {
		nk, err := get32()
		if err != nil {
			return nil, fmt.Errorf("index: reading γ=%d header: %w", gi+1, err)
		}
		ns, err := get32()
		if err != nil {
			return nil, err
		}
		if int64(ns) > int64(g.NumVertices()) || int64(nk) > int64(ns)+1 {
			return nil, fmt.Errorf("index: implausible sizes for γ=%d (keys=%d seq=%d)", gi+1, nk, ns)
		}
		c := &core.CVS{
			P:      g.NumVertices(),
			Keys:   make([]int32, nk),
			KeyPos: make([]int32, nk+1),
			Seq:    make([]int32, ns),
		}
		for i := range c.Keys {
			v, err := get32()
			if err != nil {
				return nil, fmt.Errorf("index: truncated reading γ=%d keynodes: %w", gi+1, err)
			}
			if v >= n {
				return nil, fmt.Errorf("index: γ=%d keynode %d out of range", gi+1, v)
			}
			c.Keys[i] = int32(v)
		}
		for i := range c.KeyPos {
			v, err := get32()
			if err != nil {
				return nil, fmt.Errorf("index: truncated reading γ=%d group offsets: %w", gi+1, err)
			}
			if int64(v) > int64(ns) || (i > 0 && int32(v) < c.KeyPos[i-1]) {
				return nil, fmt.Errorf("index: γ=%d group offsets corrupt", gi+1)
			}
			c.KeyPos[i] = int32(v)
		}
		if len(c.KeyPos) > 0 && (c.KeyPos[0] != 0 || int(c.KeyPos[len(c.KeyPos)-1]) != len(c.Seq)) {
			return nil, fmt.Errorf("index: γ=%d group offsets do not span the sequence", gi+1)
		}
		for i := range c.Seq {
			v, err := get32()
			if err != nil {
				return nil, fmt.Errorf("index: truncated reading γ=%d sequence: %w", gi+1, err)
			}
			if v >= n {
				return nil, fmt.Errorf("index: γ=%d sequence vertex %d out of range", gi+1, v)
			}
			c.Seq[i] = int32(v)
		}
		// Every group must be non-empty and begin with its keynode
		// (Algorithm 2 invariant); EnumIC depends on it. The non-empty
		// check also keeps the Seq index in bounds for crafted files whose
		// offsets park a group at the end of the sequence.
		for j := range c.Keys {
			if c.KeyPos[j] >= c.KeyPos[j+1] {
				return nil, fmt.Errorf("index: γ=%d group %d is empty", gi+1, j)
			}
			if c.Seq[c.KeyPos[j]] != c.Keys[j] {
				return nil, fmt.Errorf("index: γ=%d group %d does not start with its keynode", gi+1, j)
			}
		}
		ix.perGamma[gi] = c
	}
	return ix, nil
}

// Load opens path and reads an index bound to g: the path-based loader
// shared by the public API (LoadIndex) and the server's admin endpoints,
// so validation and error text cannot drift between the two.
func Load(path string, g *graph.Graph) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(f, g)
}
