package semiext

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"unsafe"

	"influcomm/internal/graph"
)

// hostLittleEndian reports whether int32 values can be reinterpreted
// directly from the little-endian file bytes. On big-endian hosts every
// access path falls back to the explicit bulk decoder.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// int32view reinterprets b (length a multiple of 4, 4-byte aligned) as
// []int32 without copying. Callers gate on hostLittleEndian.
func int32view(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// int32bytes is the inverse view: the raw bytes backing s. Used to pread
// file content directly into a caller's []int32 buffer on little-endian
// hosts, skipping the intermediate byte buffer.
func int32bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// DecodeInt32s bulk-decodes little-endian int32 values: dst[i] is read from
// src[4i:4i+4]. len(src) must be at least 4*len(dst). Converting whole
// adjacency runs at once is what replaces the seed's per-edge
// binary.LittleEndian.Uint32 loop on paths that cannot alias the mapping.
func DecodeInt32s(dst []int32, src []byte) {
	_ = src[:4*len(dst)]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// decodeFloat64s bulk-decodes little-endian float64 values.
func decodeFloat64s(dst []float64, src []byte) {
	_ = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// View is random access over an edge file with no per-query cost: the file
// is validated and its per-vertex vectors decoded once at open, and
// adjacency ranges are served as typed slices straight over a read-only
// memory mapping — no file opens, no buffered readers, no header re-parse,
// no per-edge decode loop on the query path. On platforms without the mmap
// path the same API is served by positioned ReaderAt reads plus the bulk
// decoder.
//
// A View is safe for concurrent use. Close unmaps the file; slices
// previously returned by Adj that alias the mapping must not be used after
// Close (the semi-external store refcounts queries to guarantee this).
type View struct {
	data []byte   // whole-file mapping, or the whole file for in-memory views; nil in ReaderAt mode
	f    *os.File // backing file; nil for in-memory views
	ra   io.ReaderAt

	n          int
	m          int64
	headerSize int64
	weights    []float64 // always decoded: the region is not 8-byte aligned
	upDeg      []int32   // aliases the mapping on little-endian v1 mmap builds
	// sizes[p] = size(G≥τ) = p + |E(G≥τ)| for the prefix [0, p): the
	// geometry LocalSearch's growth policy runs on, and the edge count
	// every prefix read is checked against.
	sizes []int64

	format     int     // FormatV1 or FormatV2
	blockVerts int     // v2: vertices per block-index granule
	blockOff   []int64 // v2: payload byte offset per block, plus total

	mapped bool // data came from mmapFile and needs munmap
}

// OpenView opens path as a View, memory-mapping it when the platform
// supports it and falling back to ReaderAt access otherwise.
func OpenView(path string) (*View, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("semiext: opening edge file: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("semiext: opening edge file: %w", err)
	}
	v := &View{f: f, ra: f}
	// On mmap failure — a platform without the fast path, or an unmappable
	// file (size overflow, exotic filesystem) — adjacency is served through
	// positioned reads instead of refusing a readable file.
	if data, merr := mmapFile(f, fi.Size()); merr == nil {
		v.data = data
		v.mapped = true
	}
	if err := v.parse(fi.Size()); err != nil {
		v.Close()
		return nil, err
	}
	return v, nil
}

// ViewFromBytes is a View over an edge-file image already in memory, with
// the same validation as OpenView; tests and the fuzzer drive the format
// through it without touching disk.
func ViewFromBytes(data []byte) (*View, error) {
	v := &View{data: data}
	if err := v.parse(int64(len(data))); err != nil {
		return nil, err
	}
	return v, nil
}

// parse validates the header and decodes the per-vertex vectors: the one
// header validator every edge-file access goes through. Adjacency entries
// are checked where they are decoded (decodeAdjRange for v2) and where
// they are assembled into a graph (graph.FromUpAdjacency for both).
func (v *View) parse(size int64) error {
	le := binary.LittleEndian
	var hdrBuf [20]byte
	hdr, err := v.bytes(0, 20, hdrBuf[:0])
	if err != nil {
		return fmt.Errorf("semiext: reading header: %w", err)
	}
	switch le.Uint32(hdr[0:]) {
	case fileMagic:
		v.format = FormatV1
	case fileMagic2:
		v.format = FormatV2
	default:
		return fmt.Errorf("semiext: bad magic %#x", le.Uint32(hdr[0:]))
	}
	v.n = int(le.Uint64(hdr[4:]))
	v.m = int64(le.Uint64(hdr[12:]))
	if v.n < 0 || v.m < 0 || int64(v.n) > math.MaxInt32 {
		return fmt.Errorf("semiext: implausible header n=%d m=%d", v.n, v.m)
	}
	var degBytes int64
	var nb int
	var weightsOff int64 = 20
	if v.format == FormatV1 {
		vecEnd := 20 + 12*int64(v.n)
		if size < vecEnd || (size-vecEnd)/4 < v.m {
			return fmt.Errorf("semiext: file holds %d bytes, too short for header n=%d m=%d", size, v.n, v.m)
		}
		v.headerSize = vecEnd
	} else {
		var extBuf [12]byte
		ext, err := v.bytes(20, 12, extBuf[:0])
		if err != nil {
			return fmt.Errorf("semiext: reading header: %w", err)
		}
		v.blockVerts = int(le.Uint32(ext[0:]))
		db := le.Uint64(ext[4:])
		if v.blockVerts < 1 {
			return fmt.Errorf("semiext: implausible v2 block granule %d", v.blockVerts)
		}
		if db > uint64(size) {
			return fmt.Errorf("semiext: file holds %d bytes, too short for %d degree bytes", size, db)
		}
		degBytes = int64(db)
		nb = (v.n + v.blockVerts - 1) / v.blockVerts
		rem := size - 32 - 8*int64(v.n)
		if rem < 0 || rem-degBytes < 0 || rem-degBytes-8*int64(nb+1) < v.m {
			return fmt.Errorf("semiext: file holds %d bytes, too short for header n=%d m=%d", size, v.n, v.m)
		}
		v.headerSize = 32 + 8*int64(v.n) + degBytes + 8*int64(nb+1)
		weightsOff = 32
	}

	wb, err := v.bytes(weightsOff, 8*int64(v.n), nil)
	if err != nil {
		return fmt.Errorf("semiext: reading weights: %w", err)
	}
	v.weights = make([]float64, v.n)
	decodeFloat64s(v.weights, wb)
	for i, w := range v.weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("semiext: vertex %d has non-finite weight %v", i, w)
		}
		if i > 0 && w > v.weights[i-1] {
			return fmt.Errorf("semiext: weights not in decreasing rank order at vertex %d", i)
		}
	}

	v.sizes = make([]int64, v.n+1)
	if v.format == FormatV1 {
		db, err := v.bytes(20+8*int64(v.n), 4*int64(v.n), nil)
		if err != nil {
			return fmt.Errorf("semiext: reading degrees: %w", err)
		}
		if v.data != nil && hostLittleEndian {
			v.upDeg = int32view(db)
		} else {
			v.upDeg = make([]int32, v.n)
			DecodeInt32s(v.upDeg, db)
		}
		for i, d := range v.upDeg {
			if d < 0 || int64(d) > int64(i) {
				return fmt.Errorf("semiext: vertex %d claims %d up-neighbors, at most %d possible", i, d, i)
			}
			v.sizes[i+1] = v.sizes[i] + 1 + int64(d)
		}
	} else {
		raw, err := v.bytes(32+8*int64(v.n), degBytes, nil)
		if err != nil {
			return fmt.Errorf("semiext: reading degrees: %w", err)
		}
		v.upDeg = make([]int32, v.n)
		pos := 0
		for i := 0; i < v.n; i++ {
			d, k := binary.Uvarint(raw[pos:])
			if k <= 0 || d > uint64(i) {
				return fmt.Errorf("semiext: vertex %d claims %d up-neighbors, at most %d possible", i, d, i)
			}
			pos += k
			v.upDeg[i] = int32(d)
			v.sizes[i+1] = v.sizes[i] + 1 + int64(d)
		}
		if int64(pos) != degBytes {
			return fmt.Errorf("semiext: degree section holds %d bytes, header claims %d", pos, degBytes)
		}
	}
	if degSum := v.edges(v.n); degSum != v.m {
		return fmt.Errorf("semiext: up-degrees sum to %d edges, header claims %d", degSum, v.m)
	}
	if v.format == FormatV2 {
		ib, err := v.bytes(32+8*int64(v.n)+degBytes, 8*int64(nb+1), nil)
		if err != nil {
			return fmt.Errorf("semiext: reading block index: %w", err)
		}
		payloadCap := size - v.headerSize
		off := make([]int64, nb+1)
		prev := uint64(0)
		for b := 0; b <= nb; b++ {
			o := binary.LittleEndian.Uint64(ib[8*b:])
			if (b == 0 && o != 0) || o < prev || o > uint64(payloadCap) {
				return fmt.Errorf("semiext: corrupt block index at entry %d", b)
			}
			off[b] = int64(o)
			prev = o
		}
		if off[nb] < v.m {
			return fmt.Errorf("semiext: payload of %d bytes cannot hold %d edges", off[nb], v.m)
		}
		v.blockOff = off
	}
	return nil
}

// bytes returns the file region [off, off+n): sliced from the mapping when
// one exists, otherwise read into buf (grown as needed).
func (v *View) bytes(off, n int64, buf []byte) ([]byte, error) {
	if v.data != nil {
		if off+n > int64(len(v.data)) {
			return nil, io.ErrUnexpectedEOF
		}
		return v.data[off : off+n : off+n], nil
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := v.ra.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// NumVertices returns the vertex count.
func (v *View) NumVertices() int { return v.n }

// NumEdges returns the edge count.
func (v *View) NumEdges() int64 { return v.m }

// Weights returns the per-vertex weight vector indexed by rank. The caller
// must not modify it.
func (v *View) Weights() []float64 { return v.weights }

// UpDegrees returns the per-vertex up-degree vector. The caller must not
// modify it; on mmap builds it aliases the read-only mapping.
func (v *View) UpDegrees() []int32 { return v.upDeg }

// Format returns the edge-file format version: FormatV1 or FormatV2.
func (v *View) Format() int { return v.format }

// Mapped reports whether byte access goes through a memory mapping (as
// opposed to positioned reads).
func (v *View) Mapped() bool { return v.data != nil && hostLittleEndian }

// ZeroCopy reports whether adjacency results alias the mapping directly:
// true only for v1 files on little-endian mmap builds. v2 adjacency is
// always decoded into a caller buffer, whatever the byte access path.
func (v *View) ZeroCopy() bool { return v.Mapped() && v.format == FormatV1 }

// PrefixSize returns size(G≥τ) = p + |E(G≥τ)| for the prefix [0, p),
// from the resident up-degree vector: no disk access. With PrefixForSize
// and NumVertices it makes a View a core.PrefixSizer, so the semi-external
// growth sequence matches the in-memory one round for round.
func (v *View) PrefixSize(p int) int64 { return v.sizes[p] }

// PrefixForSize mirrors graph.PrefixForSize: the smallest prefix length p
// with PrefixSize(p) >= want, or NumVertices() if no prefix is that large.
func (v *View) PrefixForSize(want int64) int {
	if want <= 0 {
		return 0
	}
	p := sort.Search(v.n, func(p int) bool { return v.sizes[p+1] >= want })
	if p == v.n {
		return v.n
	}
	return p + 1
}

// edges returns |E(G≥τ)| for the prefix [0, p).
func (v *View) edges(p int) int64 { return v.sizes[p] - int64(p) }

// payloadSpan returns the edge-payload bytes AdjPrefix(p) fetches: the
// 4·|E(G≥τ)| fixed-width entries of a v1 file, or for v2 the compressed
// bytes through the end of the last block the prefix touches.
func (v *View) payloadSpan(p int) int64 {
	if v.format == FormatV1 {
		return 4 * v.edges(p)
	}
	return v.blockOff[(p+v.blockVerts-1)/v.blockVerts]
}

// Adj returns the up-adjacency entries with edge ranks [lo, hi): the
// concatenation of every vertex's up-neighbor list in file order, so the
// run [0, E(p)) is exactly the up-adjacency of the prefix [0, p). On
// little-endian mmap builds the result aliases the mapping and buf is
// untouched; otherwise the entries are decoded into buf (grown as needed),
// one bulk read for the whole run.
func (v *View) Adj(lo, hi int64, buf []int32) ([]int32, error) {
	if v.format != FormatV1 {
		return nil, fmt.Errorf("semiext: format v%d adjacency has no per-edge byte offsets; use AdjPrefix", v.format)
	}
	if lo < 0 || hi < lo || hi > v.m {
		return nil, fmt.Errorf("semiext: adjacency range [%d,%d) outside [0,%d)", lo, hi, v.m)
	}
	cnt := hi - lo
	off := v.headerSize + 4*lo
	if v.data != nil {
		b := v.data[off : off+4*cnt : off+4*cnt]
		if hostLittleEndian {
			return int32view(b), nil
		}
		if int64(cap(buf)) < cnt {
			buf = make([]int32, cnt)
		}
		buf = buf[:cnt]
		DecodeInt32s(buf, b)
		return buf, nil
	}
	if int64(cap(buf)) < cnt {
		buf = make([]int32, cnt)
	}
	buf = buf[:cnt]
	if hostLittleEndian {
		// pread straight into the caller's buffer: the bytes are already in
		// the layout the host reads int32s in.
		if _, err := v.ra.ReadAt(int32bytes(buf), off); err != nil {
			return nil, fmt.Errorf("semiext: reading adjacency: %w", err)
		}
		return buf, nil
	}
	raw := make([]byte, 4*cnt)
	if _, err := v.ra.ReadAt(raw, off); err != nil {
		return nil, fmt.Errorf("semiext: reading adjacency: %w", err)
	}
	DecodeInt32s(buf, raw)
	return buf, nil
}

// minDecodeChunkEdges bounds how finely AdjPrefix splits a decode: below
// this many edges per chunk the goroutine handoff costs more than the
// decode it parallelizes.
const minDecodeChunkEdges = 1 << 15

// AdjPrefix returns the up-adjacency of the prefix [0, p) in the flat
// layout FromUpAdjacency consumes — edge ranks [0, e), where e is the edge
// count of the prefix (the caller's prefix sums already know it; it is
// re-validated here against the View's own). For v1 this is Adj(0, e,
// buf) — zero-copy on mmap builds. For v2 the compressed payload is
// decoded into buf; with workers > 1 the block offset index splits the
// decode into disjoint chunks handled concurrently, each chunk writing its
// own slice of buf, so the result is byte-identical at any worker count.
func (v *View) AdjPrefix(p int, e int64, workers int, buf []int32) ([]int32, error) {
	if p < 0 || p > v.n {
		return nil, fmt.Errorf("semiext: prefix %d outside [0,%d]", p, v.n)
	}
	if want := v.edges(p); e != want {
		return nil, fmt.Errorf("semiext: prefix [0,%d) holds %d edges, caller claims %d", p, want, e)
	}
	if v.format == FormatV1 {
		return v.Adj(0, e, buf)
	}
	bv := v.blockVerts
	nbp := (p + bv - 1) / bv
	if int64(cap(buf)) < e {
		buf = make([]int32, e)
	}
	buf = buf[:e]
	if p == 0 {
		return buf, nil
	}
	// One read covers every needed list: [0, blockOff[nbp]) spans through
	// the end of the last touched block (a partial final block decodes only
	// its first p-p/bv*bv vertices). On mmap builds this aliases the
	// mapping; in ReaderAt mode it is a single positioned read.
	raw, err := v.bytes(v.headerSize, v.blockOff[nbp], nil)
	if err != nil {
		return nil, fmt.Errorf("semiext: reading adjacency: %w", err)
	}
	if maxChunks := int(e / minDecodeChunkEdges); workers > maxChunks {
		workers = maxChunks
	}
	if workers > nbp {
		workers = nbp
	}
	if workers <= 1 {
		if _, err := decodeAdjRange(buf, raw, v.upDeg, 0, int32(p), bv, v.blockOff, 0); err != nil {
			return nil, err
		}
		return buf, nil
	}
	// Chunk boundaries balance edges, not blocks: the edge rank at a block
	// boundary is the prefix edge count there.
	blockEdge := func(b int) int64 { return v.edges(b * bv) }
	bounds := make([]int, 0, workers+1)
	bounds = append(bounds, 0)
	for c := 1; c < workers; c++ {
		target := e * int64(c) / int64(workers)
		b := sort.Search(nbp, func(b int) bool { return blockEdge(b) >= target })
		if b > bounds[len(bounds)-1] && b < nbp {
			bounds = append(bounds, b)
		}
	}
	bounds = append(bounds, nbp)
	errs := make([]error, len(bounds)-1)
	var wg sync.WaitGroup
	for c := 0; c < len(bounds)-1; c++ {
		ba, bb := bounds[c], bounds[c+1]
		u0, u1 := int32(ba*bv), int32(bb*bv)
		if int(u1) > p {
			u1 = int32(p)
		}
		out := buf[blockEdge(ba):e]
		if bb < nbp {
			out = buf[blockEdge(ba):blockEdge(bb)]
		}
		in := raw[v.blockOff[ba]:v.blockOff[bb]]
		base := v.blockOff[ba]
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = decodeAdjRange(out, in, v.upDeg, u0, u1, bv, v.blockOff, base)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Graph loads the whole edge file into an in-memory graph that shares no
// memory with the View, so it stays valid after Close: the whole-file load
// behind mutable stores, format recoding and OnlineAllSE. workers splits a
// v2 decode as in AdjPrefix.
func (v *View) Graph(workers int) (*graph.Graph, error) {
	adj, err := v.AdjPrefix(v.n, v.m, workers, nil)
	if err != nil {
		return nil, err
	}
	// The CSR assembly copies the adjacency but keeps the vectors it is
	// given, and up-degrees may alias the mapping, so both are copied.
	weights := append([]float64(nil), v.weights...)
	return graph.FromUpAdjacency(weights, append([]int32(nil), v.upDeg...), adj, nil)
}

// Close releases the mapping and the file handle. Adj results that alias
// the mapping become invalid.
func (v *View) Close() error {
	var err error
	if v.mapped {
		err = munmapFile(v.data)
		v.data = nil
		v.mapped = false
		v.upDeg = nil // may alias the unmapped region
	}
	if v.f != nil {
		if cerr := v.f.Close(); err == nil {
			err = cerr
		}
		v.f = nil
	}
	return err
}
