package semiext

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"influcomm/internal/gen"
)

func TestViewAdjBounds(t *testing.T) {
	g := gen.Random(40, 4, 3)
	v, err := OpenView(writeTemp(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for _, r := range [][2]int64{{-1, 0}, {0, v.NumEdges() + 1}, {5, 4}} {
		if _, err := v.Adj(r[0], r[1], nil); err == nil {
			t.Errorf("Adj(%d,%d): want error", r[0], r[1])
		}
	}
	empty, err := v.Adj(2, 2, nil)
	if err != nil || len(empty) != 0 {
		t.Errorf("Adj(2,2) = %v, %v; want empty", empty, err)
	}

	// AdjPrefix re-validates the caller's edge count on both layouts: a
	// count that is not the prefix's own must be rejected, not trusted.
	g = gen.Random(200, 6, 3)
	for _, format := range []int{FormatV1, FormatV2} {
		v, err := OpenView(writeTempFormat(t, g, format))
		if err != nil {
			t.Fatal(err)
		}
		e := g.PrefixEdges(100)
		for _, bad := range []int64{e - 1, e + 3, -1} {
			if adj, err := v.AdjPrefix(100, bad, 1, nil); err == nil {
				t.Errorf("v%d AdjPrefix(100, %d): %d entries and no error; the prefix holds %d", format, bad, len(adj), e)
			}
		}
		if _, err := v.AdjPrefix(v.NumVertices()+1, 0, 1, nil); err == nil {
			t.Errorf("v%d AdjPrefix past the last vertex: want error", format)
		}
		v.Close()
	}
}

// TestViewRejectsWhatReaderRejects replays header corruptions against both
// View entry points: an in-memory image and an opened file must be
// rejected alike.
func TestViewRejectsWhatReaderRejects(t *testing.T) {
	g := gen.Random(50, 5, 4)
	path := writeTemp(t, g)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	corrupt := map[string]func([]byte){
		"bad magic":        func(b []byte) { b[0] ^= 0xff },
		"impossible updeg": func(b []byte) { b[20+8*n] = 1 },
		"weight disorder": func(b []byte) {
			// Swap the first two weights: rank order breaks.
			for i := 0; i < 8; i++ {
				b[20+i], b[28+i] = b[28+i], b[20+i]
			}
		},
	}
	for name, mutate := range corrupt {
		img := append([]byte(nil), data...)
		mutate(img)
		if _, err := ViewFromBytes(img); err == nil {
			t.Errorf("%s: view accepted", name)
		}
		bad := filepath.Join(t.TempDir(), "bad.edges")
		if err := os.WriteFile(bad, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenView(bad); err == nil {
			t.Errorf("%s: OpenView accepted", name)
		}
	}
	truncated := data[:len(data)-5]
	if _, err := ViewFromBytes(truncated); err == nil {
		t.Error("truncated: view accepted")
	}
	short := filepath.Join(t.TempDir(), "short.edges")
	if err := os.WriteFile(short, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenView(short); err == nil {
		t.Error("truncated: OpenView accepted")
	}
}

func TestDecodeInt32s(t *testing.T) {
	src := []byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x78, 0x56, 0x34, 0x12}
	dst := make([]int32, 3)
	DecodeInt32s(dst, src)
	want := []int32{1, -1, 0x12345678}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	DecodeInt32s(nil, nil) // zero-length is a no-op
}

// memFile serves an in-memory image through positioned reads the way an
// *os.File does: unlike a bare bytes.Reader it answers a zero-length read
// at the end of the image with success.
type memFile struct{ *bytes.Reader }

func (m memFile) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return m.Reader.ReadAt(p, off)
}

// readerAtView is a View over an edge-file image served the way OpenView
// serves a file it cannot map: every region fetched by positioned reads,
// nothing aliased.
func readerAtView(data []byte) (*View, error) {
	v := &View{ra: memFile{bytes.NewReader(data)}}
	if err := v.parse(int64(len(data))); err != nil {
		return nil, err
	}
	return v, nil
}

// FuzzViewReaderEquivalence holds the View's two access paths to each
// other: for arbitrary bytes, a View over the image in memory (the path
// mmap builds serve from) and a View reading the same image through
// positioned ReaderAt reads (the fallback OpenView takes when a file
// cannot be mapped) must agree on acceptance, and when both accept, on
// format, shape, per-vertex state, prefix sizes and adjacency — whole and
// half-prefix decodes at any worker count, and v1 sub-range reads.
func FuzzViewReaderEquivalence(f *testing.F) {
	addEdgeFileSeeds(f, func(seed uint64) int { return 20 + int(seed)*9 }, 2)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		v, verr := ViewFromBytes(data)
		r, rerr := readerAtView(data)
		if (verr == nil) != (rerr == nil) {
			t.Fatalf("acceptance differs: in-memory err %v, ReaderAt err %v", verr, rerr)
		}
		if verr != nil {
			return
		}
		if r.Mapped() {
			t.Fatal("ReaderAt view reports a mapping")
		}
		if v.Format() != r.Format() {
			t.Fatalf("format differs: in-memory %d, ReaderAt %d", v.Format(), r.Format())
		}
		n, m := v.NumVertices(), v.NumEdges()
		if r.NumVertices() != n || r.NumEdges() != m {
			t.Fatalf("shape differs: in-memory (%d,%d), ReaderAt (%d,%d)", n, m, r.NumVertices(), r.NumEdges())
		}
		for u := 0; u < n; u++ {
			if v.Weights()[u] != r.Weights()[u] || v.UpDegrees()[u] != r.UpDegrees()[u] {
				t.Fatalf("per-vertex state differs at %d", u)
			}
		}
		for p := 0; p <= n; p++ {
			if v.PrefixSize(p) != r.PrefixSize(p) {
				t.Fatalf("prefix size differs at %d: in-memory %d, ReaderAt %d", p, v.PrefixSize(p), r.PrefixSize(p))
			}
		}
		for _, p := range []int{n / 2, n} {
			for _, workers := range []int{1, 4} {
				want, werr := v.AdjPrefix(p, v.edges(p), workers, nil)
				got, gerr := r.AdjPrefix(p, r.edges(p), workers, nil)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("prefix %d, %d workers: payload acceptance differs: in-memory err %v, ReaderAt err %v",
						p, workers, werr, gerr)
				}
				if werr != nil {
					if v.Format() == FormatV1 {
						t.Fatalf("v1 adjacency read failed on an accepted image: %v", werr)
					}
					continue // corrupt v2 payload, rejected by both
				}
				if len(got) != len(want) {
					t.Fatalf("prefix %d: in-memory decode holds %d entries, ReaderAt %d", p, len(want), len(got))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("prefix %d, %d workers: adjacency differs at entry %d", p, workers, i)
					}
				}
			}
		}
		if v.Format() == FormatV1 {
			lo, hi := m/4, 3*m/4
			want, werr := v.Adj(lo, hi, nil)
			got, gerr := r.Adj(lo, hi, nil)
			if werr != nil || gerr != nil {
				t.Fatalf("v1 sub-range [%d,%d) read failed: in-memory err %v, ReaderAt err %v", lo, hi, werr, gerr)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sub-range [%d,%d) differs at entry %d", lo, hi, i)
				}
			}
		}
	})
}
