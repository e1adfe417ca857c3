package semiext

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Edge-file format v2 stores each up-adjacency list delta-gap encoded:
// uvarint(first), then uvarint(gap-1) for every later entry, where gap is
// the difference between consecutive entries. Lists are strictly ascending
// (the CSR invariant), so gap >= 1 and the -1 keeps the common "next rank"
// case in one byte. Vertices ranked by weight put community members next to
// each other, which makes small gaps — and therefore one-byte varints — the
// overwhelmingly common case; clustered graphs compress 3-5x against the
// fixed 4 bytes per edge of v1.
//
// This file holds the codec shared by the writer and the View: sizing,
// encoding, and the bulk group decoder that turns a run of encoded lists
// back into the flat up-adjacency layout FromUpAdjacency consumes.

// uvarintLen returns the encoded size of x in bytes (1..10).
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// encodedListLen returns the encoded byte size of one strictly ascending
// up-adjacency list without materializing the encoding.
func encodedListLen(list []int32) int {
	if len(list) == 0 {
		return 0
	}
	n := uvarintLen(uint64(list[0]))
	for i := 1; i < len(list); i++ {
		n += uvarintLen(uint64(list[i]-list[i-1]) - 1)
	}
	return n
}

// appendEncodedList appends the v2 encoding of one up-adjacency list owned
// by u. The list must be strictly ascending with entries in [0, u) — the
// writer's callers guarantee it, and the check here keeps a corrupt graph
// from producing a file every reader would reject.
func appendEncodedList(dst []byte, u int32, list []int32) ([]byte, error) {
	prev := int32(-1)
	for _, v := range list {
		if v <= prev || v >= u {
			return dst, fmt.Errorf("semiext: up-adjacency of vertex %d is not strictly ascending in [0,%d)", u, u)
		}
		if prev < 0 {
			dst = binary.AppendUvarint(dst, uint64(v))
		} else {
			dst = binary.AppendUvarint(dst, uint64(v-prev)-1)
		}
		prev = v
	}
	return dst, nil
}

const allHighBits = uint64(0x8080_8080_8080_8080)

// decodeAdjRange decodes the encoded lists of vertices [u0, u1) from data —
// the payload bytes starting at u0's list — into dst, which must hold
// exactly the up-degrees of the range. It enforces the format invariants
// (entries strictly ascending in [0, owner), every block boundary landing
// exactly on its declared byte offset) and returns the payload bytes
// consumed.
//
// The hot loop is a group decoder: whenever the next eight gap bytes all
// have their continuation bit clear — the dominant case on clustered
// graphs — they are recognized with one 64-bit load and mask instead of
// eight per-byte branches, and expanded in a branch-free unrolled run.
// base is the payload offset of data[0], used for the boundary checks.
func decodeAdjRange(dst []int32, data []byte, upDeg []int32, u0, u1 int32, blockVerts int, blockOff []int64, base int64) (int64, error) {
	pos := 0
	di := 0
	for u := u0; u < u1; u++ {
		if int(u)%blockVerts == 0 {
			if want := blockOff[int(u)/blockVerts] - base; int64(pos) != want {
				return int64(pos), fmt.Errorf("semiext: block %d starts at payload byte %d, index says %d", int(u)/blockVerts, base+int64(pos), base+want)
			}
		}
		d := int(upDeg[u])
		if d == 0 {
			continue
		}
		first, k := binary.Uvarint(data[pos:])
		if k <= 0 || first >= uint64(u) {
			return int64(pos), fmt.Errorf("semiext: corrupt adjacency of vertex %d", u)
		}
		pos += k
		cur := first
		dst[di] = int32(cur)
		di++
		for j := 1; j < d; {
			// Group fast path: eight whole varints in one load.
			if j+8 <= d && pos+8 <= len(data) {
				w := binary.LittleEndian.Uint64(data[pos:])
				if w&allHighBits == 0 {
					cur += w&0xff + 1
					dst[di] = int32(cur)
					cur += w>>8&0xff + 1
					dst[di+1] = int32(cur)
					cur += w>>16&0xff + 1
					dst[di+2] = int32(cur)
					cur += w>>24&0xff + 1
					dst[di+3] = int32(cur)
					cur += w>>32&0xff + 1
					dst[di+4] = int32(cur)
					cur += w>>40&0xff + 1
					dst[di+5] = int32(cur)
					cur += w>>48&0xff + 1
					dst[di+6] = int32(cur)
					cur += w>>56&0xff + 1
					dst[di+7] = int32(cur)
					// Entries are strictly increasing, so checking the last
					// of the eight bounds them all.
					if cur >= uint64(u) {
						return int64(pos), fmt.Errorf("semiext: corrupt adjacency of vertex %d", u)
					}
					di += 8
					pos += 8
					j += 8
					continue
				}
			}
			gap, k := binary.Uvarint(data[pos:])
			if k <= 0 || gap >= uint64(u) || cur+gap+1 >= uint64(u) {
				return int64(pos), fmt.Errorf("semiext: corrupt adjacency of vertex %d", u)
			}
			pos += k
			cur += gap + 1
			dst[di] = int32(cur)
			di++
			j++
		}
	}
	if di != len(dst) {
		return int64(pos), fmt.Errorf("semiext: decoded %d adjacency entries, expected %d", di, len(dst))
	}
	// A range ending on a block boundary must land exactly on the declared
	// offset; the final block's end offset doubles as the payload length.
	if int(u1)%blockVerts == 0 || int(u1) == len(upDeg) {
		b := (int(u1) + blockVerts - 1) / blockVerts
		if want := blockOff[b] - base; int64(pos) != want {
			return int64(pos), fmt.Errorf("semiext: block %d ends at payload byte %d, index says %d", b-1, base+int64(pos), base+want)
		}
	}
	return int64(pos), nil
}
