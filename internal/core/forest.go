package core

import (
	"math/bits"
	"slices"
)

// MemberMerger builds the member lists of a forest's communities in
// ascending rank order, the lists Community.Vertices returns, without a
// sort per community: a community's list is its sorted group merged with
// its children's lists. An answer rendered in decreasing influence order
// visits every child before its parent (a nested community has the higher
// influence), so each child's list is already built when its parent needs
// it. The merger keeps a built list until the parent has merged it and then
// reuses its buffer; a list whose child was never built (a filter skipped
// it) is built on demand. The work is the size of the rendered output plus
// one sort of each group, and the groups partition the answer's members.
//
// A merger only reads the forest, so any number of mergers may render one
// shared forest at once. A MemberMerger is not safe for concurrent use. Its
// zero value is ready to use.
type MemberMerger struct {
	lists map[*Community][]int32 // built lists whose parent has not merged them yet
	free  [][][]int32            // released buffers by capacity class (a power of two)
	group []int32                // the sorted group of the community being merged
	heads [][]int32              // the unmerged tails of a k-way merge
}

// maxKeptClass bounds the buffers Reset keeps for reuse: 2^20 ranks (4 MiB).
const maxKeptClass = 20

// Members returns the members of c in ascending rank order. The list is
// owned by the merger: it is valid until the next call to Members or Reset
// and must not be modified.
func (m *MemberMerger) Members(c *Community) []int32 {
	if l, ok := m.lists[c]; ok {
		return l
	}
	if m.lists == nil {
		m.lists = make(map[*Community][]int32)
	}
	for _, ch := range c.children {
		if _, ok := m.lists[ch]; !ok {
			m.Members(ch)
		}
	}
	out := m.buffer(c.size)
	if len(c.children) == 0 {
		out = append(out, c.group...)
		slices.Sort(out)
	} else {
		m.group = append(m.group[:0], c.group...)
		slices.Sort(m.group)
		heads := append(m.heads[:0], m.group)
		for _, ch := range c.children {
			heads = append(heads, m.lists[ch])
		}
		out = mergeSorted(out, heads)
		clear(heads) // drop the references to the children's buffers
		m.heads = heads[:0]
		for _, ch := range c.children {
			m.release(m.lists[ch])
			delete(m.lists, ch)
		}
	}
	m.lists[c] = out
	return out
}

// Reset releases every list the merger holds, keeping buffers of at most
// 2^maxKeptClass ranks for reuse.
func (m *MemberMerger) Reset() {
	for _, l := range m.lists {
		m.release(l)
	}
	clear(m.lists)
	if len(m.free) > maxKeptClass+1 {
		clear(m.free[maxKeptClass+1:])
		m.free = m.free[:maxKeptClass+1]
	}
}

// buffer returns an empty buffer with room for n ranks.
func (m *MemberMerger) buffer(n int) []int32 {
	class := bits.Len(uint(max(n, 1) - 1))
	if class < len(m.free) {
		if fl := m.free[class]; len(fl) > 0 {
			b := fl[len(fl)-1]
			fl[len(fl)-1] = nil
			m.free[class] = fl[:len(fl)-1]
			return b[:0]
		}
	}
	return make([]int32, 0, 1<<class)
}

// release files a buffer from buffer under its capacity class.
func (m *MemberMerger) release(b []int32) {
	class := bits.Len(uint(cap(b))) - 1
	if class < 0 || cap(b) != 1<<class {
		return
	}
	for len(m.free) <= class {
		m.free = append(m.free, nil)
	}
	m.free[class] = append(m.free[class], b)
}

// mergeSorted appends the union of the ascending, pairwise disjoint lists
// in heads to out in ascending order. It copies runs: while one list's
// next ranks stay below every other list's head they are appended at once.
// heads is used as scratch.
func mergeSorted(out []int32, heads [][]int32) []int32 {
	h := heads[:0]
	for _, l := range heads {
		if len(l) > 0 {
			h = append(h, l)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 2 {
		l := h[0]
		lim := h[1][0]
		if h[2][0] < lim {
			lim = h[2][0]
		}
		n := 1
		for n < len(l) && l[n] < lim {
			n++
		}
		out = append(out, l[:n]...)
		if n == len(l) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			h[0] = l[n:]
		}
		siftDown(h, 0)
	}
	switch len(h) {
	case 2:
		return merge2(out, h[0], h[1])
	case 1:
		return append(out, h[0]...)
	}
	return out
}

// siftDown restores the min-heap order of h, keyed by each list's head,
// below position i.
func siftDown(h [][]int32, i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j+1 < len(h) && h[j+1][0] < h[j][0] {
			j++
		}
		if h[i][0] <= h[j][0] {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// merge2 appends the union of two ascending, disjoint lists to out.
func merge2(out, a, b []int32) []int32 {
	for len(a) > 0 && len(b) > 0 {
		if b[0] < a[0] {
			a, b = b, a
		}
		n := 1
		for n < len(a) && a[n] < b[0] {
			n++
		}
		out = append(out, a[:n]...)
		a = a[n:]
	}
	out = append(out, a...)
	return append(out, b...)
}
