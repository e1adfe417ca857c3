package dsu

import (
	"testing"
	"testing/quick"
)

func TestBasicUnionFind(t *testing.T) {
	d := New(6)
	for i := int32(0); i < 6; i++ {
		if d.Find(i) != i {
			t.Errorf("fresh element %d not its own root", i)
		}
	}
	d.Union(0, 1)
	d.Union(2, 3)
	if d.Find(0) != d.Find(1) || d.Find(2) != d.Find(3) {
		t.Error("unions not applied")
	}
	if d.Find(0) == d.Find(2) {
		t.Error("unrelated sets merged")
	}
	d.Union(1, 3)
	if d.Find(0) != d.Find(2) {
		t.Error("transitive union failed")
	}
	if d.Find(0) == d.Find(5) {
		t.Error("element 5 should be separate")
	}
}

// TestEquivalenceProperty checks that DSU agrees with a brute-force
// union-find over random operation sequences.
func TestEquivalenceProperty(t *testing.T) {
	type op struct{ A, B uint8 }
	f := func(ops []op) bool {
		const n = 16
		d := New(n)
		group := make([]int, n)
		for i := range group {
			group[i] = i
		}
		merge := func(a, b int) {
			ga, gb := group[a], group[b]
			if ga == gb {
				return
			}
			for i := range group {
				if group[i] == gb {
					group[i] = ga
				}
			}
		}
		for _, o := range ops {
			a, b := int32(o.A%n), int32(o.B%n)
			d.Union(a, b)
			merge(int(a), int(b))
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (d.Find(int32(i)) == d.Find(int32(j))) != (group[i] == group[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
