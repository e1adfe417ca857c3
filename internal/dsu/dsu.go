// Package dsu implements a disjoint-set union (union-find) structure with
// union by rank and path halving, giving effectively constant amortized
// Find/Union. Its one caller is cluster.Partition, which finds a graph's
// connected components. EnumIC's directed union-find, which keeps the
// smallest keynode's group as each set's representative, lives in
// core.EnumState.
package dsu

// DSU is a forest of int32 element sets. Construct with New.
type DSU struct {
	parent []int32
	rank   []uint8
}

// New returns a DSU over n singleton sets {0}, ..., {n-1}.
func New(n int) *DSU {
	d := &DSU{parent: make([]int32, n), rank: make([]uint8, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Find returns the representative of x's set, halving paths as it goes.
func (d *DSU) Find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

// Union merges the sets of a and b.
func (d *DSU) Union(a, b int32) {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
}
