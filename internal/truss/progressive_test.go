package truss

import (
	"fmt"
	"testing"

	"influcomm/internal/core"
	"influcomm/internal/gen"
)

func TestStreamMatchesNaive(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g := gen.Random(50, 9, seed)
		ix := NewIndex(g)
		for _, gamma := range []int32{3, 4} {
			want := NaiveCommunities(g, gamma)
			var got []*core.Community
			if _, err := Stream(ix, gamma, func(c *core.Community) bool {
				got = append(got, c)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d γ=%d: streamed %d communities, want %d", seed, gamma, len(got), len(want))
			}
			for i := range want {
				a := fmt.Sprintf("%d:%v", got[i].Keynode(), got[i].Vertices())
				b := fmt.Sprintf("%d:%v", want[i].Keynode, want[i].Vertices)
				if a != b {
					t.Fatalf("seed %d γ=%d: community %d mismatch\n got %s\nwant %s", seed, gamma, i, a, b)
				}
			}
		}
	}
}

func TestStreamEarlyStop(t *testing.T) {
	g := gen.Random(60, 10, 3)
	ix := NewIndex(g)
	all := NaiveCommunities(g, 3)
	if len(all) < 3 {
		t.Skip("fixture too sparse")
	}
	var got []*core.Community
	p, err := Stream(ix, 3, func(c *core.Community) bool {
		got = append(got, c)
		return len(got) < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("stopped after %d communities, want 2", len(got))
	}
	for i := 0; i < 2; i++ {
		if got[i].Keynode() != all[i].Keynode {
			t.Errorf("community %d keynode = %d, want %d", i, got[i].Keynode(), all[i].Keynode)
		}
	}
	if p > g.NumVertices() {
		t.Errorf("prefix %d beyond graph", p)
	}
}

func TestStreamValidation(t *testing.T) {
	if _, err := Stream(nil, 3, nil); err == nil {
		t.Error("nil index: want error")
	}
	g := gen.Random(10, 2, 1)
	if _, err := Stream(NewIndex(g), 1, func(*core.Community) bool { return true }); err == nil {
		t.Error("gamma=1: want error")
	}
}

func TestCountICCFromSplit(t *testing.T) {
	g := gen.Random(40, 8, 5)
	ix := NewIndex(g)
	gamma := int32(4)
	n := g.NumVertices()
	for cut := 1; cut < n; cut += 7 {
		full := CountICC(ix, n, gamma)
		head := CountICCFrom(ix, n, cut, gamma)
		tail := CountICC(ix, cut, gamma)
		if len(head.Keys)+len(tail.Keys) != len(full.Keys) {
			t.Fatalf("cut %d: %d + %d keys != %d", cut, len(head.Keys), len(tail.Keys), len(full.Keys))
		}
		for i, k := range head.Keys {
			if full.Keys[i] != k {
				t.Fatalf("cut %d: head key %d differs", cut, i)
			}
		}
	}
}
