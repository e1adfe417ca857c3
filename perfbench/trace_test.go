package main

import (
	"testing"
	"time"
)

func sp(start, end time.Duration) span { return span{Start: start, End: end} }

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := sp(0, 100*ms)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"nested, disjoint", []span{sp(10*ms, 20*ms), sp(30*ms, 50*ms)}, 70 * ms},
		{"overlapping siblings count once", []span{sp(10*ms, 40*ms), sp(20*ms, 60*ms), sp(25*ms, 30*ms)}, 50 * ms},
		{"touching siblings", []span{sp(10*ms, 20*ms), sp(20*ms, 30*ms)}, 80 * ms},
		{"children sticking out are clipped", []span{sp(-10*ms, 10*ms), sp(90*ms, 120*ms)}, 80 * ms},
		{"child outside the parent", []span{sp(150*ms, 160*ms)}, 100 * ms},
		{"child covering everything", []span{sp(0, 100*ms), sp(40*ms, 50*ms)}, 0},
		{"unsorted children", []span{sp(60*ms, 70*ms), sp(10*ms, 20*ms), sp(15*ms, 65*ms)}, 40 * ms},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRecorderTree(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("op", 7, -1)
	a := rec.begin("a", 7, root)
	rec.end(a, map[string]int64{"n": 3})
	b := rec.begin("b", 7, root)
	rec.end(b, nil)
	open := rec.begin("open", 7, root) // never closed: not reported
	_ = open
	rec.end(root, nil)
	spans := rec.all()
	if len(spans) != 3 {
		t.Fatalf("%d closed spans, want 3", len(spans))
	}
	kids := childrenOf(spans)[root]
	if len(kids) != 2 || kids[0].Name != "a" || kids[1].Name != "b" || kids[0].Counts["n"] != 3 {
		t.Fatalf("children of root: %+v", kids)
	}
	for _, s := range spans {
		if s.Op != 7 || s.End < s.Start {
			t.Fatalf("bad span %+v", s)
		}
	}
}
