package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"influcomm/internal/gen"
)

// TestPoolReleasesGraph pins that what a Pool recycles does not hold its
// graph. The runtime keeps the contents of every sync.Pool used since the
// last collection reachable through the next one, so a pool that held its
// graph would keep a superseded snapshot alive that long; here one
// collection after the last reference to the Pool is dropped must free
// the graph.
func TestPoolReleasesGraph(t *testing.T) {
	freed := make(chan struct{})
	queryOnce(t, freed)
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("the graph of an unreferenced Pool survived a collection")
	}
}

// queryOnce answers one LocalSearch query and one enumeration on a Pool
// over a fresh graph, which closes freed once it is collected. Nothing it
// allocated stays referenced after it returns, except what the Pool
// recycled.
func queryOnce(t *testing.T, freed chan struct{}) {
	g := gen.Random(200, 6, 1)
	runtime.SetFinalizer(g, func(any) { close(freed) })
	p := NewPool(g)
	if _, err := p.TopK(context.Background(), 3, 2, Options{}); err != nil {
		t.Fatal(err)
	}
	if comms := p.EnumIC(NewEngine(g, 2).Run(g.NumVertices(), 0, WantSeq), 3); len(comms) == 0 {
		t.Fatal("no communities to enumerate")
	}
}
