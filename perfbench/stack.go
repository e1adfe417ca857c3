package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// A stack is one workload's serving processes, started from the generated
// graph file by the workload's icindex steps. Every knob the binaries
// have keeps its default except the dataset layout the workload defines.
type stack struct {
	dir   string
	graph string  // the stack's copy of the generated graph
	procs []*proc // procs[0] takes the client traffic; on churn procs[1:] are the shards
}

// binaries locates the built icindex, icserver and iccoord.
type binaries struct{ icindex, icserver, iccoord string }

func binariesIn(dir string) binaries {
	return binaries{
		icindex:  filepath.Join(dir, "icindex"),
		icserver: filepath.Join(dir, "icserver"),
		iccoord:  filepath.Join(dir, "iccoord"),
	}
}

const shards = 3

// shardGraph is the shard file icindex -partition writes for shard i.
func shardGraph(graphPath string, i int) string {
	return fmt.Sprintf("%s.shard%d.bin", graphPath, i)
}

// startStack links the generated graph into the fresh directory dir and
// brings up workload's stack from it: the icindex steps, then the
// servers, returning once every server answers ready.
func startStack(ctx context.Context, workload string, bins binaries, graphPath, dir string) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &stack{dir: dir, graph: filepath.Join(dir, "g.bin")}
	if err := os.Link(graphPath, st.graph); err != nil {
		return nil, err
	}
	var err error
	switch workload {
	case "point":
		err = st.startPoint(ctx, bins)
	case "batch":
		err = st.startBatch(ctx, bins)
	default:
		err = st.startChurn(ctx, bins)
	}
	if err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

func (st *stack) path(name string) string { return filepath.Join(st.dir, name) }

func (st *stack) tool(bins binaries, log string, args ...string) error {
	return runTool(bins.icindex, args, st.path(log))
}

func (st *stack) server(ctx context.Context, bins binaries, name string, args ...string) (*proc, error) {
	args = append(args, "-addr", "127.0.0.1:0")
	p, err := startProc(name, bins.icserver, args, st.path(name+".log"))
	if err != nil {
		return nil, err
	}
	if err := waitHealthy(ctx, http.DefaultClient, p, func(h map[string]any) bool { return h["ready"] == true }); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// point: the index serves every default-semantics read.
func (st *stack) startPoint(ctx context.Context, bins binaries) error {
	if err := st.tool(bins, "icindex.log", "-graph", st.graph, "-out", st.path("g.icx")); err != nil {
		return err
	}
	p, err := st.server(ctx, bins, "icserver", "-graph", st.graph, "-index", st.path("g.icx"))
	if err != nil {
		return err
	}
	st.procs = []*proc{p}
	return nil
}

// batch: no index anywhere; the disk dataset is a v2 edge file served
// semi-externally.
func (st *stack) startBatch(ctx context.Context, bins binaries) error {
	if err := st.tool(bins, "icindex.log", "-graph", st.graph, "-edges", st.path("disk.edges"), "-format", "v2"); err != nil {
		return err
	}
	p, err := st.server(ctx, bins, "icserver", "-graph", st.graph,
		"-dataset", diskDataset+"="+st.path("disk.edges")+",backend=semiext")
	if err != nil {
		return err
	}
	st.procs = []*proc{p}
	return nil
}

// churn: three component-closed shards, each serving a mutable edge-file
// dataset with a maintained index, behind one coordinator.
func (st *stack) startChurn(ctx context.Context, bins binaries) error {
	if err := st.tool(bins, "partition.log", "-graph", st.graph, "-partition", fmt.Sprint(shards)); err != nil {
		return err
	}
	for i := 0; i < shards; i++ {
		if err := st.tool(bins, fmt.Sprintf("icindex%d.log", i), "-graph", shardGraph(st.graph, i),
			"-edges", st.path(fmt.Sprintf("dyn%d.edges", i)), "-out", st.path(fmt.Sprintf("shard%d.icx", i))); err != nil {
			return err
		}
	}
	shardProcs := make([]*proc, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := range shardProcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shardProcs[i], errs[i] = st.server(ctx, bins, fmt.Sprintf("shard%d", i),
				"-graph", shardGraph(st.graph, i),
				"-dataset", fmt.Sprintf("dyn=%s,mutable=true,index=%s,reindex=auto",
					st.path(fmt.Sprintf("dyn%d.edges", i)), st.path(fmt.Sprintf("shard%d.icx", i))))
		}()
	}
	wg.Wait()
	for i, p := range shardProcs {
		if p != nil {
			st.procs = append(st.procs, p)
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	args := []string{"-addr", "127.0.0.1:0"}
	for i, p := range shardProcs {
		args = append(args, "-shard", fmt.Sprintf("s%d=%s,dataset=dyn", i, p.base))
	}
	coord, err := startProc("iccoord", bins.iccoord, args, st.path("iccoord.log"))
	if err != nil {
		return err
	}
	st.procs = append([]*proc{coord}, st.procs...)
	// The coordinator serves as soon as it listens; readiness is its
	// health endpoint answering with the full topology, the shards being
	// ready already.
	return waitHealthy(ctx, http.DefaultClient, coord, func(h map[string]any) bool { return h["shards"] == float64(shards) })
}

// bases returns every process's base URL, in procs order.
func (st *stack) bases() []string {
	out := make([]string, len(st.procs))
	for i, p := range st.procs {
		out[i] = p.base
	}
	return out
}

// stop stops every process, the coordinator first.
func (st *stack) stop() {
	for _, p := range st.procs {
		p.stop()
	}
	st.procs = nil
}

// coldStart starts workload's stack in dir and reports how long it took
// from the graph file on disk to every server ready.
func coldStart(ctx context.Context, workload string, bins binaries, graphPath, dir string) (*stack, time.Duration, error) {
	start := time.Now()
	st, err := startStack(ctx, workload, bins, graphPath, dir)
	return st, time.Since(start), err
}
