// Command perfbench is the repository's end-to-end benchmark. It generates
// one seeded input graph, brings up the shipped binaries (icindex,
// icserver, iccoord) on loopback in the layout a workload defines, drives
// the workload closed-loop over HTTP from two clients, checks every answer
// after the timed window, and prints the end-to-end metrics. With -trace 1
// it also replays the workload in process with spans around each layer's
// entry points and prints the per-layer metrics instead.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload point|batch|churn|all --seed N \
//	    --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the full
// report, each metric with its unit and sample count.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"influcomm/internal/graph"
	"influcomm/internal/kcore"
)

const (
	clients    = 2   // closed-loop clients, one request in flight each
	coldStarts = 5   // timed set-ups per run, after one untimed
	warmupOps  = 100 // untimed ops per client before the window
)

// Everything the benchmark builds or writes stays under buildDir, relative
// to the repository root it runs from: run.sh puts the binaries in
// buildDir/bin, and each run works in buildDir/work/<workload>, which it
// removes at the end, and writes its spans to buildDir/work/traces.
const buildDir = ".bench_build"

var workloads = []string{"point", "batch", "churn"}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bins     binaries
	work     string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: point, batch, churn, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the input graph and op streams")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds the traced in-process run and reports per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.bins = binariesIn(filepath.Join(buildDir, "bin"))
	work, err := filepath.Abs(filepath.Join(buildDir, "work"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg.work = work
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloads
	}
	for _, w := range names {
		if !validWorkload(w) || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
			fmt.Fprintf(os.Stderr, "perfbench: want --workload point|batch|churn|all, --seconds >= 1, --trace 0|1\n")
			os.Exit(2)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	for _, w := range names {
		cfg.workload = w
		rep, err := run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			os.Exit(1)
		}
		line, err := rep.print(os.Stdout, cfg.trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			os.Exit(1)
		}
		fmt.Println(line)
	}
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if w == x {
			return true
		}
	}
	return false
}

// report is everything one workload run measured.
type report struct {
	workload    string
	fingerprint []string
	attempted   int
	failed      int
	endToEnd    metrics
	writes      metrics // churn write latencies, reported beside end_to_end
	counters    counters
	perLayer    metrics
	spanSummary []string
	tracePath   string
}

// endToEndNames fixes the metric set of an untraced run's result line;
// perLayerNames that of a traced run.
var endToEndNames = []string{"setup_s", "ops_per_s", "p50_ms", "p99_ms", "rss_mb"}

func run(ctx context.Context, cfg config) (*report, error) {
	rep := &report{workload: cfg.workload}
	dir := filepath.Join(cfg.work, cfg.workload)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(filepath.Join(dir, "input"), 0o755); err != nil {
		return nil, err
	}

	// Input: generated before, and outside, any timing.
	graphPath := filepath.Join(dir, "input", "g.bin")
	g, err := writeGraph(graphPath, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("generating the graph: %w", err)
	}
	rep.fingerprint = fingerprint(dir, g)
	g = nil
	runtime.GC()
	debug.FreeOSMemory()

	// Set-up: one untimed cold start, then coldStarts timed ones; the last
	// stack stays up for the load.
	var st *stack
	var setups []float64
	for i := 0; i <= coldStarts; i++ {
		if st != nil {
			st.stop()
		}
		var d time.Duration
		st, d, err = coldStart(ctx, cfg.workload, cfg.bins, graphPath, filepath.Join(dir, fmt.Sprintf("start%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i > 0 {
			setups = append(setups, d.Seconds())
		}
	}
	defer func() { st.stop() }()
	rep.endToEnd.add("setup_s", median(setups), "s", len(setups))

	var shardGraphs []shardEdges
	var traceEdges []string
	if cfg.workload == "churn" {
		for i := 0; i < shards; i++ {
			sg, err := graph.LoadFile(shardGraph(st.graph, i))
			if err != nil {
				return nil, err
			}
			shardGraphs = append(shardGraphs, sg)
			rep.fingerprint = append(rep.fingerprint, fmt.Sprintf("shard%d: %d vertices, %d edges", i, sg.NumVertices(), sg.NumEdges()))
		}
		if cfg.trace {
			tdir := filepath.Join(dir, "traced")
			if err := os.MkdirAll(tdir, 0o755); err != nil {
				return nil, err
			}
			if traceEdges, err = traceChurnFiles(st, tdir); err != nil {
				return nil, err
			}
		}
	}

	// Load: warm up, then the timed window.
	streams := make([]opStream, clients)
	warmups := make([]opStream, clients)
	for c := range streams {
		streams[c] = newStream(cfg.workload, cfg.seed, c, clients, shardGraphs)
		warmups[c] = warmupStream(cfg.workload, cfg.seed, c)
	}
	cl := make([]*client, clients)
	for c := range cl {
		cl[c] = newClient(st.bases())
		defer cl[c].close()
	}
	warm := warmUp(ctx, cl, warmups, warmupOps)
	cpu0, err := stackCPU(st)
	if err != nil {
		return nil, err
	}
	load := runLoad(ctx, cl, streams, time.Duration(cfg.seconds)*time.Second)
	cpu1, err := stackCPU(st)
	if err != nil {
		return nil, err
	}
	var rssKB int64
	for _, p := range st.procs {
		kb, err := procStatusKB(p.cmd.Process.Pid, "VmHWM")
		if err != nil {
			return nil, err
		}
		rssKB += kb
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var reads, writes []float64
	for _, r := range load.results {
		if r.op.kind == opWrite {
			writes = append(writes, ms(r.lat))
		} else {
			reads = append(reads, ms(r.lat))
		}
	}
	completed := len(load.results)
	rep.endToEnd.add("ops_per_s", float64(completed)/load.window.Seconds(), "ops/s", completed)
	rep.endToEnd.addLatencies("", reads)
	rep.endToEnd.add("rss_mb", float64(rssKB)/1024, "MB", len(st.procs))
	if cfg.workload == "churn" {
		rep.writes.addLatencies("write_", writes)
	}

	if rep.counters, err = collectCounters(ctx, st); err != nil {
		return nil, err
	}

	// Answer checks, after the window.
	all := append(warm, load.results...)
	facts := loadFacts{cpu: cpu1 - cpu0, completed: completed, sent: len(all)}
	for _, r := range all {
		if r.status == http.StatusServiceUnavailable {
			facts.rejected++
		}
	}
	failed, probes, err := checkAnswers(ctx, cfg.workload, st, graphPath, all)
	if err != nil {
		return nil, fmt.Errorf("checking answers: %w", err)
	}
	rep.attempted = len(all) + probes
	rep.failed = failed

	st.stop()
	if !cfg.trace {
		return rep, nil
	}

	// Per-layer metrics: counters from the servers after the untimed load,
	// per-call timings from the traced in-process replay.
	l := layers{}
	rec := newRecorder()
	switch cfg.workload {
	case "point":
		err = tracePoint(ctx, cfg.seed, st, rec, l)
	case "batch":
		err = traceBatch(ctx, cfg.seed, st, rec, l)
	default:
		err = traceChurn(ctx, cfg.seed, st, traceEdges, filepath.Join(dir, "traced"), rec, l)
	}
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	traceDir := filepath.Join(cfg.work, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	rep.tracePath = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := rec.write(rep.tracePath); err != nil {
		return nil, err
	}
	rep.spanSummary = summarizeSpans(rec.all())
	rep.perLayer = perLayerMetrics(l, rep.counters, facts)
	return rep, nil
}

// stackCPU sums the user+system CPU time of the stack's processes.
func stackCPU(st *stack) (time.Duration, error) {
	var sum time.Duration
	for _, p := range st.procs {
		d, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// checkAnswers runs the workload's answer checks over every result and
// returns the failed ops and the probe ops it sent itself.
func checkAnswers(ctx context.Context, workload string, st *stack, graphPath string, results []result) (failed, probes int, err error) {
	switch workload {
	case "point", "batch":
		g, err := graph.LoadFile(graphPath)
		if err != nil {
			return 0, 0, err
		}
		if workload == "point" {
			failed, err = checkPoint(results, newRefs(g, readKMax, 0))
		} else {
			failed, err = checkBatch(results, newRefs(g, batchKMax, trussKMax))
		}
		return failed, 0, err
	}
	var reads []result
	for _, r := range results {
		if r.op.kind == opRead {
			reads = append(reads, r)
		}
	}
	for _, r := range reads {
		if r.status != http.StatusOK || len(r.digests) != 1 {
			failed++
		}
	}
	wf, acked := checkWrites(results)
	pa, pf, err := checkChurn(ctx, st, acked)
	return failed + wf + pf, pa, err
}

// fingerprint records what the numbers were measured on.
func fingerprint(dir string, g *graph.Graph) []string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return []string{
		fmt.Sprintf("nproc=%d GOMAXPROCS=%d", runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		"cpu: " + cpu,
		"go: " + runtime.Version() + ", kernel: " + kernel,
		"data directory filesystem: " + fsType(dir),
		fmt.Sprintf("graph: %d vertices, %d edges, γmax %d", g.NumVertices(), g.NumEdges(), kcore.MaxCore(g)),
	}
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown"
	}
	switch s.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", s.Type)
}

// print writes the report and returns the result line: the end-to-end
// metrics, or with trace the per-layer ones.
func (rep *report) print(w *os.File, trace bool) (string, error) {
	fmt.Fprintf(w, "== %s\n", rep.workload)
	for _, f := range rep.fingerprint {
		fmt.Fprintln(w, "   "+f)
	}
	fmt.Fprintf(w, "-- end to end; answer checks: %d ops attempted, %d failed\n", rep.attempted, rep.failed)
	for _, m := range rep.endToEnd.list {
		fmt.Fprintln(w, "   "+m.String())
	}
	for _, m := range rep.writes.list {
		fmt.Fprintln(w, "   "+m.String())
	}
	c := rep.counters
	fmt.Fprintf(w, "   servers: %d index and %d online queries, %d cache hits, %d misses; %d repairs, %d rebuilds; %d coordinator failovers and retries\n",
		c.indexQueries, c.localQueries, c.cacheHits, c.cacheMisses, c.repairs, c.rebuilds, c.failovers)
	if trace {
		fmt.Fprintln(w, "-- per layer (traced in-process run)")
		for _, m := range rep.perLayer.list {
			fmt.Fprintln(w, "   "+m.String())
		}
		if s, ok := rep.perLayer.get("server.serve_ms"); ok && s.Samples > 0 {
			if p, ok := rep.endToEnd.get("p50_ms"); ok {
				fmt.Fprintf(w, "   server.serve_ms %.4f ms in process vs p50_ms %.4f ms over loopback\n", s.Value, p.Value)
			}
		}
		fmt.Fprintln(w, "-- spans: name, count, median duration, median self time")
		for _, s := range rep.spanSummary {
			fmt.Fprintln(w, "   "+s)
		}
		fmt.Fprintln(w, "   spans written to "+rep.tracePath)
	}
	names := endToEndNames
	src := rep.endToEnd
	if trace {
		names = perLayerNames()
		src = rep.perLayer
	}
	out := map[string]map[string]any{}
	for _, name := range names {
		m, ok := src.get(name)
		if !ok || m.Refused {
			return "", fmt.Errorf("metric %s could not be measured", name)
		}
		out[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	return string(line), err
}
