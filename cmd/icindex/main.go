// Command icindex builds serving artifacts for a graph: the IndexAll
// structure (-out), so a server (icserver -index) can answer any (k, γ)
// query in output-proportional time instead of searching online, and/or a
// semi-external edge file (-edges), so a server can serve the graph with
// only per-vertex state in memory (icserver -dataset
// name=g.edges,backend=semiext).
//
// Usage:
//
//	icindex -graph g.txt [-out g.icx] [-edges g.edges] [-format v1|v2]
//	        [-pagerank] [-workers N] [-timeout 0] [-verify]
//	icindex -compact g.edges
//	icindex -recode in.edges [-edges out.edges] [-format v1|v2]
//	icindex -graph g.txt -partition N [-pagerank]   (writes g.txt.shardI.bin)
//
// -compact folds a mutable dataset's write-ahead update log (g.edges.log,
// left behind by an icserver that exited uncleanly) back into its edge
// file offline: the log is replayed, the edge file rewritten atomically,
// and the log removed — the maintenance step a clean server shutdown
// performs automatically. It runs alone, without -graph.
//
// -recode rewrites an existing edge file into the layout -format selects —
// v1 (flat 4-byte adjacency) or v2 (delta-gap + varint compressed,
// typically ~3x smaller on clustered graphs) — writing to -edges, or back
// over the input atomically when -edges is omitted. Either layout serves
// identically; recoding never changes query results, only bytes on disk.
// It runs alone, without -graph. -format likewise selects the layout
// -edges writes in the build mode (default v1).
//
// -partition splits the graph into up to N component-closed shard graphs,
// written next to the input as g.txt.shard0.bin, g.txt.shard1.bin, ... in
// the binary graph format (which, unlike the text format, preserves sparse
// original IDs exactly) — the offline step that feeds a scatter-gather
// cluster (one icserver per shard file behind an iccoord; see
// docs/CLUSTER.md). With -pagerank the *global* PageRank scores are baked
// into the shard files first; do not pass -pagerank to the shard servers in
// that case, or they would recompute per-shard scores and break parity with
// a single node.
//
// Otherwise at least one of -out and -edges is required. The index is bound to the
// exact graph and weight vector it was built from: pass the same graph
// file (and the same -pagerank setting) to icserver, and rebuild the
// index whenever the graph changes. Construction fans the independent
// per-γ decompositions out over -workers goroutines (default: all cores);
// -verify reloads the written file and spot-checks it against an online
// query before reporting success. Both artifacts are written atomically
// (temporary file plus rename).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"influcomm"
	"influcomm/internal/semiext"
)

type config struct {
	graphPath   string
	outPath     string
	edgesPath   string
	compactPath string
	recodePath  string
	partition   int
	format      string
	usePagerank bool
	workers     int
	timeout     time.Duration
	verify      bool
}

// parseFormat maps the -format flag to an edge-file format constant.
func parseFormat(s string) (int, error) {
	switch s {
	case "", "v1":
		return influcomm.EdgeFileV1, nil
	case "v2":
		return influcomm.EdgeFileV2, nil
	default:
		return 0, fmt.Errorf("bad -format %q (want v1 or v2)", s)
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.graphPath, "graph", "", "path to the graph file (required)")
	flag.StringVar(&cfg.outPath, "out", "", "path to write the index to")
	flag.StringVar(&cfg.edgesPath, "edges", "", "path to write a semi-external edge file to")
	flag.StringVar(&cfg.compactPath, "compact", "", "compact a mutable dataset's update log back into this edge file, then exit")
	flag.StringVar(&cfg.recodePath, "recode", "", "rewrite this edge file into the -format layout (to -edges, or in place), then exit")
	flag.IntVar(&cfg.partition, "partition", 0, "split -graph into up to N component-closed shard graphs (<graph>.shardI.bin), then exit")
	flag.StringVar(&cfg.format, "format", "", "edge-file layout to write: v1 (flat, default) or v2 (delta+varint compressed)")
	flag.BoolVar(&cfg.usePagerank, "pagerank", false, "replace vertex weights with PageRank scores before building (use the same flag on icserver)")
	flag.IntVar(&cfg.workers, "workers", 0, "parallel build workers (0 = all cores, 1 = sequential)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "abort the build after this long (0 = no limit)")
	flag.BoolVar(&cfg.verify, "verify", false, "reload the written index and spot-check it against an online query")
	flag.Parse()
	if cfg.compactPath != "" {
		if err := compact(cfg.compactPath, log.Printf); err != nil {
			log.Fatalf("icindex: %v", err)
		}
		return
	}
	if cfg.recodePath != "" {
		if err := recode(cfg, log.Printf); err != nil {
			log.Fatalf("icindex: %v", err)
		}
		return
	}
	if cfg.partition > 0 {
		if cfg.graphPath == "" {
			fmt.Fprintln(os.Stderr, "icindex: -partition requires -graph")
			flag.Usage()
			os.Exit(2)
		}
		if err := partitionCmd(cfg, log.Printf); err != nil {
			log.Fatalf("icindex: %v", err)
		}
		return
	}
	if cfg.graphPath == "" || (cfg.outPath == "" && cfg.edgesPath == "") {
		fmt.Fprintln(os.Stderr, "icindex: -graph and at least one of -out / -edges are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(context.Background(), cfg, log.Printf); err != nil {
		log.Fatalf("icindex: %v", err)
	}
}

// compact replays the write-ahead update log of the edge file at path and
// folds it back into the file; opening the mutable store does the replay,
// closing it cleanly does the compaction.
func compact(path string, logf func(string, ...any)) error {
	st, err := influcomm.OpenMutableStore(path)
	if err != nil {
		return err
	}
	applied := st.UpdatesApplied()
	if err := st.Close(); err != nil {
		return fmt.Errorf("compacting %s: %w", path, err)
	}
	logf("icindex: compacted %s: %d logged updates folded in (%d vertices, %d edges)",
		path, applied, st.NumVertices(), st.NumEdges())
	return nil
}

// recode reads the edge file at cfg.recodePath in full — the bulk prefix
// decode splits across -workers goroutines — and rewrites it atomically in
// the layout -format selects, to -edges or over the input. Both layouts
// round-trip losslessly, so v1→v2→v1 reproduces the original bytes.
func recode(cfg config, logf func(string, ...any)) error {
	format, err := parseFormat(cfg.format)
	if err != nil {
		return err
	}
	outPath := cfg.edgesPath
	if outPath == "" {
		outPath = cfg.recodePath
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	v, err := semiext.OpenView(cfg.recodePath)
	if err != nil {
		return err
	}
	defer v.Close()
	g, err := v.Graph(workers)
	if err != nil {
		return fmt.Errorf("decoding %s: %w", cfg.recodePath, err)
	}
	inSize := int64(0)
	if info, err := os.Stat(cfg.recodePath); err == nil {
		inSize = info.Size()
	}
	if err := semiext.WriteEdgeFileFormat(outPath, g, format); err != nil {
		return fmt.Errorf("writing %s: %w", outPath, err)
	}
	info, err := os.Stat(outPath)
	if err != nil {
		return err
	}
	logf("icindex: recoded %s (v%d, %d bytes) -> %s (v%d, %d bytes): %d vertices, %d edges",
		cfg.recodePath, v.Format(), inSize, outPath, format, info.Size(), g.NumVertices(), g.NumEdges())
	return nil
}

// partitionCmd splits the graph into component-closed shard graphs and
// writes each as <graph>.shardI.bin — the binary format, because shard
// vertex sets have gaps in the original-ID space and only the binary layout
// stores original IDs explicitly (the text format would materialize the
// gaps as phantom weight-0 vertices). With -pagerank the global scores are
// baked in before the split, since per-shard PageRank would not match the
// global ranking.
func partitionCmd(cfg config, logf func(string, ...any)) error {
	g, err := influcomm.LoadGraph(cfg.graphPath)
	if err != nil {
		return err
	}
	if cfg.usePagerank {
		if g, err = influcomm.PageRankWeights(g); err != nil {
			return err
		}
	}
	shards, err := influcomm.PartitionGraph(g, cfg.partition)
	if err != nil {
		return err
	}
	for i, sg := range shards {
		path := fmt.Sprintf("%s.shard%d.bin", cfg.graphPath, i)
		if err := influcomm.SaveGraph(path, sg); err != nil {
			return fmt.Errorf("writing shard %d: %w", i, err)
		}
		logf("icindex: shard %d: %d vertices, %d edges at %s",
			i, sg.NumVertices(), sg.NumEdges(), path)
	}
	if len(shards) < cfg.partition {
		logf("icindex: graph has only enough components for %d of %d shards",
			len(shards), cfg.partition)
	}
	return nil
}

// run loads the graph, builds and persists the index, and optionally
// verifies the written file; logf receives progress lines.
func run(ctx context.Context, cfg config, logf func(string, ...any)) error {
	g, err := influcomm.LoadGraph(cfg.graphPath)
	if err != nil {
		return err
	}
	if cfg.usePagerank {
		if g, err = influcomm.PageRankWeights(g); err != nil {
			return err
		}
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	if cfg.edgesPath != "" {
		format, err := parseFormat(cfg.format)
		if err != nil {
			return err
		}
		if err := influcomm.SaveEdgeFileFormat(cfg.edgesPath, g, format); err != nil {
			return fmt.Errorf("writing edge file: %w", err)
		}
		info, err := os.Stat(cfg.edgesPath)
		if err != nil {
			return err
		}
		logf("icindex: %d vertices, %d edges -> semi-external edge file (v%d), %d bytes at %s",
			g.NumVertices(), g.NumEdges(), format, info.Size(), cfg.edgesPath)
	}
	if cfg.outPath == "" {
		return nil
	}

	start := time.Now()
	ix, err := influcomm.BuildIndexContext(ctx, g, cfg.workers)
	if err != nil {
		return fmt.Errorf("building index: %w", err)
	}
	buildTime := time.Since(start)
	if err := influcomm.SaveIndex(cfg.outPath, ix); err != nil {
		return err
	}
	info, err := os.Stat(cfg.outPath)
	if err != nil {
		return err
	}
	logf("icindex: %d vertices, %d edges -> γmax %d, %d int32 slots, built in %s, %d bytes at %s",
		g.NumVertices(), g.NumEdges(), ix.GammaMax(), ix.MemoryFootprint(), buildTime.Round(time.Millisecond), info.Size(), cfg.outPath)

	if cfg.verify {
		loaded, err := influcomm.LoadIndex(cfg.outPath, g)
		if err != nil {
			return fmt.Errorf("verify: reloading: %w", err)
		}
		gamma := int(loaded.GammaMax())
		if gamma > 3 {
			gamma = 3
		}
		if gamma >= 1 {
			online, err := influcomm.TopK(g, 5, gamma)
			if err != nil {
				return fmt.Errorf("verify: online query: %w", err)
			}
			served, err := loaded.TopK(5, int32(gamma))
			if err != nil {
				return fmt.Errorf("verify: index query: %w", err)
			}
			if len(served) != len(online.Communities) {
				return fmt.Errorf("verify: index served %d communities for (k=5, γ=%d), online search found %d",
					len(served), gamma, len(online.Communities))
			}
			for i := range served {
				if served[i].Influence() != online.Communities[i].Influence() {
					return fmt.Errorf("verify: community %d influence %v from index, %v online",
						i, served[i].Influence(), online.Communities[i].Influence())
				}
			}
		}
		logf("icindex: verify ok (round-tripped and matched online answers)")
	}
	return nil
}
