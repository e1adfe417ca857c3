package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"influcomm/internal/baseline"
	"influcomm/internal/core"
	"influcomm/internal/gen"
	"influcomm/internal/graph"
	"influcomm/internal/kcore"
	"influcomm/internal/pagerank"
	"influcomm/internal/semiext"
	"influcomm/internal/store"
	"influcomm/internal/truss"
	"influcomm/internal/workload"
)

// Config tunes a harness run.
type Config struct {
	// Repeat is the number of timing repetitions per measurement (the
	// paper runs each query three times); minimum is reported.
	Repeat int
	// Datasets restricts experiments to the named stand-ins; empty means
	// each experiment's paper-default selection.
	Datasets []string
}

func (c Config) repeat() int {
	if c.Repeat < 1 {
		return 1
	}
	return c.Repeat
}

func (c Config) pick(defaults []string) []string {
	if len(c.Datasets) == 0 {
		return defaults
	}
	return c.Datasets
}

var (
	gmaxMu    sync.Mutex
	gmaxCache = map[string]int32{}
)

func load(name string) (*workload.Dataset, *graph.Graph, error) {
	d, err := workload.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	g, err := d.Load()
	if err != nil {
		return nil, nil, err
	}
	return d, g, nil
}

func gammaMax(name string, g *graph.Graph) int32 {
	gmaxMu.Lock()
	defer gmaxMu.Unlock()
	if v, ok := gmaxCache[name]; ok {
		return v
	}
	v := kcore.MaxCore(g)
	gmaxCache[name] = v
	return v
}

// gammaFor clamps the requested γ to the dataset's γmax, mirroring the
// paper's treatment of Email (γmax 43, so its γ=50 point uses 40).
func gammaFor(name string, g *graph.Graph, want int32) int32 {
	return workload.ClampGamma(want, gammaMax(name, g))
}

// Table1 reproduces Table 1: per-dataset statistics including γmax.
func Table1(cfg Config) (*Figure, error) {
	f := &Figure{ID: "table1", Title: "Statistics of stand-in graphs", XLabel: "graph", Unit: "count"}
	for _, name := range cfg.pick(allNames()) {
		_, g, err := load(name)
		if err != nil {
			return nil, err
		}
		s := g.Statistics()
		f.AddRow(name, map[string]float64{
			"vertices": float64(s.Vertices),
			"edges":    float64(s.Edges),
			"dmax":     float64(s.MaxDegree),
			"davg":     s.AvgDegree,
			"gmax":     float64(gammaMax(name, g)),
		})
	}
	f.Series = []string{"vertices", "edges", "dmax", "davg", "gmax"}
	return f, nil
}

func allNames() []string {
	out := make([]string, len(workload.Registry))
	for i := range workload.Registry {
		out[i] = workload.Registry[i].Name
	}
	return out
}

// Fig8 reproduces Figure 8 (Eval-I): OnlineAll vs Forward vs LocalSearch-P,
// γ = 10, varying k, one figure per dataset.
func Fig8(cfg Config) ([]*Figure, error) {
	var out []*Figure
	for _, name := range cfg.pick(allNames()) {
		d, g, err := load(name)
		if err != nil {
			return nil, err
		}
		gamma := gammaFor(name, g, workload.DefaultGamma)
		f := &Figure{
			ID:     "fig8/" + name,
			Title:  fmt.Sprintf("Against global search, γ=%d, vary k", gamma),
			XLabel: "k",
		}
		for _, k := range workload.KGrid {
			row := map[string]float64{}
			if !d.SkipOnlineAll {
				row["OnlineAll"] = bestOf(cfg.repeat(), func() {
					if _, _, err := baseline.OnlineAll(g, k, gamma); err != nil {
						panic(err)
					}
				})
			}
			row["Forward"] = bestOf(cfg.repeat(), func() {
				if _, _, err := baseline.Forward(g, k, gamma); err != nil {
					panic(err)
				}
			})
			row["LocalSearch-P"] = bestOf(cfg.repeat(), func() {
				if _, err := core.TopKProgressive(g, k, gamma, core.Options{}); err != nil {
					panic(err)
				}
			})
			f.AddRow(fmt.Sprintf("%d", k), row)
		}
		if d.SkipOnlineAll {
			f.Notes = append(f.Notes, "OnlineAll omitted (paper: out of memory on this graph)")
		}
		out = append(out, f)
	}
	return out, nil
}

// Fig9 reproduces Figure 9 (Eval-I): k = 10, varying γ, on the four
// datasets the paper selects.
func Fig9(cfg Config) ([]*Figure, error) {
	var out []*Figure
	for _, name := range cfg.pick([]string{"wiki", "livejournal", "arabic", "uk"}) {
		d, g, err := load(name)
		if err != nil {
			return nil, err
		}
		f := &Figure{
			ID:     "fig9/" + name,
			Title:  fmt.Sprintf("Against global search, k=%d, vary γ", workload.DefaultK),
			XLabel: "gamma",
		}
		for _, gammaWant := range workload.GammaGrid {
			gamma := gammaFor(name, g, gammaWant)
			row := map[string]float64{}
			if !d.SkipOnlineAll {
				row["OnlineAll"] = bestOf(cfg.repeat(), func() {
					if _, _, err := baseline.OnlineAll(g, workload.DefaultK, gamma); err != nil {
						panic(err)
					}
				})
			}
			row["Forward"] = bestOf(cfg.repeat(), func() {
				if _, _, err := baseline.Forward(g, workload.DefaultK, gamma); err != nil {
					panic(err)
				}
			})
			row["LocalSearch-P"] = bestOf(cfg.repeat(), func() {
				if _, err := core.TopKProgressive(g, workload.DefaultK, gamma, core.Options{}); err != nil {
					panic(err)
				}
			})
			f.AddRow(fmt.Sprintf("%d", gamma), row)
		}
		out = append(out, f)
	}
	return out, nil
}

// Fig10 reproduces Figure 10 (Eval-I): Forward vs LocalSearch-P for large k
// and γ on the two densest stand-ins (the paper uses Arabic and Twitter,
// its graphs with the largest γmax).
func Fig10(cfg Config) ([]*Figure, error) {
	var out []*Figure
	for _, name := range cfg.pick([]string{"arabic", "twitter"}) {
		_, g, err := load(name)
		if err != nil {
			return nil, err
		}
		largeGamma := gammaFor(name, g, 16)
		fk := &Figure{
			ID:     "fig10/" + name + "/vary-k",
			Title:  fmt.Sprintf("Large queries, γ=%d, vary k", largeGamma),
			XLabel: "k",
		}
		for _, k := range workload.LargeKGrid {
			fk.AddRow(fmt.Sprintf("%d", k), map[string]float64{
				"Forward": bestOf(cfg.repeat(), func() {
					if _, _, err := baseline.Forward(g, k, largeGamma); err != nil {
						panic(err)
					}
				}),
				"LocalSearch-P": bestOf(cfg.repeat(), func() {
					if _, err := core.TopKProgressive(g, k, largeGamma, core.Options{}); err != nil {
						panic(err)
					}
				}),
			})
		}
		out = append(out, fk)

		fg := &Figure{
			ID:     "fig10/" + name + "/vary-gamma",
			Title:  "Large queries, k=1000, vary γ",
			XLabel: "gamma",
		}
		for _, gammaWant := range workload.LargeGammaGrid {
			gamma := gammaFor(name, g, gammaWant)
			fg.AddRow(fmt.Sprintf("%d", gamma), map[string]float64{
				"Forward": bestOf(cfg.repeat(), func() {
					if _, _, err := baseline.Forward(g, 1000, gamma); err != nil {
						panic(err)
					}
				}),
				"LocalSearch-P": bestOf(cfg.repeat(), func() {
					if _, err := core.TopKProgressive(g, 1000, gamma, core.Options{}); err != nil {
						panic(err)
					}
				}),
			})
		}
		out = append(out, fg)
	}
	return out, nil
}

// Fig11 reproduces Figure 11 (Eval-II): Backward vs LocalSearch-P on the
// two large web stand-ins, γ ∈ {10, high}, varying k.
func Fig11(cfg Config) ([]*Figure, error) {
	var out []*Figure
	for _, name := range cfg.pick([]string{"arabic", "uk"}) {
		_, g, err := load(name)
		if err != nil {
			return nil, err
		}
		for _, gammaWant := range []int32{10, gammaMax(name, g)} {
			gamma := gammaFor(name, g, gammaWant)
			f := &Figure{
				ID:     fmt.Sprintf("fig11/%s/gamma%d", name, gamma),
				Title:  fmt.Sprintf("Against Backward, γ=%d, vary k", gamma),
				XLabel: "k",
			}
			for _, k := range workload.KGrid {
				f.AddRow(fmt.Sprintf("%d", k), map[string]float64{
					"Backward": bestOf(cfg.repeat(), func() {
						if _, _, err := baseline.Backward(g, k, gamma); err != nil {
							panic(err)
						}
					}),
					"LocalSearch-P": bestOf(cfg.repeat(), func() {
						if _, err := core.TopKProgressive(g, k, gamma, core.Options{}); err != nil {
							panic(err)
						}
					}),
				})
			}
			out = append(out, f)
		}
	}
	return out, nil
}

// Fig12 reproduces Figure 12 (Eval-III): LocalSearch-OA (counting by
// enumeration) vs LocalSearch-P, γ = 10, varying k.
func Fig12(cfg Config) ([]*Figure, error) {
	var out []*Figure
	for _, name := range cfg.pick([]string{"wiki", "livejournal", "arabic", "uk"}) {
		_, g, err := load(name)
		if err != nil {
			return nil, err
		}
		gamma := gammaFor(name, g, workload.DefaultGamma)
		f := &Figure{
			ID:     "fig12/" + name,
			Title:  fmt.Sprintf("Counting ablation, γ=%d, vary k", gamma),
			XLabel: "k",
		}
		for _, k := range workload.KGrid {
			f.AddRow(fmt.Sprintf("%d", k), map[string]float64{
				"LocalSearch-OA": bestOf(cfg.repeat(), func() {
					if _, _, err := baseline.LocalSearchOA(g, k, gamma); err != nil {
						panic(err)
					}
				}),
				"LocalSearch-P": bestOf(cfg.repeat(), func() {
					if _, err := core.TopKProgressive(g, k, gamma, core.Options{}); err != nil {
						panic(err)
					}
				}),
			})
		}
		out = append(out, f)
	}
	return out, nil
}

// Fig13 reproduces Figure 13 (Eval-IV): LocalSearch-P with growth ratio
// δ ∈ {1.5 … 128}, k = γ = 10.
func Fig13(cfg Config) ([]*Figure, error) {
	var out []*Figure
	for _, name := range cfg.pick([]string{"wiki", "livejournal", "arabic", "uk"}) {
		_, g, err := load(name)
		if err != nil {
			return nil, err
		}
		gamma := gammaFor(name, g, workload.DefaultGamma)
		f := &Figure{
			ID:     "fig13/" + name,
			Title:  fmt.Sprintf("Growth ratio sweep, k=%d, γ=%d", workload.DefaultK, gamma),
			XLabel: "delta",
		}
		for _, delta := range workload.DeltaGrid {
			f.AddRow(fmt.Sprintf("%g", delta), map[string]float64{
				"LocalSearch-P": bestOf(cfg.repeat(), func() {
					if _, err := core.TopKProgressive(g, workload.DefaultK, gamma, core.Options{Delta: delta}); err != nil {
						panic(err)
					}
				}),
			})
		}
		out = append(out, f)
	}
	return out, nil
}

// Fig14 reproduces Figure 14 (Eval-V): elapsed time until the top-i
// community is reported, for i = 1…128. LocalSearch only reports at the
// end; LocalSearch-P reports progressively.
func Fig14(cfg Config) ([]*Figure, error) {
	const kMax = 128
	marks := []int{1, 2, 4, 8, 16, 32, 64, 128}
	var out []*Figure
	for _, name := range cfg.pick([]string{"arabic", "uk"}) {
		_, g, err := load(name)
		if err != nil {
			return nil, err
		}
		for _, gammaWant := range []int32{10, gammaMax(name, g)} {
			gamma := gammaFor(name, g, gammaWant)
			f := &Figure{
				ID:     fmt.Sprintf("fig14/%s/gamma%d", name, gamma),
				Title:  fmt.Sprintf("Progressive enumeration latency, γ=%d, k=%d", gamma, kMax),
				XLabel: "top-i",
			}
			// LocalSearch: all communities arrive when the run finishes.
			lsTotal := bestOf(cfg.repeat(), func() {
				if _, err := core.TopK(g, kMax, gamma, core.Options{}); err != nil {
					panic(err)
				}
			})
			// LocalSearch-P: record elapsed time at each emission.
			elapsed := make([]float64, 0, kMax)
			start := time.Now()
			_, err := core.Stream(g, gamma, core.Options{}, func(*core.Community) bool {
				elapsed = append(elapsed, float64(time.Since(start))/float64(time.Millisecond))
				return len(elapsed) < kMax
			})
			if err != nil {
				return nil, err
			}
			for _, i := range marks {
				row := map[string]float64{"LocalSearch": lsTotal}
				if i <= len(elapsed) {
					row["LocalSearch-P"] = elapsed[i-1]
				}
				f.AddRow(fmt.Sprintf("%d", i), row)
			}
			out = append(out, f)
		}
	}
	return out, nil
}

// Fig15 reproduces Figure 15 (Eval-V): total processing time of LocalSearch
// vs LocalSearch-P, varying k.
func Fig15(cfg Config) ([]*Figure, error) {
	var out []*Figure
	for _, name := range cfg.pick([]string{"arabic", "uk"}) {
		_, g, err := load(name)
		if err != nil {
			return nil, err
		}
		for _, gammaWant := range []int32{10, gammaMax(name, g)} {
			gamma := gammaFor(name, g, gammaWant)
			f := &Figure{
				ID:     fmt.Sprintf("fig15/%s/gamma%d", name, gamma),
				Title:  fmt.Sprintf("Progressive vs non-progressive, γ=%d, vary k", gamma),
				XLabel: "k",
			}
			for _, k := range workload.KGrid {
				f.AddRow(fmt.Sprintf("%d", k), map[string]float64{
					"LocalSearch": bestOf(cfg.repeat(), func() {
						if _, err := core.TopK(g, k, gamma, core.Options{}); err != nil {
							panic(err)
						}
					}),
					"LocalSearch-P": bestOf(cfg.repeat(), func() {
						if _, err := core.TopKProgressive(g, k, gamma, core.Options{}); err != nil {
							panic(err)
						}
					}),
				})
			}
			out = append(out, f)
		}
	}
	return out, nil
}

// Fig16 reproduces Figure 16 (Eval-VI): total processing time of the
// semi-external algorithms (I/O included), varying k.
func Fig16(cfg Config) ([]*Figure, error) {
	var out []*Figure
	for _, name := range cfg.pick([]string{"arabic", "twitter"}) {
		d, g, err := load(name)
		if err != nil {
			return nil, err
		}
		path, err := d.EdgeFile()
		if err != nil {
			return nil, err
		}
		for _, gammaWant := range []int32{10, gammaMax(name, g)} {
			gamma := gammaFor(name, g, gammaWant)
			f := &Figure{
				ID:     fmt.Sprintf("fig16/%s/gamma%d", name, gamma),
				Title:  fmt.Sprintf("Semi-external total time, γ=%d, vary k", gamma),
				XLabel: "k",
			}
			// OnlineAll-SE always ingests and processes the whole graph, so
			// its cost is independent of k (the paper's flat lines). It is
			// measured once and reported for every k to keep the suite's
			// wall-clock within reason — a single run takes minutes, exactly
			// the behavior the figure demonstrates.
			oa := timeMS(func() {
				if _, _, err := semiext.OnlineAllSE(path, workload.DefaultK, gamma); err != nil {
					panic(err)
				}
			})
			f.Notes = append(f.Notes, "OnlineAll-SE measured once per γ (its cost does not depend on k)")
			for _, k := range workload.KGrid {
				f.AddRow(fmt.Sprintf("%d", k), map[string]float64{
					"OnlineAll-SE": oa,
					"LocalSearch-SE": bestOf(cfg.repeat(), func() {
						if _, _, err := semiext.LocalSearchSE(path, k, gamma); err != nil {
							panic(err)
						}
					}),
				})
			}
			out = append(out, f)
		}
	}
	return out, nil
}

// SemiServe measures the serving tier's semi-external access path against
// the in-memory backend, varying k: the shared zero-copy view with each
// query round decoding its prefix ("mmap"), and the "memory" column the
// semi-external backend approaches.
func SemiServe(cfg Config) ([]*Figure, error) {
	var out []*Figure
	ctx := context.Background()
	for _, name := range cfg.pick([]string{"twitter", "livejournal"}) {
		d, g, err := load(name)
		if err != nil {
			return nil, err
		}
		path, err := d.EdgeFile()
		if err != nil {
			return nil, err
		}
		gamma := gammaFor(name, g, 10)
		mem, err := store.OpenMem(g)
		if err != nil {
			return nil, err
		}
		mm, err := store.OpenEdgeFile(path)
		if err != nil {
			return nil, err
		}
		backends := []struct {
			label string
			st    store.Store
		}{{"memory", mem}, {"mmap", mm}}
		f := &Figure{
			ID:     fmt.Sprintf("semiserve/%s/gamma%d", name, gamma),
			Title:  fmt.Sprintf("Semi-external serving, γ=%d, vary k", gamma),
			XLabel: "k",
		}
		for _, k := range workload.KGrid {
			row := map[string]float64{}
			for _, b := range backends {
				st := b.st
				if _, err := st.TopK(ctx, k, gamma, core.Options{}); err != nil { // warm pools
					return nil, err
				}
				row[b.label] = bestOf(cfg.repeat(), func() {
					if _, err := st.TopK(ctx, k, gamma, core.Options{}); err != nil {
						panic(err)
					}
				})
			}
			f.AddRow(fmt.Sprintf("%d", k), row)
		}
		for _, b := range backends {
			b.st.Close()
		}
		out = append(out, f)
	}
	return out, nil
}

// Fig17 reproduces Figure 17 (Eval-VI): the size of the visited graph
// (fraction of edges loaded into memory) of the semi-external algorithms.
func Fig17(cfg Config) ([]*Figure, error) {
	var out []*Figure
	for _, name := range cfg.pick([]string{"arabic", "twitter"}) {
		d, g, err := load(name)
		if err != nil {
			return nil, err
		}
		path, err := d.EdgeFile()
		if err != nil {
			return nil, err
		}
		for _, gammaWant := range []int32{10, gammaMax(name, g)} {
			gamma := gammaFor(name, g, gammaWant)
			f := &Figure{
				ID:     fmt.Sprintf("fig17/%s/gamma%d", name, gamma),
				Title:  fmt.Sprintf("Semi-external visited graph, γ=%d, vary k", gamma),
				XLabel: "k",
				Unit:   "fraction of edges",
			}
			// OnlineAll-SE ingests the entire edge file by construction, so
			// its visited fraction is identically 1 (no need to run the
			// multi-minute global enumeration to measure it).
			f.Notes = append(f.Notes, "OnlineAll-SE visits the whole graph by construction")
			for _, k := range workload.KGrid {
				_, stLS, err := semiext.LocalSearchSE(path, k, gamma)
				if err != nil {
					return nil, err
				}
				f.AddRow(fmt.Sprintf("%d", k), map[string]float64{
					"OnlineAll-SE":   1,
					"LocalSearch-SE": stLS.VisitedFraction,
				})
			}
			out = append(out, f)
		}
	}
	return out, nil
}

// fig18Graphs caches the planted-community stand-ins of Fig18. The paper's
// web graphs contain many disjoint dense regions, so non-containment
// communities (the leaves of the containment forest) appear throughout the
// weight order; preferential-attachment stand-ins instead nest almost all
// communities into a single chain, leaving nearly no NC communities for a
// local search to find early. The planted-community generator restores the
// many-disjoint-dense-regions structure this experiment depends on
// (substitution recorded in EXPERIMENTS.md).
var (
	fig18Mu     sync.Mutex
	fig18Graphs = map[string]*graph.Graph{}
)

func fig18Graph(name string) (*graph.Graph, error) {
	fig18Mu.Lock()
	defer fig18Mu.Unlock()
	if g, ok := fig18Graphs[name]; ok {
		return g, nil
	}
	var g *graph.Graph
	var err error
	switch name {
	case "arabic":
		g, err = gen.PlantedArchipelago(400, 60, 0.35, 1806)
	case "uk":
		g, err = gen.PlantedArchipelago(500, 50, 0.4, 1807)
	default:
		g, err = gen.PlantedArchipelago(50, 40, 0.4, 1808)
	}
	if err != nil {
		return nil, err
	}
	fig18Graphs[name] = g
	return g, nil
}

// Fig18 reproduces Figure 18 (Eval-VII): non-containment queries, Forward
// vs LocalSearch-P, varying k, on planted-community stand-ins (see
// fig18Graph for why).
func Fig18(cfg Config) ([]*Figure, error) {
	var out []*Figure
	for _, name := range cfg.pick([]string{"arabic", "uk"}) {
		g, err := fig18Graph(name)
		if err != nil {
			return nil, err
		}
		gamma := workload.DefaultGamma
		f := &Figure{
			ID:     "fig18/" + name,
			Title:  fmt.Sprintf("Non-containment queries, γ=%d, vary k", gamma),
			XLabel: "k",
		}
		f.Notes = append(f.Notes, "planted-community stand-in (NC structure; see EXPERIMENTS.md)")
		for _, k := range workload.KGrid {
			f.AddRow(fmt.Sprintf("%d", k), map[string]float64{
				"Forward": bestOf(cfg.repeat(), func() {
					if _, _, err := baseline.ForwardNonContainment(g, k, gamma); err != nil {
						panic(err)
					}
				}),
				"LocalSearch-P": bestOf(cfg.repeat(), func() {
					if _, err := core.TopKProgressive(g, k, gamma, core.Options{NonContainment: true}); err != nil {
						panic(err)
					}
				}),
			})
		}
		out = append(out, f)
	}
	return out, nil
}

// Fig19 reproduces Figure 19 (Eval-VIII): influential γ-truss community
// search, GlobalSearch-Truss vs LocalSearch-Truss, γ = 10, varying k.
func Fig19(cfg Config) ([]*Figure, error) {
	var out []*Figure
	for _, name := range cfg.pick([]string{"wiki", "livejournal"}) {
		_, g, err := load(name)
		if err != nil {
			return nil, err
		}
		// γ = 5 rather than the paper's 10: the truss threshold is scaled to
		// the stand-ins' clustering the same way the γ-core grids are
		// scaled to their γmax (see EXPERIMENTS.md).
		gamma := int32(5)
		ix := truss.NewIndex(g)
		f := &Figure{
			ID:     "fig19/" + name,
			Title:  fmt.Sprintf("γ-truss community search, γ=%d, vary k", gamma),
			XLabel: "k",
		}
		f.Notes = append(f.Notes, "γ scaled to stand-in clustering (paper: γ=10 on the real graphs)")
		for _, k := range workload.KGrid {
			f.AddRow(fmt.Sprintf("%d", k), map[string]float64{
				"GlobalSearch-Truss": bestOf(cfg.repeat(), func() {
					if _, err := truss.GlobalSearch(ix, k, gamma); err != nil {
						panic(err)
					}
				}),
				"LocalSearch-Truss": bestOf(cfg.repeat(), func() {
					if _, err := truss.LocalSearch(ix, k, gamma); err != nil {
						panic(err)
					}
				}),
			})
		}
		out = append(out, f)
	}
	return out, nil
}

// AccessFraction reproduces the §3.1 claim "size(G≥τ*)/size(G) is smaller
// than 0.073% across all graphs tested for k = 10 and γ = 10": the
// fraction of each stand-in graph LocalSearch actually accesses.
func AccessFraction(cfg Config) (*Figure, error) {
	f := &Figure{
		ID:     "access-fraction",
		Title:  fmt.Sprintf("Fraction of size(G) accessed, k=%d, γ=%d", workload.DefaultK, workload.DefaultGamma),
		XLabel: "graph",
		Unit:   "percent",
	}
	for _, name := range cfg.pick(allNames()) {
		_, g, err := load(name)
		if err != nil {
			return nil, err
		}
		gamma := gammaFor(name, g, workload.DefaultGamma)
		res, err := core.TopK(g, workload.DefaultK, gamma, core.Options{})
		if err != nil {
			return nil, err
		}
		f.AddRow(name, map[string]float64{
			"accessed": 100 * float64(res.Stats.FinalSize) / float64(g.Size()),
			"rounds":   float64(res.Stats.Rounds),
		})
	}
	f.Series = []string{"accessed", "rounds"}
	f.Notes = append(f.Notes, "paper reports < 0.073% across its real graphs at this query point")
	return f, nil
}

// AblationArithmeticGrowth measures the §3.3 remark: arithmetic prefix
// growth does super-linear total work compared to geometric growth.
func AblationArithmeticGrowth(cfg Config) (*Figure, error) {
	_, g, err := load("uk")
	if err != nil {
		return nil, err
	}
	// The super-linear penalty only shows once the accessed subgraph spans
	// many growth steps, so the ablation uses the dataset's γmax (deepest
	// τ*) and a small fixed increment.
	gamma := gammaFor("uk", g, 1<<30)
	f := &Figure{
		ID:     "ablation/growth",
		Title:  fmt.Sprintf("Geometric vs arithmetic growth, γ=%d, vary k", gamma),
		XLabel: "k",
	}
	for _, k := range workload.KGrid {
		f.AddRow(fmt.Sprintf("%d", k), map[string]float64{
			"geometric (δ=2)": bestOf(cfg.repeat(), func() {
				if _, err := core.TopK(g, k, gamma, core.Options{}); err != nil {
					panic(err)
				}
			}),
			"arithmetic (+256)": bestOf(cfg.repeat(), func() {
				if _, err := core.TopK(g, k, gamma, core.Options{ArithmeticGrowth: 256}); err != nil {
					panic(err)
				}
			}),
		})
	}
	return f, nil
}

// AblationInitialTau compares the paper's (k+γ)-th weight starting
// heuristic with deliberately mis-sized starting prefixes.
func AblationInitialTau(cfg Config) (*Figure, error) {
	_, g, err := load("uk")
	if err != nil {
		return nil, err
	}
	gamma := gammaFor("uk", g, workload.DefaultGamma)
	k := workload.DefaultK
	f := &Figure{
		ID:     "ablation/initial-tau",
		Title:  fmt.Sprintf("Initial prefix heuristic, k=%d, γ=%d", k, gamma),
		XLabel: "initial prefix",
	}
	n := g.NumVertices()
	for _, p0 := range []int{1, k + int(gamma), 10 * (k + int(gamma)), n / 4, n} {
		f.AddRow(fmt.Sprintf("%d", p0), map[string]float64{
			"LocalSearch": bestOf(cfg.repeat(), func() {
				if _, err := core.TopK(g, k, gamma, core.Options{InitialPrefix: p0}); err != nil {
					panic(err)
				}
			}),
		})
	}
	f.Notes = append(f.Notes, fmt.Sprintf("paper heuristic is k+γ = %d", k+int(gamma)))
	return f, nil
}

// CaseStudy reproduces Eval-IX on the synthetic collaboration network: the
// top-1 influential γ-community (γ=5) against the top-1 influential γ-truss
// community (γ=6), reporting members, sizes, and the weight rank of each
// minimum-weight member, plus the size of the full 5-core community that
// contains the γ-community (the paper's Figure 21 contrast).
func CaseStudy() (string, error) {
	raw, err := gen.Collab(120, 14, 2026)
	if err != nil {
		return "", err
	}
	g, err := pagerank.Reweight(raw, pagerank.Options{})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== case study: collaboration network (%d researchers, %d co-author pairs) ==\n",
		g.NumVertices(), g.NumEdges())

	coreRes, err := core.TopK(g, 1, 5, core.Options{})
	if err != nil {
		return "", err
	}
	if len(coreRes.Communities) == 0 {
		return "", fmt.Errorf("bench: case study graph has no 5-community")
	}
	top := coreRes.Communities[0]
	fmt.Fprintf(&b, "\nTop-1 influential 5-community (influence %.6f, %d members):\n", top.Influence(), top.Size())
	printMembers(&b, g, top.Vertices())
	fmt.Fprintf(&b, "  minimum-weight member %q ranks %d of %d by PageRank\n",
		g.Label(top.Keynode()), top.Keynode()+1, g.NumVertices())

	ix := truss.NewIndex(g)
	trussRes, err := truss.LocalSearch(ix, 1, 6)
	if err != nil {
		return "", err
	}
	if len(trussRes.Communities) > 0 {
		tt := trussRes.Communities[0]
		fmt.Fprintf(&b, "\nTop-1 influential 6-truss community (influence %.6f, %d members):\n", tt.Influence(), tt.Size())
		printMembers(&b, g, tt.Vertices())
		fmt.Fprintf(&b, "  minimum-weight member %q ranks %d of %d by PageRank\n",
			g.Label(tt.Keynode()), tt.Keynode()+1, g.NumVertices())
		if tt.Influence() <= top.Influence() {
			fmt.Fprintf(&b, "\nAs in the paper, the γ-truss community is denser but has a lower influence\n")
			fmt.Fprintf(&b, "value than the γ-community (the truss constraint is harder to satisfy).\n")
		}
	} else {
		fmt.Fprintf(&b, "\nNo influential 6-truss community exists in this graph.\n")
	}

	// Figure 21 contrast: the plain 5-core community (connected component of
	// the keynode in the 5-core of the whole graph) is far larger.
	eng := core.NewEngine(g, 5)
	eng.Peel(g.NumVertices())
	if eng.Alive(top.Keynode()) {
		comp := eng.Component(top.Keynode())
		fmt.Fprintf(&b, "\nThe plain 5-core community of the same keynode has %d members —\n", len(comp))
		fmt.Fprintf(&b, "influence filtering refines it to the %d core members above.\n", top.Size())
	}
	return b.String(), nil
}

func printMembers(b *strings.Builder, g *graph.Graph, vs []int32) {
	sorted := append([]int32(nil), vs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	shown := sorted
	const maxShown = 16
	truncated := false
	if len(shown) > maxShown {
		shown = shown[:maxShown]
		truncated = true
	}
	for _, v := range shown {
		fmt.Fprintf(b, "  %-28s (weight %.6f)\n", g.Label(v), g.Weight(v))
	}
	if truncated {
		fmt.Fprintf(b, "  ... and %d more\n", len(sorted)-maxShown)
	}
}
