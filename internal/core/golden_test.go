package core

import (
	"testing"

	"influcomm/internal/gen"
)

// roundGolden pins the exact round accounting of TopK and of Stream
// stopped after k communities, recorded on gen.Random(400, 6, seed) for
// every Options knob. It guards the growth policy (Lines 1 and 4 of
// Algorithm 1) and the per-round Stats bookkeeping against any change
// that keeps answers right but alters how much of the graph a query
// touches.
var roundGolden = []struct {
	seed           uint64
	k              int
	gamma          int32
	opt, algo      string
	rounds, prefix int
	size, work     int64
	communities    int
}{
	{1, 1, 3, "zero", "topk", 9, 322, 1103, 2190, 62},
	{1, 1, 3, "zero", "stream", 9, 322, 1103, 2190, 1},
	{1, 1, 3, "delta1.5", "topk", 14, 250, 721, 2145, 12},
	{1, 1, 3, "delta1.5", "stream", 14, 250, 721, 2145, 1},
	{1, 1, 3, "noncontainment", "topk", 9, 322, 1103, 2190, 1},
	{1, 1, 3, "noncontainment", "stream", 9, 322, 1103, 2190, 1},
	{1, 1, 3, "arithmetic50", "topk", 13, 231, 627, 4074, 1},
	{1, 1, 3, "arithmetic50", "stream", 13, 231, 627, 4074, 1},
	{1, 1, 3, "initial7", "topk", 8, 286, 910, 1803, 36},
	{1, 1, 3, "initial7", "stream", 8, 286, 910, 1803, 1},
	{1, 8, 2, "zero", "topk", 6, 159, 336, 657, 24},
	{1, 8, 2, "zero", "stream", 8, 171, 388, 771, 8},
	{1, 8, 2, "delta1.5", "topk", 9, 138, 262, 761, 11},
	{1, 8, 2, "delta1.5", "stream", 13, 154, 316, 949, 8},
	{1, 8, 2, "noncontainment", "topk", 9, 400, 1600, 4287, 1},
	{1, 8, 2, "noncontainment", "stream", 11, 400, 1600, 4706, 1},
	{1, 8, 2, "arithmetic50", "topk", 6, 140, 267, 829, 12},
	{1, 8, 2, "arithmetic50", "stream", 6, 137, 258, 780, 8},
	{1, 8, 2, "initial7", "topk", 7, 190, 452, 893, 44},
	{1, 8, 2, "initial7", "stream", 7, 190, 452, 893, 8},
	{1, 40, 3, "zero", "topk", 6, 400, 1600, 3310, 131},
	{1, 40, 3, "zero", "stream", 9, 322, 1103, 2190, 40},
	{1, 40, 3, "delta1.5", "topk", 8, 294, 949, 2730, 40},
	{1, 40, 3, "delta1.5", "stream", 15, 319, 1087, 3232, 40},
	{1, 40, 3, "noncontainment", "topk", 6, 400, 1600, 3310, 1},
	{1, 40, 3, "noncontainment", "stream", 10, 400, 1600, 3790, 1},
	{1, 40, 3, "arithmetic50", "topk", 19, 302, 992, 9910, 46},
	{1, 40, 3, "arithmetic50", "stream", 20, 302, 992, 9912, 40},
	{1, 40, 3, "initial7", "topk", 9, 400, 1600, 3403, 131},
	{1, 40, 3, "initial7", "stream", 9, 400, 1600, 3403, 40},
	{2, 1, 3, "zero", "topk", 9, 323, 1105, 2195, 62},
	{2, 1, 3, "zero", "stream", 9, 323, 1105, 2195, 1},
	{2, 1, 3, "delta1.5", "topk", 14, 251, 714, 2136, 10},
	{2, 1, 3, "delta1.5", "stream", 14, 251, 714, 2136, 1},
	{2, 1, 3, "noncontainment", "topk", 9, 323, 1105, 2195, 1},
	{2, 1, 3, "noncontainment", "stream", 9, 323, 1105, 2195, 1},
	{2, 1, 3, "arithmetic50", "topk", 14, 243, 674, 4734, 6},
	{2, 1, 3, "arithmetic50", "stream", 14, 243, 674, 4734, 1},
	{2, 1, 3, "initial7", "topk", 8, 293, 930, 1841, 39},
	{2, 1, 3, "initial7", "stream", 8, 293, 930, 1841, 1},
	{2, 8, 2, "zero", "topk", 6, 155, 326, 639, 24},
	{2, 8, 2, "zero", "stream", 8, 171, 385, 766, 8},
	{2, 8, 2, "delta1.5", "topk", 9, 137, 277, 804, 16},
	{2, 8, 2, "delta1.5", "stream", 12, 113, 211, 633, 8},
	{2, 8, 2, "noncontainment", "topk", 9, 400, 1600, 4210, 2},
	{2, 8, 2, "noncontainment", "stream", 11, 400, 1600, 4686, 2},
	{2, 8, 2, "arithmetic50", "topk", 5, 114, 214, 558, 10},
	{2, 8, 2, "arithmetic50", "stream", 5, 112, 209, 527, 8},
	{2, 8, 2, "initial7", "topk", 6, 121, 230, 450, 11},
	{2, 8, 2, "initial7", "stream", 6, 121, 230, 450, 8},
	{2, 40, 3, "zero", "topk", 6, 400, 1600, 3392, 128},
	{2, 40, 3, "zero", "stream", 9, 323, 1105, 2195, 40},
	{2, 40, 3, "delta1.5", "topk", 8, 304, 995, 2849, 48},
	{2, 40, 3, "delta1.5", "stream", 15, 319, 1076, 3212, 40},
	{2, 40, 3, "noncontainment", "topk", 6, 400, 1600, 3392, 1},
	{2, 40, 3, "noncontainment", "stream", 10, 400, 1600, 3795, 1},
	{2, 40, 3, "arithmetic50", "topk", 19, 302, 983, 9850, 47},
	{2, 40, 3, "arithmetic50", "stream", 20, 302, 983, 9851, 40},
	{2, 40, 3, "initial7", "topk", 9, 400, 1600, 3441, 128},
	{2, 40, 3, "initial7", "stream", 9, 400, 1600, 3441, 40},
	{3, 1, 3, "zero", "topk", 9, 313, 1042, 2071, 60},
	{3, 1, 3, "zero", "stream", 9, 313, 1042, 2071, 1},
	{3, 1, 3, "delta1.5", "topk", 14, 255, 754, 2234, 19},
	{3, 1, 3, "delta1.5", "stream", 14, 255, 754, 2234, 1},
	{3, 1, 3, "noncontainment", "topk", 9, 313, 1042, 2071, 1},
	{3, 1, 3, "noncontainment", "stream", 9, 313, 1042, 2071, 1},
	{3, 1, 3, "arithmetic50", "topk", 12, 214, 570, 3427, 1},
	{3, 1, 3, "arithmetic50", "stream", 12, 214, 570, 3427, 1},
	{3, 1, 3, "initial7", "topk", 8, 313, 1042, 2067, 60},
	{3, 1, 3, "initial7", "stream", 8, 313, 1042, 2067, 1},
	{3, 8, 2, "zero", "topk", 5, 100, 180, 347, 8},
	{3, 8, 2, "zero", "stream", 7, 107, 199, 389, 8},
	{3, 8, 2, "delta1.5", "topk", 8, 102, 185, 531, 9},
	{3, 8, 2, "delta1.5", "stream", 12, 116, 219, 651, 8},
	{3, 8, 2, "noncontainment", "topk", 9, 400, 1600, 4485, 1},
	{3, 8, 2, "noncontainment", "stream", 10, 400, 1600, 3186, 1},
	{3, 8, 2, "arithmetic50", "topk", 5, 113, 214, 563, 14},
	{3, 8, 2, "arithmetic50", "stream", 5, 110, 206, 525, 8},
	{3, 8, 2, "initial7", "topk", 6, 128, 258, 506, 20},
	{3, 8, 2, "initial7", "stream", 6, 128, 258, 506, 8},
	{3, 40, 3, "zero", "topk", 6, 400, 1600, 3211, 139},
	{3, 40, 3, "zero", "stream", 9, 313, 1042, 2071, 40},
	{3, 40, 3, "delta1.5", "topk", 8, 285, 898, 2577, 41},
	{3, 40, 3, "delta1.5", "stream", 15, 327, 1132, 3366, 40},
	{3, 40, 3, "noncontainment", "topk", 6, 400, 1600, 3211, 1},
	{3, 40, 3, "noncontainment", "stream", 10, 400, 1600, 3671, 1},
	{3, 40, 3, "arithmetic50", "topk", 18, 291, 924, 8746, 44},
	{3, 40, 3, "arithmetic50", "stream", 18, 284, 894, 7981, 40},
	{3, 40, 3, "initial7", "topk", 8, 313, 1042, 2067, 60},
	{3, 40, 3, "initial7", "stream", 8, 313, 1042, 2067, 40},
}

var goldenOptions = map[string]Options{
	"zero":           {},
	"delta1.5":       {Delta: 1.5},
	"noncontainment": {NonContainment: true},
	"arithmetic50":   {ArithmeticGrowth: 50},
	"initial7":       {InitialPrefix: 7},
}

func TestRoundAccountingGolden(t *testing.T) {
	for _, row := range roundGolden {
		g := gen.Random(400, 6, row.seed)
		opts, ok := goldenOptions[row.opt]
		if !ok {
			t.Fatalf("unknown option set %q", row.opt)
		}
		var st Stats
		switch row.algo {
		case "topk":
			res, err := TopK(g, row.k, row.gamma, opts)
			if err != nil {
				t.Fatal(err)
			}
			st = res.Stats
		case "stream":
			n := 0
			var err error
			st, err = Stream(g, row.gamma, opts, func(*Community) bool {
				n++
				return n < row.k
			})
			if err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unknown algorithm %q", row.algo)
		}
		want := Stats{Rounds: row.rounds, FinalPrefix: row.prefix, FinalSize: row.size, TotalWork: row.work, Communities: row.communities}
		if st != want {
			t.Errorf("seed %d k=%d γ=%d %s %s: stats %+v, want %+v",
				row.seed, row.k, row.gamma, row.opt, row.algo, st, want)
		}
	}
}
