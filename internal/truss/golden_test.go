package truss

import (
	"testing"

	"influcomm/internal/core"
	"influcomm/internal/gen"
)

// roundGolden pins the exact round accounting of LocalSearch and the prefix
// Stream reports when stopped after k communities, recorded on
// gen.Random(400, 6, seed).
var roundGolden = []struct {
	seed                   uint64
	k                      int
	gamma                  int32
	rounds, prefix         int
	size, work             int64
	communities            int
	streamPrefix, streamed int
}{
	{1, 1, 3, 4, 29, 34, 62, 1, 29, 1},
	{1, 8, 2, 4, 59, 83, 154, 17, 65, 8},
	{1, 40, 2, 3, 120, 217, 379, 62, 110, 40},
	{2, 1, 3, 9, 323, 1105, 2195, 11, 323, 1},
	{2, 8, 2, 3, 32, 40, 70, 8, 38, 8},
	{2, 40, 2, 3, 116, 218, 381, 61, 107, 40},
	{3, 1, 3, 7, 128, 258, 510, 2, 128, 1},
	{3, 8, 2, 4, 65, 90, 167, 17, 68, 8},
	{3, 40, 2, 3, 107, 199, 344, 50, 107, 40},
}

func TestRoundAccountingGolden(t *testing.T) {
	for _, row := range roundGolden {
		ix := NewIndex(gen.Random(400, 6, row.seed))
		res, err := LocalSearch(ix, row.k, row.gamma)
		if err != nil {
			t.Fatal(err)
		}
		want := Stats{Rounds: row.rounds, FinalPrefix: row.prefix, FinalSize: row.size, TotalWork: row.work, Communities: row.communities}
		if res.Stats != want {
			t.Errorf("seed %d k=%d γ=%d: LocalSearch stats %+v, want %+v", row.seed, row.k, row.gamma, res.Stats, want)
		}
		n := 0
		p, err := Stream(ix, row.gamma, func(*core.Community) bool {
			n++
			return n < row.k
		})
		if err != nil {
			t.Fatal(err)
		}
		if p != row.streamPrefix || n != row.streamed {
			t.Errorf("seed %d k=%d γ=%d: Stream stopped at prefix %d after %d communities, want %d after %d",
				row.seed, row.k, row.gamma, p, n, row.streamPrefix, row.streamed)
		}
	}
}
