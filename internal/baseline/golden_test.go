package baseline

import (
	"testing"

	"influcomm/internal/gen"
)

// oaGolden pins the exact accounting of LocalSearchOA, recorded on
// gen.Random(400, 6, seed): the community count of its final prefix, the
// summed component-traversal work over every round, and the result size.
var oaGolden = []struct {
	seed          uint64
	k             int
	gamma         int32
	communities   int
	componentWork int64
	returned      int
}{
	{1, 1, 3, 62, 12485, 1},
	{1, 8, 2, 24, 1156, 8},
	{1, 40, 3, 131, 40800, 40},
	{2, 1, 3, 62, 11926, 1},
	{2, 8, 2, 24, 1191, 8},
	{2, 40, 3, 128, 39316, 40},
	{3, 1, 3, 60, 10787, 1},
	{3, 8, 2, 8, 143, 8},
	{3, 40, 3, 139, 40235, 40},
}

func TestLocalSearchOAGolden(t *testing.T) {
	for _, row := range oaGolden {
		got, st, err := LocalSearchOA(gen.Random(400, 6, row.seed), row.k, row.gamma)
		if err != nil {
			t.Fatal(err)
		}
		want := Stats{Communities: row.communities, ComponentWork: row.componentWork}
		if st != want || len(got) != row.returned {
			t.Errorf("seed %d k=%d γ=%d: stats %+v with %d communities, want %+v with %d",
				row.seed, row.k, row.gamma, st, len(got), want, row.returned)
		}
	}
}
