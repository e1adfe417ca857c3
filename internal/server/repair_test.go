package server

import "testing"

// TestRepairEligibleBoundary pins the synchronous-repair gate at its
// boundary: a delta whose touched suffix is exactly repairFraction·n
// qualifies, one vertex more does not.
func TestRepairEligibleBoundary(t *testing.T) {
	cases := []struct {
		n, minCut int
		want      bool
	}{
		{100, 75, true},  // 25 touched = exactly a quarter
		{100, 74, false}, // 26 touched: one over
		{100, 100, true}, // nothing touched
		{100, 0, false},  // everything touched
		{4, 3, true},     // 1 of 4 = exactly a quarter
		{4, 2, false},
		{0, 0, true}, // empty graph: vacuously eligible
	}
	for _, tc := range cases {
		if got := repairEligible(tc.n, tc.minCut); got != tc.want {
			t.Errorf("repairEligible(%d, %d) = %v, want %v", tc.n, tc.minCut, got, tc.want)
		}
	}
}

// TestRepairFractionSteersMaintenance shows the constant gate choosing the
// path by the update's delta cut. On rankGraph (10 ranks) an edge between
// ranks 8 and 9 cuts at 8, touching 2 ranks, and repairs synchronously; an
// edge touching rank 0 cuts at 0, touching all 10, and goes to the
// background rebuild instead.
func TestRepairFractionSteersMaintenance(t *testing.T) {
	_, ts, _ := reindexServer(t, rankGraph(t), true, DatasetConfig{Reindex: "auto"})
	ur := postMaintainedUpdate(t, ts, `{"updates":[{"op":"delete","u":8,"v":9}]}`)
	if ur.Index != outcomeRepaired {
		t.Errorf("cut at 8: outcome %q, want %q", ur.Index, outcomeRepaired)
	}

	_, ts2, _ := reindexServer(t, rankGraph(t), true, DatasetConfig{Reindex: "auto"})
	ur = postMaintainedUpdate(t, ts2, `{"updates":[{"op":"insert","u":0,"v":9}]}`)
	if ur.Index != outcomeRebuilding {
		t.Errorf("cut at 0: outcome %q, want %q", ur.Index, outcomeRebuilding)
	}
}
