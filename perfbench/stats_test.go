package main

import "testing"

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{2000, 0.99, true, 1980},
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{0, 0.5, false, 0},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestAddLatenciesRefusesShortTails(t *testing.T) {
	var m metrics
	m.addLatencies("write_", seq(500))
	p50, _ := m.get("write_p50_ms")
	p99, _ := m.get("write_p99_ms")
	if p50.Refused || p50.Value != 250 || p50.Samples != 500 {
		t.Errorf("p50 = %+v, want 250 over 500 samples", p50)
	}
	if !p99.Refused {
		t.Errorf("p99 over 500 samples reported as %v, want refused", p99.Value)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}
