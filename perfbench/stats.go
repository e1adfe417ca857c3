package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: p99 needs at least 1,000 samples, p50 twenty.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (q in (0, 1))
// and whether it may be reported, i.e. at least minBeyond samples lie
// beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for none. It sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one reported number with its unit and the sample count
// behind it.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
	// Refused marks a percentile withheld for too few samples beyond it.
	Refused bool
}

// metrics collects a run's numbers in report order.
type metrics struct{ list []metric }

func (m *metrics) add(name string, value float64, unit string, samples int) {
	m.list = append(m.list, metric{Name: name, Value: value, Unit: unit, Samples: samples})
}

// addLatencies adds the median and p99 of lats (ms) as name prefix+"p50_ms"
// and prefix+"p99_ms"; a percentile without enough samples beyond it is
// recorded as refused.
func (m *metrics) addLatencies(prefix string, lats []float64) {
	sort.Float64s(lats)
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.5}, {"p99_ms", 0.99}} {
		v, ok := percentile(lats, p.q)
		m.list = append(m.list, metric{Name: prefix + p.name, Value: v, Unit: "ms", Samples: len(lats), Refused: !ok})
	}
}

func (m *metrics) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}

func (x metric) String() string {
	if x.Refused {
		return fmt.Sprintf("%-28s refused: %d samples, fewer than %d beyond the percentile", x.Name, x.Samples, minBeyond)
	}
	return fmt.Sprintf("%-28s %14.6f %-6s n=%d", x.Name, x.Value, x.Unit, x.Samples)
}
