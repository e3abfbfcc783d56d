package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{200, 95, 190}, // rank ceil(0.95*200) = 190, 10 beyond
		{1000, 99, 990},
		{100, 90, 90},
		{101, 90, 91}, // rank ceil(90.9) = 91
		{5, 50, 3},
		{4, 50, 2},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..%d = %g, %v; want %g", c.p, c.n, got, err, c.want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{
		{199, 95}, // rank 190, 9 beyond
		{999, 99}, // rank 990, 9 beyond
		{50, 90},
		{0, 50},
	} {
		if v, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%g of %d samples = %g, want refused", c.p, c.n, v)
		}
	}
	if got := median(seq(3)); got != 2 {
		t.Errorf("median of 1..3 = %g, want 2 (the median is never refused)", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}
