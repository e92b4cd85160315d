package main

import (
	"math"
	"testing"
)

func TestQuantileExact(t *testing.T) {
	// 1..100 shuffled: the nearest-rank q-quantile of 1..n is ⌈q·n⌉.
	var s []int64
	for i := int64(0); i < 100; i++ {
		s = append(s, (i*37)%100+1)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.01, 1}, {0.5, 50}, {0.99, 99}, {1, 100}, {0.505, 51}} {
		if got := quantile(s, tc.q); got != tc.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	// The 99th percentile of 10 samples is the largest; of 1000 samples it
	// leaves exactly 10 above it.
	ten := []int64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	if got := quantile(ten, 0.99); got != 10 {
		t.Errorf("p99 of 10 samples = %d, want 10", got)
	}
	var k []int64
	for i := int64(1000); i >= 1; i-- {
		k = append(k, i)
	}
	if got := quantile(k, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %d, want 0", got)
	}
}

func TestWindowQuantiles(t *testing.T) {
	// 1..250 in order: windows of 100 are 1..100 and 101..200, whose p99s
	// are 99 and 199; the remainder 201..250 is dropped.
	var s []int64
	for i := int64(1); i <= 250; i++ {
		s = append(s, i)
	}
	got := windowQuantiles(s, 100, 0.99)
	if len(got) != 2 || got[0] != 99 || got[1] != 199 {
		t.Errorf("windowQuantiles(1..250, 100, 0.99) = %v, want [99 199]", got)
	}
	if s[0] != 1 || s[249] != 250 {
		t.Fatalf("windowQuantiles reordered its input")
	}
	// Fewer samples than one window make a single window of them all.
	if got := windowQuantiles([]int64{3, 9, 1}, 100, 0.99); len(got) != 1 || got[0] != 9 {
		t.Errorf("windowQuantiles of 3 samples = %v, want [9]", got)
	}
	if got := windowQuantiles(nil, 100, 0.99); got != nil {
		t.Errorf("windowQuantiles of no samples = %v, want nil", got)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		in := append([]float64(nil), tc.in...)
		if got := median(in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.in[i] {
				t.Fatalf("median reordered its input: %v", in)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 140}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"sticking out", []interval{{50, 120}, {190, 250}}, 70},
		{"outside", []interval{{0, 50}, {300, 400}}, 100},
		{"covering", []interval{{0, 400}}, 0},
		{"empty child", []interval{{150, 150}, {160, 140}}, 100},
		{"unsorted", []interval{{180, 190}, {100, 110}, {105, 115}}, 75},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSkewAndRatio(t *testing.T) {
	if got := skew([]uint64{10, 10, 10, 10}); got != 1 {
		t.Errorf("even skew = %v, want 1", got)
	}
	if got := skew([]uint64{30, 10}); got != 1.5 {
		t.Errorf("skew(30,10) = %v, want 1.5", got)
	}
	if got := skew([]uint64{0, 0}); got != 0 {
		t.Errorf("skew of zeros = %v, want 0", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
	if got := ratio(1, 4); math.Abs(got-0.25) > 1e-15 {
		t.Errorf("ratio(1, 4) = %v", got)
	}
}

func TestParseExposition(t *testing.T) {
	text := "# HELP clic_x A counter.\n# TYPE clic_x counter\nclic_x 12345678901\n" +
		"clic_wire_bytes_total{dir=\"encoded\"} 1.5e+06\nclic_h_bucket{le=\"+Inf\"} 3\n"
	got, err := parseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	want := seriesValues{"clic_x": 12345678901, `clic_wire_bytes_total{dir="encoded"}`: 1.5e6, `clic_h_bucket{le="+Inf"}`: 3}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := parseExposition("no_value_here\n"); err == nil {
		t.Error("a line without a value parsed")
	}
}
