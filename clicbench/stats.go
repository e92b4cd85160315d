package main

import (
	"math"
	"sort"
)

// quantile returns the exact q-quantile (0 < q ≤ 1) of the samples by the
// nearest-rank rule: the smallest sample with at least ⌈q·n⌉ samples at or
// below it. It sorts samples in place and returns 0 for an empty slice.
func quantile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// windowQuantiles cuts samples, in the order they were taken, into
// consecutive windows of size samples and returns the exact q-quantile of
// each full window; a shorter remainder is dropped. Fewer than size
// samples make one window of them all. samples is left unchanged.
func windowQuantiles(samples []int64, size int, q float64) []int64 {
	if len(samples) == 0 {
		return nil
	}
	if len(samples) < size {
		return []int64{quantile(append([]int64(nil), samples...), q)}
	}
	out := make([]int64, 0, len(samples)/size)
	buf := make([]int64, size)
	for i := 0; i+size <= len(samples); i += size {
		copy(buf, samples[i:i+size])
		out = append(out, quantile(buf, q))
	}
	return out
}

// median returns the median of the values (the mean of the middle two for
// an even count), leaving the input unchanged; 0 for an empty slice.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// interval is a closed span of time in nanoseconds since the run's epoch.
type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other or stick out of the parent; only
// their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := int64(0)
	cur := interval{start: -1, end: -1}
	for _, c := range clipped {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	covered += cur.end - cur.start
	return parent.dur() - covered
}

// skew is max ÷ mean of the counts: 1 for a perfectly even spread, 0 when
// every count is zero.
func skew(counts []uint64) float64 {
	var sum, max uint64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(counts)) / float64(sum)
}

// ratio is num ÷ den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
