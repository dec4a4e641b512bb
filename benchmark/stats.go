package main

import "sort"

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// default), so the spreads this benchmark reports match the ones computed
// over its printed results. One value is its own quartiles; none gives 0s.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), median(d), q(3)
}

func firstQuartile(xs []float64) float64 { q, _, _ := quartiles(xs); return q }
func thirdQuartile(xs []float64) float64 { _, _, q := quartiles(xs); return q }

// median of xs (0 for none).
func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// percentile is the p-th percentile (0..100) of xs with linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 0 {
		return 0
	}
	r := p / 100 * float64(len(d)-1)
	lo := int(r)
	if lo >= len(d)-1 {
		return d[len(d)-1]
	}
	return d[lo] + (r-float64(lo))*(d[lo+1]-d[lo])
}
