package main

import (
	"slices"
	"time"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midTask returns the mean of the task times ranked between the 40th and
// 60th percentiles of ds: a median smoothed over the central fifth. Task
// times of a mixed grid climb steeply around the median (on grid, p45 to
// p55 doubles), so a plain median jumps between task kinds from pass to
// pass. With fewer than five tasks it is the plain median.
func midTask(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := seconds(ds)
	slices.Sort(s)
	lo := 2 * len(s) / 5
	var sum float64
	for _, v := range s[lo : len(s)-lo] {
		sum += v
	}
	return sum / float64(len(s)-2*lo)
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) (the default, exclusive method).
// With fewer than two values both equal the value, or 0 when empty.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// lowerQuartile and upperQuartile return one side of quartiles(xs).
func lowerQuartile(xs []float64) float64 {
	q1, _ := quartiles(xs)
	return q1
}

func upperQuartile(xs []float64) float64 {
	_, q3 := quartiles(xs)
	return q3
}

// tail returns the highest percentile of ds that has at least ten samples
// beyond it, with that percentile. When that percentile would fall below
// the 90th (fewer than 100 samples), it returns the maximum, at the 100th
// percentile, instead: a tail read below p90 says nothing about the tail.
func tail(ds []time.Duration) (value time.Duration, pct float64) {
	if len(ds) == 0 {
		return 0, 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	n := len(s)
	if n < 100 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
