package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of xs, linearly
// interpolated between the closest ranks. It refuses a percentile that
// fewer than ten samples lie beyond: p50 needs 20 samples, p90 needs
// 100, so a tail figure is never read off a handful of points.
func percentile(xs []float64, p int) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %d out of range (0, 100)", p)
	}
	n := len(xs)
	if n*(100-p) < 1000 {
		return 0, fmt.Errorf("p%d needs at least %d samples, have %d", p, (1000+99-p)/(100-p), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := float64(p) / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	if lo+1 >= n {
		return s[n-1], nil
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). Unlike percentile it accepts any non-empty
// sample; it summarizes the repeated set-ups of one run.
func median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("median of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m], nil
	}
	return (s[m-1] + s[m]) / 2, nil
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sortedKeys returns the metric names in order, for stable printing.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
