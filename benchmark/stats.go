package main

import "sort"

// A summary describes the values of one end-to-end metric on one
// workload. With fewer than twenty values nothing above the quartiles
// is reported.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Unit   string  `json:"unit"`
}

func summarize(values []float64, unit string) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s := summary{N: len(v), Median: median(v), Min: v[0], Max: v[len(v)-1], Unit: unit}
	s.Q1, s.Q3 = s.Median, s.Median
	if len(v) > 1 {
		s.Q1, s.Q3 = quantile(v, 1), quantile(v, 3)
	}
	return s
}

// spread is the inter-quartile range as a share of the median.
func (s summary) spread() float64 { return (s.Q3 - s.Q1) / s.Median }

func median(values []float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quantile returns the i-th quartile of sorted (at least two values) the
// way Python's statistics.quantiles(values, n=4) does, so a spread
// computed here is the spread the driver computes.
func quantile(sorted []float64, i int) float64 {
	n := len(sorted)
	j := i * (n + 1) / 4
	j = max(1, min(j, n-1))
	delta := float64(i*(n+1) - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}
